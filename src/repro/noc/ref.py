"""The reference cycle kernel: the readable specification and the oracle.

:class:`RefNetwork` is the dense object-graph kernel under the shared
core (:mod:`repro.noc.network`): :class:`~repro.noc.router.Router`
objects hold the input side, and every flit and credit in flight rides
a :class:`~repro.noc.link.Link` or an inject/eject
:class:`~repro.noc.link.DelayLine`.  Every phase scans every link,
line, NI, router (every VC) and power-gating controller, every cycle;
the skipping lives in its sibling, :mod:`repro.noc.soa`, so the
``ref``-vs-``soa`` differential checks it as well as the datapath.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from ..config import Design
from ..powergate.controller import PowerState
from .buffer import CREDIT_OVERFLOW, VCState
from .flit import Flit
from .link import DelayLine, Link
from .network import INJECT_DELAY, LINK_DELAY, Network
from .router import Router
from .topology import LOCAL, NUM_PORTS, OPPOSITE


class RefNetwork(Network):
    """The dense object-graph kernel (see the module docstring)."""

    backend = "ref"

    def _build_datapath(self) -> None:
        self.routers = [Router(node, self.cfg, self.mesh, self)
                        for node in range(self.mesh.num_nodes)]
        # Links: links_out[node][port] for the four mesh directions.
        self.links_out: List[List[Optional[Link]]] = []
        for node in range(self.mesh.num_nodes):
            row: List[Optional[Link]] = [None] * NUM_PORTS
            for port, nbr in self.mesh.neighbors(node):
                row[port] = Link(node, port, nbr, OPPOSITE[port], LINK_DELAY)
            self.links_out.append(row)
        #: Every link, in ascending (node, port) order: the order the
        #: credit and link phases visit them.
        self._links: List[Link] = [link for row in self.links_out
                                   for link in row if link is not None]
        self.inject_lines: List[DelayLine] = [
            DelayLine(INJECT_DELAY) for _ in range(self.mesh.num_nodes)
        ]
        self.eject_lines: List[DelayLine] = [
            DelayLine(LINK_DELAY) for _ in range(self.mesh.num_nodes)
        ]

    # ------------------------------------------------------------------
    # views used by the routing functions (through Router)
    # ------------------------------------------------------------------
    def neighbor_awake(self, node: int, port: int) -> bool:
        nbr = self.mesh.neighbor(node, port)
        if nbr is None:
            return False
        return self.router_on(nbr)

    def port_usable(self, node: int, port: int) -> bool:
        """NoRD reachability: an off router is enterable only through its
        Bypass Inport (Section 4.2)."""
        if port == LOCAL:
            return True
        nbr = self.mesh.neighbor(node, port)
        if nbr is None:
            return False
        if self.router_on(nbr):
            return True
        return (self.ring is not None and self.ring.successor[node] == nbr)

    # ------------------------------------------------------------------
    # datapath services used by routers and NIs
    # ------------------------------------------------------------------
    def send_flit(self, node: int, out_port: int, flit: Flit, out_vc: int,
                  now: int, *, fast: bool = False) -> None:
        """Launch ST+LT.  ``fast`` shaves one cycle: the aggressive bypass
        (Section 6.8) connects the Bypass Inport straight to the Bypass
        Outport when nothing conflicts."""
        self._last_progress = now
        if out_port == LOCAL:
            self.eject_lines[node].send((flit, out_vc), now)
            return
        link = self.links_out[node][out_port]
        if link is None:
            raise RuntimeError(f"node {node} has no link on port {out_port}")
        if fast:
            link.flits.send((flit, out_vc), now - 1)
        else:
            link.flits.send((flit, out_vc), now)
        self.n_link_flits += 1
        if flit.is_head:
            flit.packet.hops += 1

    def send_inject(self, node: int, flit: Flit, out_vc: int,
                    now: int) -> None:
        self._last_progress = now
        self.inject_lines[node].send((flit, out_vc), now)

    def credit_upstream(self, node: int, in_port: int, vc: int,
                        now: int) -> None:
        """A buffer/latch slot at (node, in_port, vc) was freed."""
        if in_port == LOCAL:
            self._local_credit_back(node, vc)
            return
        upstream = self.mesh.neighbor(node, in_port)
        self.links_out[upstream][OPPOSITE[in_port]].credits.send(vc, now)

    def _occupancy(self, capacity: Tuple[int, ...]) -> Tuple[int, ...]:
        """Every phase visits every component it could."""
        return capacity

    # ------------------------------------------------------------------
    # phase 2: credit delivery
    # ------------------------------------------------------------------
    def _phase_credits(self, now: int) -> None:
        credit, maxc, v_per = self._credit, self._maxc, self._V
        for link in self._links:
            vcs = link.credits.receive(now)
            if not vcs:
                continue
            o = link.src * NUM_PORTS + link.src_port
            fault = self._link_fault[o]
            if fault is not None:
                vcs = self._faults.filter_credits(fault, vcs, self.stats)
            for vc in vcs:
                c = o * v_per + vc
                if credit[c] >= maxc[c]:
                    raise RuntimeError(CREDIT_OVERFLOW)
                credit[c] += 1

    # ------------------------------------------------------------------
    # phase 3: network interfaces (an NI with nothing queued or latched
    # runs as a no-op)
    # ------------------------------------------------------------------
    def _phase_nis(self, now: int) -> None:
        for used in self._ports_used:
            used.clear()
        for ni in self.nis:
            ni.process(now)

    # ------------------------------------------------------------------
    # phase 4: router pipelines (only powered-on routers).  The canonical
    # router evaluates SA -> VA -> RC so a flit advances one stage per
    # cycle; the speculative 2-stage pipeline (Section 6.8) ripples
    # RC -> VA -> SA within a cycle, succeeding in one router cycle when
    # arbitration does not push back.
    # ------------------------------------------------------------------
    def _phase_routers(self, now: int) -> None:
        speculative = self.cfg.noc.speculative
        controllers = self.controllers
        on = PowerState.ON
        for node, router in enumerate(self.routers):
            if controllers[node].state == on:
                if speculative:
                    router.stage_rc(now)
                    router.stage_va(now)
                    router.stage_sa(now)
                else:
                    router.stage_sa(now)
                    router.stage_va(now)
                    router.stage_rc(now)

    # ------------------------------------------------------------------
    # phase 5: flit delivery
    # ------------------------------------------------------------------
    def _phase_links(self, now: int) -> None:
        for link in self._links:
            arrivals = link.flits.receive(now)
            if not arrivals:
                continue
            fault = self._link_fault[link.src * NUM_PORTS + link.src_port]
            if fault is not None:
                self._faults.strike_flits(
                    fault, [flit.packet for flit, _ in arrivals], self.stats)
            for flit, vc in arrivals:
                self._deliver(link.dst, link.dst_port, vc, flit)
        for node, line in enumerate(self.inject_lines):
            for flit, vc in line.receive(now):
                self._deliver_inject(node, vc, flit)
        for node, line in enumerate(self.eject_lines):
            for flit, vc in line.receive(now):
                self._deliver_eject(node, vc, flit, now)

    def _deliver_inject(self, node: int, vc: int, flit: Flit) -> None:
        if not self.router_on(node):
            raise RuntimeError(
                f"injected flit delivered to off router {node}")
        self.routers[node].deliver(LOCAL, vc, flit)

    def _deliver_eject(self, node: int, vc: int, flit: Flit,
                       now: int) -> None:
        self.nis[node].n_ejected_flits += 1
        if flit.is_tail:
            self._owner[node * NUM_PORTS + LOCAL][vc] = None
        self.sink_flit(node, flit, now, via_bypass=False)

    def _deliver(self, node: int, in_port: int, vc: int, flit: Flit) -> None:
        ni = self.nis[node]
        if (self.ring is not None and in_port == self.ring.inport[node]
                and (not self.router_on(node) or vc in ni.lingering)):
            ni.latch_write(vc, flit)
            return
        if not self.router_on(node):
            raise RuntimeError(
                f"flit delivered to off router {node} port {in_port}: "
                "power-gating handshake violated")
        self.routers[node].deliver(in_port, vc, flit)

    def _deliver_flit(self, node: int, in_port: int, vc: int,
                      flit: Flit) -> None:
        """Write ``flit`` into input VC ``(in_port, vc)`` of ``node``'s
        powered-on router (the wake-up hand-over of latched flits)."""
        self.routers[node].deliver(in_port, vc, flit)

    # ------------------------------------------------------------------
    # phase 6: power gating
    # ------------------------------------------------------------------
    def _phase_pg(self, now: int) -> None:
        events: List[Tuple[int, str]] = []
        routers = self.routers
        for node, ctrl in enumerate(self.controllers):
            event = ctrl.step(not routers[node].empty, self)
            if event is not None:
                events.append((node, event))
        self._apply_pg_events(events, self.cfg.design)

    def incoming_condition(self, node: int) -> bool:
        """The IC condition: flits (or credits) are in flight toward this
        router, or an upstream packet is committed to stream through it."""
        if not self.inject_lines[node].empty:
            return True
        if not self.eject_lines[node].empty:
            return True
        for port, nbr in self.mesh.neighbors(node):
            link_in = self.links_out[nbr][OPPOSITE[port]]
            if not link_in.flits.empty or not link_in.credits.empty:
                return True
        design = self.cfg.design
        if design == Design.NORD:
            # A packet the NI started injecting through the router must
            # finish before the router may gate (its LOCAL VC is held, so
            # this is usually covered by the occupancy; the check closes
            # the window before the first flit arrives).
            return self.injecting_through_router(node)
        early = design == Design.CONV_PG_OPT
        for port, nbr in self.mesh.neighbors(node):
            if self.routers[nbr].has_commitment_to(OPPOSITE[port],
                                                   early=early):
                return True
        return False

    def _reset_vcs_routed_to(self, node: int, out_port: int) -> None:
        """Restart from RC every packet at ``node`` headed to
        ``out_port`` that has not yet sent any flit (Section 4.3: such
        flits are still entirely in the input channel, so the pipeline
        restart is safe)."""
        own = self._owner[node * NUM_PORTS + out_port]
        for port in self.routers[node].in_ports:
            for vc in port.vcs:
                if vc.state == VCState.WAITING_VA:
                    if (out_port in vc.adaptive_ports
                            or vc.escape_port == out_port):
                        vc.reset_route()
                elif (vc.state == VCState.ACTIVE and vc.route_port == out_port
                        and vc.flits_sent == 0):
                    own[vc.out_vc] = None
                    vc.reset_route()

    def _ring_slots_held(self, node: int, vc: int) -> int:
        """Flits and credit returns of ``vc`` in flight on the ring link
        into ``node`` (its delay lines), plus its flits buffered at
        ``node``'s Bypass Inport."""
        ring = self.ring
        pred = ring.predecessor[node]
        link = self.links_out[pred][ring.outport[pred]]
        return (sum(1 for _, v in link.flits.peek_pending() if v == vc)
                + sum(1 for v in link.credits.peek_pending() if v == vc)
                + len(self.routers[node].in_ports[ring.inport[node]]
                      .vcs[vc].fifo))

    # ------------------------------------------------------------------
    # phase 7: statistics
    # ------------------------------------------------------------------
    def _phase_stats(self, now: int) -> None:
        stats = self.stats
        state = self._idle_state
        for node, router in enumerate(self.routers):
            idle = router.empty
            if idle != state[node]:
                state[node] = idle
                if idle:
                    stats.note_idle(node, now)
                else:
                    stats.note_busy(node, now)

    def buffered_vcs(self, node: int) -> Iterator[Tuple[int, int, int]]:
        for port in self.routers[node].in_ports:
            for vc in port.vcs:
                if vc.fifo:
                    yield port.port_id, vc.vc_id, len(vc.fifo)
