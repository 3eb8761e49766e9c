"""The canonical 4-stage wormhole router (Section 3.1).

Pipeline: RC (route computation) -> VA (VC allocation) -> SA (switch
allocation) -> ST (switch traversal), followed by LT (link traversal +
buffer write).  Each stage takes one cycle; ST+LT are modelled together as
a 2-cycle link delay after the SA grant, so a head flit needs 5 cycles per
hop through a powered-on router.

The router is orchestrated by :class:`repro.noc.network.Network`, which
invokes the stages in reverse order (SA, VA, RC) each cycle so that a flit
advances at most one stage per cycle.  All power-gating behaviour
(PG/WU/IC handshakes, credit adjustments, pipeline restarts) is driven by
the network, which has the global view a real design distributes across
controllers.
"""

from __future__ import annotations

from bisect import insort
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..config import SimConfig
from ..trace.events import EventKind
from .arbiter import AllocatorPool, RoundRobinArbiter
from .buffer import CREDIT_UNDERFLOW, InputPort, VCState, VirtualChannel
from .flit import Flit
from .topology import LOCAL, NUM_PORTS, Mesh

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .network import Network

#: Cycles a head flit waits in VA before it also starts requesting escape
#: VCs (Duato's protocol guarantees deadlock freedom because blocked
#: packets can always fall back to the escape sub-network).
ESCAPE_PATIENCE = 8


class Router:
    """One mesh router: 5 input ports x V VCs, separable VA/SA.

    The input side (VC buffers and their pipeline state) is this
    object's; the output side - credits, VC owners, gating/failure tags,
    the ports an NI bypass move claimed this cycle - and the event
    counters are the network's flat lists (``Network._build_ports``),
    indexed by ``o = node * NUM_PORTS + port`` and ``c = o * V + vc``.
    """

    def __init__(self, node: int, cfg: SimConfig, mesh: Mesh,
                 network: "Network") -> None:
        self.node = node
        self.cfg = cfg
        self.mesh = mesh
        self.network = network
        vcs = cfg.noc.vcs_per_port
        depth = cfg.noc.buffer_depth
        self.in_ports: List[InputPort] = [
            InputPort(p, vcs, depth) for p in range(NUM_PORTS)
        ]
        self._V = vcs
        self._o0 = node * NUM_PORTS  # flat id of this router's port 0
        self._credit = network._credit
        self._owner = network._owner
        self._gated = network._gated
        self._failed = network._failed
        #: Output ports already used by NI bypass forwarding this cycle
        #: (a lingering bypass VC shares the physical port with SA).
        self._ports_used = network._ports_used[node]
        # event counters (consumed by the power model)
        self._nbw = network._nbw
        self._nva = network._nva
        self._nsa = network._nsa
        # VA: one round-robin arbiter per (output port, VC) resource.
        self._va_pool = AllocatorPool(NUM_PORTS * vcs, NUM_PORTS * vcs)
        # SA: input-first separable allocator.
        self._sa_in_arb = [RoundRobinArbiter(vcs) for _ in range(NUM_PORTS)]
        self._sa_out_arb = [RoundRobinArbiter(NUM_PORTS)
                            for _ in range(NUM_PORTS)]
        #: Per input port, ascending ids of the VCs whose state is not
        #: IDLE - the only VCs a pipeline stage can affect.  The
        #: quiescence-aware kernel passes these to the stages so a busy
        #: router only scans the VCs that hold packets; the dense
        #: reference kernel scans every VC.
        self.occupied_vcs: List[List[int]] = [[] for _ in range(NUM_PORTS)]
        self._all_vcs: List[List[int]] = [list(range(vcs))
                                          for _ in range(NUM_PORTS)]

    # ------------------------------------------------------------------
    # views used by routing functions
    # ------------------------------------------------------------------
    def port_usable(self, port: int) -> bool:
        """NoRD usability: awake neighbor, or the neighbor's Bypass Inport."""
        return self.network.port_usable(self.node, port)

    def neighbor_awake(self, port: int) -> bool:
        return self.network.neighbor_awake(self.node, port)

    def port_failed(self, port: int) -> bool:
        """Whether the downstream router on ``port`` is hard-failed."""
        return self._failed[self._o0 + port]

    # ------------------------------------------------------------------
    # datapath state
    # ------------------------------------------------------------------
    @property
    def empty(self) -> bool:
        """True when no packet holds any input VC (gating precondition).

        Flits only enter a VC through :meth:`deliver`, which leaves IDLE
        on the first flit, so "every VC is IDLE" is exactly "no fifo
        holds a flit" - tracked incrementally in ``occupied_vcs``.
        """
        return not any(self.occupied_vcs)

    def deliver(self, in_port: int, vc_id: int, flit: Flit) -> None:
        """LT completion: write an arriving flit into its input VC."""
        if flit.packet.failed:
            # Straggler of a packet already dropped at a hard-failed
            # router: discard it, return the credit, and release the
            # upstream VC on the tail so the wormhole unwinds cleanly.
            self.network.fault_discard_in_flight(self.node, in_port, vc_id,
                                                 flit)
            return
        vc = self.in_ports[in_port].vcs[vc_id]
        vc.push(flit)
        self._nbw[self.node] += 1
        trace = self.network.trace
        if trace is not None:
            trace.record(self.network.now, EventKind.BW, self.node,
                         port=in_port, vc=vc_id, pid=flit.packet.pid,
                         flit=flit.index)
        self.network.note_router_filled(self.node)
        if vc.state == VCState.IDLE:
            if not flit.is_head:
                raise RuntimeError(
                    f"router {self.node}: body flit arrived on idle VC "
                    f"({in_port},{vc_id}): wormhole ordering violated")
            vc.state = VCState.ROUTING
            insort(self.occupied_vcs[in_port], vc_id)

    # ------------------------------------------------------------------
    # pipeline stages (invoked by the network each cycle, SA -> VA -> RC)
    # ------------------------------------------------------------------
    def stage_sa(self, now: int,
                 occupied: Optional[List[List[int]]] = None) -> None:
        """Switch allocation + switch traversal launch.

        ``occupied`` narrows the scan to the given per-port VC ids
        (normally :attr:`occupied_vcs`); skipped VCs are IDLE, which no
        eligibility test accepts, so the result is identical to the
        dense default scan.
        """
        occ = self._all_vcs if occupied is None else occupied
        o0 = self._o0
        gated, credit = self._gated, self._credit
        # Input-first: each input port nominates one eligible VC.
        nominees: Optional[List[Optional[VirtualChannel]]] = None
        drops: Optional[List[Tuple[int, VirtualChannel]]] = None
        n_nominated = 0
        last_nominated = -1
        for p, port in enumerate(self.in_ports):
            vids = occ[p]
            if not vids:
                continue
            eligible = []
            for v in vids:
                vc = port.vcs[v]
                if vc.state != VCState.ACTIVE or not vc.fifo:
                    continue
                route = vc.route_port
                if route == LOCAL:
                    eligible.append(vc.vc_id)
                    continue
                o = o0 + route
                if gated[o]:
                    if self._failed[o]:
                        # Hard-failed neighbor: this wakeup will never
                        # come.  Record the packet as failed and drop it
                        # (after the scan: dropping mutates occupied_vcs).
                        if drops is None:
                            drops = []
                        drops.append((p, vc))
                        continue
                    # Conventional PG: the port is unavailable in SA; the
                    # stalled request asserts WU toward the sleeping router.
                    pkt = vc.fifo[0].packet
                    pkt.wakeup_stall_cycles += 1
                    trace = self.network.trace
                    if trace is not None:
                        trace.record(now, EventKind.WU_STALL, self.node,
                                     port=route, vc=vc.vc_id, pid=pkt.pid,
                                     flit=0)
                    self.network.wake_request(self.node, route)
                    continue
                if route in self._ports_used:
                    continue  # physical port taken by lingering bypass
                if credit[o * self._V + vc.out_vc] <= 0:
                    continue
                eligible.append(vc.vc_id)
            choice = self._sa_in_arb[p].grant_from(eligible)
            if choice is not None:
                if nominees is None:
                    nominees = [None] * NUM_PORTS
                nominees[p] = port.vcs[choice]
                n_nominated += 1
                last_nominated = p
        if drops is not None:
            for p, vc in drops:
                self._drop_failed_packet(p, vc, now)
        if nominees is None:
            return
        if n_nominated == 1:
            # One nominee means no output contention: it wins its output
            # arbitration unopposed (the grant still rotates priority).
            vc = nominees[last_nominated]
            self._sa_out_arb[vc.route_port].grant_from([last_nominated])
            self._traverse(vc, last_nominated, now)
            return
        # Output arbitration among nominated input ports.
        by_output: List[List[int]] = [[] for _ in range(NUM_PORTS)]
        for p, vc in enumerate(nominees):
            if vc is not None:
                by_output[vc.route_port].append(p)
        for out_port in range(NUM_PORTS):
            reqs = by_output[out_port]
            if not reqs:
                continue
            winner_port = self._sa_out_arb[out_port].grant_from(reqs)
            vc = nominees[winner_port]
            self._traverse(vc, winner_port, now)

    def _drop_failed_packet(self, in_port: int, vc: VirtualChannel,
                            now: int) -> None:
        """Discard a packet routed toward a hard-failed router.

        SA never grants through a failed port and a router only fails at
        a clean flit boundary, so the packet has sent no flit downstream
        (``flits_sent == 0``): the drop is entirely local.  Credits for
        the buffered flits return upstream; flits of this packet still in
        flight are discarded on arrival via :meth:`deliver`.
        """
        pkt = vc.fifo[0].packet
        pkt.failed = True
        # Release the downstream VC this packet was granted (no flit
        # crossed, so the downstream buffer never saw it).
        self._owner[self._o0 + vc.route_port][vc.out_vc] = None
        saw_tail = False
        while vc.fifo:
            flit = vc.pop()
            saw_tail = flit.is_tail
            self.network.fault_drop_buffered(self.node, in_port, vc.vc_id,
                                             flit, now)
        if saw_tail:
            self.network.release_upstream_owner(self.node, in_port, vc.vc_id)
        vc.reset_route()
        vc.state = VCState.IDLE
        self.occupied_vcs[in_port].remove(vc.vc_id)
        self.network.note_packet_killed(pkt)

    def _traverse(self, vc: VirtualChannel, in_port: int, now: int) -> None:
        """Pop the flit, cross the switch, and launch link traversal."""
        flit = vc.pop()
        # every SA grant is one buffer read and one crossbar traversal
        self._nsa[self.node] += 1
        out_port = vc.route_port
        out_vc = vc.out_vc
        trace = self.network.trace
        if trace is not None:
            trace.record(now, EventKind.SA, self.node, port=out_port,
                         vc=out_vc, pid=flit.packet.pid, flit=flit.index)
        if out_port != LOCAL:
            c = (self._o0 + out_port) * self._V + out_vc
            if self._credit[c] <= 0:
                raise RuntimeError(CREDIT_UNDERFLOW)
            self._credit[c] -= 1
        vc.flits_sent += 1
        # Return a credit for the freed buffer slot to the upstream hop.
        self.network.credit_upstream(self.node, in_port, vc.vc_id, now)
        self.network.send_flit(self.node, out_port, flit, out_vc, now)
        if flit.is_tail:
            # The packet has fully left this router: free the input VC and
            # tell the upstream hop its VC here is reusable.
            self.network.release_upstream_owner(self.node, in_port, vc.vc_id)
            if vc.fifo:
                raise RuntimeError("flits behind a tail in an allocated VC")
            vc.reset_route()
            vc.state = VCState.IDLE
            self.occupied_vcs[in_port].remove(vc.vc_id)

    def stage_va(self, now: int,
                 occupied: Optional[List[List[int]]] = None) -> None:
        """VC allocation for VCs that completed route computation."""
        occ = self._all_vcs if occupied is None else occupied
        vcs_per_port = self.cfg.noc.vcs_per_port
        escape_vcs = self.cfg.escape_vcs
        # requests is allocated lazily: most cycles no VC is in WAITING_VA.
        requests: Optional[List[List[int]]] = None
        # candidate preference per requester: list of (resource, is_escape, port)
        prefs: Dict[int, List[Tuple[int, bool, int]]] = {}
        waiting: Dict[int, VirtualChannel] = {}
        for p, port in enumerate(self.in_ports):
            for v in occ[p]:
                vc = port.vcs[v]
                if vc.state != VCState.WAITING_VA:
                    continue
                rid = p * vcs_per_port + vc.vc_id
                cands = self._va_candidates(vc, escape_vcs, vcs_per_port)
                if not cands:
                    vc.va_wait += 1
                    continue
                if requests is None:
                    requests = [[] for _ in range(NUM_PORTS * vcs_per_port)]
                waiting[rid] = vc
                prefs[rid] = cands
                for res, _, _ in cands:
                    requests[res].append(rid)
        if not waiting:
            return
        grants = self._va_pool.allocate(requests)
        # resource -> winner; a requester may win several resources and
        # takes its most-preferred one, releasing the rest this cycle.
        won: Dict[int, List[int]] = {}
        for res, rid in enumerate(grants):
            if rid is not None:
                won.setdefault(rid, []).append(res)
        for rid, resources in won.items():
            vc = waiting[rid]
            for res, is_escape, port in prefs[rid]:
                if res in resources:
                    self._commit_va(vc, res, is_escape, port)
                    break
        for rid, vc in waiting.items():
            if vc.state == VCState.WAITING_VA:
                vc.va_wait += 1

    def _va_candidates(self, vc: VirtualChannel, escape_vcs: int,
                       vcs_per_port: int) -> List[Tuple[int, bool, int]]:
        """Build the (resource, is_escape, port) request list for one VC."""
        pkt = vc.fifo[0].packet
        cands: List[Tuple[int, bool, int]] = []
        owner, o0 = self._owner, self._o0
        use_escape_only = pkt.on_escape or vc.force_escape
        if not use_escape_only:
            for port in vc.adaptive_ports:
                own = owner[o0 + port]
                lo = 0 if port == LOCAL else escape_vcs
                for v in range(lo, vcs_per_port):
                    if own[v] is None:
                        cands.append((port * vcs_per_port + v, False, port))
        if use_escape_only or vc.va_wait >= ESCAPE_PATIENCE:
            port = vc.escape_port
            if port is not None:
                own = owner[o0 + port]
                if port == LOCAL:
                    for v in range(vcs_per_port):
                        if own[v] is None:
                            cands.append((port * vcs_per_port + v, True, port))
                            break
                else:
                    ev = self.network.routing.escape_vc_for_hop(self.node, pkt)
                    if own[ev] is None:
                        cands.append((port * vcs_per_port + ev, True, port))
        return cands

    def _commit_va(self, vc: VirtualChannel, resource: int, is_escape: bool,
                   port: int) -> None:
        vcs_per_port = self.cfg.noc.vcs_per_port
        out_vc = resource % vcs_per_port
        pkt = vc.fifo[0].packet
        vc.route_port = port
        vc.out_vc = out_vc
        vc.state = VCState.ACTIVE
        vc.va_wait = 0
        vc.flits_sent = 0
        self._owner[self._o0 + port][out_vc] = pkt.pid
        self._nva[self.node] += 1
        trace = self.network.trace
        if trace is not None:
            trace.record(self.network.now, EventKind.VA, self.node,
                         port=port, vc=out_vc, pid=pkt.pid, flit=0,
                         info=1 if is_escape else 0)
        if port != LOCAL:
            routing = self.network.routing
            if is_escape and not pkt.on_escape:
                pkt.on_escape = True
            if is_escape:
                routing.note_escape_hop(self.node, pkt)
            elif not routing.is_minimal(self.node, port, pkt.dst):
                pkt.misroutes += 1

    def stage_rc(self, now: int,
                 occupied: Optional[List[List[int]]] = None) -> None:
        """Route computation for newly arrived head flits."""
        occ = self._all_vcs if occupied is None else occupied
        routing = self.network.routing
        for p, port in enumerate(self.in_ports):
            for v in occ[p]:
                vc = port.vcs[v]
                if vc.state != VCState.ROUTING:
                    continue
                head = vc.fifo[0]
                if not head.is_head:
                    raise RuntimeError("non-head flit at front of routing VC")
                pkt = head.packet
                choice = routing.route(self, pkt)
                vc.adaptive_ports = list(choice.adaptive_ports)
                vc.escape_port = choice.escape_port
                vc.force_escape = choice.force_escape
                vc.state = VCState.WAITING_VA
                vc.va_wait = 0
                trace = self.network.trace
                if trace is not None:
                    trace.record(now, EventKind.RC, self.node, port=p,
                                 vc=v, pid=pkt.pid, flit=0)
                if self.network.early_wakeup:
                    self._early_wakeup(vc, pkt)

    def _early_wakeup(self, vc: VirtualChannel, pkt) -> None:
        """Conv_PG_OPT: assert WU as soon as the output port is computed."""
        if pkt.on_escape or vc.force_escape:
            targets = [vc.escape_port]
        else:
            targets = vc.adaptive_ports[:1] or [vc.escape_port]
        for port in targets:
            if (port is not None and port != LOCAL
                    and self._gated[self._o0 + port]):
                self.network.wake_request(self.node, port)

    # ------------------------------------------------------------------
    # power-gating support
    # ------------------------------------------------------------------
    def has_commitment_to(self, out_port: int, *, early: bool) -> bool:
        """Whether any packet here is committed toward ``out_port``.

        ``early=False``: only SA-stage requests count (Conv_PG's WU).
        ``early=True``: RC-stage knowledge counts too (Conv_PG_OPT).
        """
        for port in self.in_ports:
            for vc in port.vcs:
                if vc.state == VCState.ACTIVE and vc.route_port == out_port:
                    if vc.fifo or vc.flits_sent > 0:
                        return True
                    if early:
                        return True
                elif early and vc.state == VCState.WAITING_VA:
                    first = (vc.adaptive_ports[0] if vc.adaptive_ports
                             else vc.escape_port)
                    if first == out_port:
                        return True
        return False
