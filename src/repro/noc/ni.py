"""Network interface (NI) with NoRD's decoupling-bypass datapath.

The NI does three jobs (Section 4.2, Figure 4(c)):

* **Injection** - packetize node traffic, allocate a VC (in the router's
  LOCAL input port when the router is on; in the ring successor's input
  port through the Bypass Outport when the router is off) and inject one
  flit per cycle.
* **Ejection** - sink flits delivered by the router (or, when the router is
  off, directly from the bypass latch).
* **Bypass forwarding** - when the router is gated off, flits arriving on
  the Bypass Inport are written into per-VC bypass latches (stage 1); the
  NI examines the destination and either ejects the flit or allocates a VC
  at the ring successor (stage 2, this is the *VC request* counted by the
  NoRD wakeup metric); the flit is then re-injected through the Bypass
  Outport (stage 3 + LT), for a 3-cycle hop through an off router.

The injection path and the forwarding path share the NI's output
multiplexer (one flit per cycle); the local node is granted priority if
starved for ``ni_starvation_limit`` consecutive cycles (Section 4.2).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Set

from ..config import Design, SimConfig
from ..powergate.controller import PowerState
from ..routing.base import ESCAPE_PATIENCE
from ..trace.events import EventKind
from .arbiter import RoundRobinArbiter
from .buffer import CREDIT_UNDERFLOW
from .flit import Flit, Packet
from .topology import NUM_PORTS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .network import Network


class NetworkInterface:
    """One node's NI: injection + ejection + NoRD bypass forwarding."""

    def __init__(self, node: int, cfg: SimConfig, network: "Network") -> None:
        self.node = node
        self.cfg = cfg
        self.network = network
        vcs = cfg.noc.vcs_per_port
        self._vcs = vcs
        self._escape_vcs = cfg.escape_vcs
        # -- injection --------------------------------------------------
        self.inject_queue: Deque[Flit] = deque()
        #: Path of the packet currently being injected: "router" or "ring".
        self.inj_path: Optional[str] = None
        self.inj_out_vc: Optional[int] = None
        self.inj_sent = 0
        self.inj_wait = 0
        self.inj_starve = 0
        #: Free slots and owning packet id of each VC of the router's
        #: LOCAL input port.
        self.local_credit: List[int] = [cfg.noc.buffer_depth] * vcs
        self.local_owner: List[Optional[int]] = [None] * vcs
        # -- bypass (NoRD) ----------------------------------------------
        #: Per-VC bypass buffering (``bypass_depth`` flits): the NI bypass
        #: latch, the NI forwarding stage and the router's non-gated output
        #: buffer (Figure 4(b)(c) - each bypass pipeline stage holds a flit).
        self.latch: List[Deque[Flit]] = [deque() for _ in range(vcs)]
        self._latch_depth = cfg.pg.bypass_depth
        #: Flits held over all latch VCs (``latch_write`` / ``latch_pop``
        #: are the only ways in and out).
        self._latched = 0
        #: Per-node constants of the bypass datapath (NoRD only): the
        #: Bypass Inport id, the router output port the Bypass Outport
        #: drives, that port's VC owner list and the flat index of its
        #: first credit in the network's credit list; and this node's
        #: power-gate controller.
        ring = network.ring
        self._ring_in = self._ring_out = self._ring_owner = None
        self._credit = network._credit
        self._ring_c = -1
        if ring is not None:
            self._ring_in = ring.inport[node]
            self._ring_out = ring.outport[node]
            o = node * NUM_PORTS + self._ring_out
            self._ring_owner = network._owner[o]
            self._ring_c = o * vcs
        self._ctrl = network.controllers[node]
        #: in_vc -> out_vc at the ring successor for mid-packet forwarding.
        self.bypass_alloc: Dict[int, Optional[int]] = {}
        self.bypass_wait: Dict[int, int] = {}
        #: VCs whose latch is mid-way through *ejecting* a multi-flit packet
        #: (head sunk, tail still to come).
        self.eject_mid: Set[int] = set()
        #: VCs still forwarding/ejecting a mid-bypass packet after the
        #: router woke (bypass disabled per VC only at packet boundaries).
        self.lingering: Set[int] = set()
        self._out_arb = RoundRobinArbiter(vcs + 1)  # latch VCs + injection
        self._eject_arb = RoundRobinArbiter(vcs)
        # -- statistics ---------------------------------------------------
        self.n_injected_flits = 0
        self.n_ejected_flits = 0
        self.n_bypass_forwards = 0
        self.n_latch_writes = 0
        self.n_vc_requests = 0

    # ------------------------------------------------------------------
    # queue/latch entry points
    # ------------------------------------------------------------------
    def enqueue_packet(self, packet: Packet) -> None:
        for flit in packet.make_flits():
            self.inject_queue.append(flit)

    def latch_write(self, vc_id: int, flit: Flit) -> None:
        """Stage 1 of the bypass: LT delivers into the bypass latch."""
        if len(self.latch[vc_id]) >= self._latch_depth:
            raise RuntimeError(
                f"node {self.node}: bypass latch {vc_id} overflow")
        self.latch[vc_id].append(flit)
        self._latched += 1
        self.n_latch_writes += 1
        trace = self.network.trace
        if trace is not None:
            trace.record(self.network.now, EventKind.LATCH, self.node,
                         vc=vc_id, pid=flit.packet.pid, flit=flit.index)
        self.network.note_ni_latched(self.node)

    def latch_pop(self, vc_id: int) -> Flit:
        """Take the oldest flit of latch ``vc_id``: bypass ejection,
        forwarding and the wake-up hand-over all leave through here."""
        self._latched -= 1
        return self.latch[vc_id].popleft()

    @property
    def latches_empty(self) -> bool:
        return not self._latched

    @property
    def inject_pending(self) -> bool:
        return bool(self.inject_queue)

    # ------------------------------------------------------------------
    # per-cycle processing
    # ------------------------------------------------------------------
    def process(self, now: int) -> None:
        design = self.cfg.design
        if design == Design.NORD:
            if self._latched:  # an arbiter round with no request is a no-op
                self._process_eject_bypass(now)
            self._process_out_path(now)
        else:
            # Conventional designs: the NI can only inject when the router
            # is powered on (the disconnection problem, Section 3.4).
            if self._ctrl.state == PowerState.ON:
                self._try_inject_router(now, commit=True)
            else:
                self.inj_wait = 0

    # -- bypass ejection ------------------------------------------------
    def _process_eject_bypass(self, now: int) -> None:
        """Sink at most one latch flit destined to the local node."""
        latch = self.latch
        candidates = [v for v in range(self._vcs)
                      if latch[v] and latch[v][0].packet.dst == self.node]
        choice = self._eject_arb.grant_from(candidates)
        if choice is None:
            return
        flit = self.latch_pop(choice)
        self.network.credit_upstream(self.node, self._ring_in, choice, now)
        if flit.is_tail:
            self.network.release_upstream_owner(self.node, self._ring_in,
                                                choice)
            self.eject_mid.discard(choice)
            if choice in self.lingering:
                self.network.finish_lingering(self.node, choice)
        elif flit.is_head:
            self.eject_mid.add(choice)
        self.n_ejected_flits += 1
        self.network.sink_flit(self.node, flit, now, via_bypass=True)

    # -- shared output path (forwarding + injection) ---------------------
    def _process_out_path(self, now: int) -> None:
        # NoRD only: the bypass carries traffic while the router is OFF
        # or still WAKING (Section 4.3).
        router_on = self._ctrl.state == PowerState.ON
        bypassing = not router_on
        # Determine movable candidates.  Index 0..V-1 = latch VCs,
        # index V = local injection.
        movable: List[int] = []
        moves: Dict[int, tuple] = {}
        wanting = 0
        latch = self.latch if self._latched else ()  # scan only if needed
        for v, queue in enumerate(latch):
            if not queue:
                continue
            flit = queue[0]
            if flit.packet.dst == self.node:
                continue
            if not (bypassing or v in self.lingering):
                continue
            wanting += 1
            plan = self._plan_forward(v, flit)
            if plan is not None:
                movable.append(v)
                moves[v] = plan
        inj_plan = None
        if self.inject_queue:
            wanting += 1
            if self.inj_path == "router" or (self.inj_path is None and router_on):
                inj_plan = self._try_inject_router(now, commit=False)
            elif self.inj_path == "ring" or (self.inj_path is None and bypassing):
                inj_plan = self._plan_inject_ring()
            if inj_plan is not None:
                movable.append(self._vcs)
                moves[self._vcs] = inj_plan
        # Wakeup metric (Section 4.3): VC requests at the local NI.  Both
        # raw requests and the subset that stall this cycle (allocation,
        # credits, or the shared output mux) are reported; the controller
        # weighs them according to the router's class - performance-centric
        # routers wake early on any bypass usage, power-centric routers
        # only when the bypass demonstrably lacks capacity (stalls keep
        # counting every cycle, so the metric rises with congestion).
        if wanting > 0:
            self.n_vc_requests += wanting
            self._ctrl.note_vc_request(wanting,
                                       wanting - (1 if movable else 0))
        if not movable:
            if self.inject_queue:
                self.inj_starve += 1
                self.inj_wait += 1
            return
        # Local node gets priority if starved too long (Section 4.2).
        if (self._vcs in movable
                and self.inj_starve >= self.cfg.routing.ni_starvation_limit):
            choice = self._vcs
        else:
            choice = self._out_arb.grant_from(movable)
        if choice == self._vcs:
            self._commit_injection(moves[choice], now)
            self.inj_starve = 0
        else:
            # Aggressive bypass (Section 6.8): with no local injection and
            # no competing latch flit, the Bypass Inport connects straight
            # to the Bypass Outport and the hop completes one cycle sooner.
            fast = (self.cfg.pg.aggressive_bypass
                    and not self.inject_queue and len(movable) == 1)
            self._commit_forward(choice, moves[choice], now, fast=fast)
            if self.inject_queue:
                self.inj_starve += 1
                self.inj_wait += 1

    # -- forwarding plans -------------------------------------------------
    # Every plan, forward or injection, is one shape:
    # ``(path, out_vc, newly_allocated, went_escape)``.
    def _plan_forward(self, vc_id: int, flit: Flit) -> Optional[tuple]:
        """Check whether latch flit ``vc_id`` can move this cycle; the
        plan (path ``"ring"``) or None."""
        credit, c0 = self._credit, self._ring_c
        alloc = self.bypass_alloc.get(vc_id)
        if alloc is not None:
            if credit[c0 + alloc] > 0:
                return ("ring", alloc, False, False)
            return None
        # Head flit: allocate a VC at the ring successor (stage 2).
        owner = self._ring_owner
        pkt = flit.packet
        wait = self.bypass_wait.get(vc_id, 0)
        force = pkt.on_escape or self.network.routing.must_escape(pkt)
        if not force:
            for v in range(self._escape_vcs, self._vcs):
                if owner[v] is None and credit[c0 + v] > 0:
                    return ("ring", v, True, False)
        if force or wait >= ESCAPE_PATIENCE:
            ev = self.network.routing.escape_vc_for_hop(self.node, pkt)
            if owner[ev] is None and credit[c0 + ev] > 0:
                return ("ring", ev, True, True)
        self.bypass_wait[vc_id] = wait + 1
        return None

    def _commit_forward(self, vc_id: int, plan: tuple, now: int, *,
                        fast: bool = False) -> None:
        _, out_vc, newly_allocated, went_escape = plan
        flit = self.latch_pop(vc_id)
        ring_port = self._ring_out
        pkt = flit.packet
        if newly_allocated:
            self._ring_owner[out_vc] = pkt.pid
            self.bypass_alloc[vc_id] = out_vc
            self.bypass_wait[vc_id] = 0
            if went_escape:
                pkt.on_escape = True
            if went_escape or pkt.on_escape:
                self.network.routing.note_escape_hop(self.node, pkt)
            # A hop out of an off router's bypass is forced (no routing
            # decision is made), so it does not burn the misroute budget;
            # misroutes are only counted at powered-on routers
            # (Section 4.2).  The hop cap in the routing function bounds
            # total path length instead.
            pkt.bypass_hops += 1
        c = self._ring_c + out_vc
        if self._credit[c] <= 0:
            raise RuntimeError(CREDIT_UNDERFLOW)
        self._credit[c] -= 1
        # Free the latch slot: return the credit to the ring predecessor.
        self.network.credit_upstream(self.node, self._ring_in, vc_id, now)
        if flit.is_tail:
            self.network.release_upstream_owner(self.node, self._ring_in,
                                                vc_id)
            del self.bypass_alloc[vc_id]
            if vc_id in self.lingering:
                self.network.finish_lingering(self.node, vc_id)
        self.n_bypass_forwards += 1
        trace = self.network.trace
        if trace is not None:
            trace.record(now, EventKind.FWD, self.node, port=ring_port,
                         vc=out_vc, pid=pkt.pid, flit=flit.index,
                         info=1 if fast else 0)
        metrics = self.network.metrics
        if metrics is not None:
            metrics.on_bypass_forward(self.node)
        if self._ctrl.state == PowerState.ON:
            self.network.mark_ni_port_used(self.node, ring_port)
        self.network.send_flit(self.node, ring_port, flit, out_vc, now,
                               fast=fast)

    # -- injection plans ----------------------------------------------------
    def _try_inject_router(self, now: int, *, commit: bool) -> Optional[tuple]:
        """Plan (and optionally commit) injecting into the router's LOCAL
        input port.  Returns the plan when movable and ``commit`` is False.
        """
        if not self.inject_queue:
            return None
        flit = self.inject_queue[0]
        if self.inj_path == "router":
            out_vc = self.inj_out_vc
            if self.local_credit[out_vc] <= 0:
                return None
            plan = ("router", out_vc, False, False)
        else:
            if not flit.is_head:
                raise RuntimeError("mid-packet flit without injection path")
            self.inj_wait += 1
            out_vc = None
            for v in range(self._vcs):
                if (self.local_owner[v] is None
                        and self.local_credit[v] > 0):
                    out_vc = v
                    break
            if out_vc is None:
                return None
            plan = ("router", out_vc, True, False)
        if commit:
            self._commit_injection(plan, now)
        return plan

    def _plan_inject_ring(self) -> Optional[tuple]:
        """Plan injecting via the Bypass Outport (router off)."""
        flit = self.inject_queue[0]
        credit, c0 = self._credit, self._ring_c
        if self.inj_path == "ring":
            out_vc = self.inj_out_vc
            if credit[c0 + out_vc] > 0:
                return ("ring", out_vc, False, False)
            return None
        if not flit.is_head:
            raise RuntimeError("mid-packet flit without injection path")
        owner = self._ring_owner
        pkt = flit.packet
        force = pkt.on_escape or self.network.routing.must_escape(pkt)
        if not force:
            for v in range(self._escape_vcs, self._vcs):
                if owner[v] is None and credit[c0 + v] > 0:
                    return ("ring", v, True, False)
        if force or self.inj_wait >= ESCAPE_PATIENCE:
            ev = self.network.routing.escape_vc_for_hop(self.node, pkt)
            if owner[ev] is None and credit[c0 + ev] > 0:
                return ("ring", ev, True, True)
        self.inj_wait += 1
        return None

    def _commit_injection(self, plan: tuple, now: int) -> None:
        path, out_vc, newly_allocated, went_escape = plan
        flit = self.inject_queue.popleft()
        pkt = flit.packet
        if newly_allocated:
            self.inj_path = path
            self.inj_out_vc = out_vc
            self.inj_sent = 0
            self.inj_wait = 0
            pkt.injected_cycle = now
        if path == "router":
            if newly_allocated:
                self.local_owner[out_vc] = pkt.pid
            if self.local_credit[out_vc] <= 0:
                raise RuntimeError(CREDIT_UNDERFLOW)
            self.local_credit[out_vc] -= 1
            self.network.send_inject(self.node, flit, out_vc, now)
        else:
            ring_port = self._ring_out
            if newly_allocated:
                self._ring_owner[out_vc] = pkt.pid
                if went_escape:
                    pkt.on_escape = True
                if went_escape or pkt.on_escape:
                    self.network.routing.note_escape_hop(self.node, pkt)
                elif not self.network.routing.is_minimal(
                        self.node, ring_port, pkt.dst):
                    pkt.misroutes += 1
            c = self._ring_c + out_vc
            if self._credit[c] <= 0:
                raise RuntimeError(CREDIT_UNDERFLOW)
            self._credit[c] -= 1
            if self._ctrl.state == PowerState.ON:
                self.network.mark_ni_port_used(self.node, ring_port)
            self.network.send_flit(self.node, ring_port, flit, out_vc, now)
        trace = self.network.trace
        if trace is not None:
            trace.record(now, EventKind.INJ, self.node,
                         port=-1 if path == "router" else ring_port,
                         vc=out_vc, pid=pkt.pid, flit=flit.index,
                         info=0 if path == "router" else 1)
        metrics = self.network.metrics
        if metrics is not None:
            metrics.on_inject(self.node, path)
        self.inj_sent += 1
        self.n_injected_flits += 1
        if flit.is_tail:
            self.inj_path = None
            self.inj_out_vc = None
            self.inj_sent = 0

    # ------------------------------------------------------------------
    # power-transition support
    # ------------------------------------------------------------------
    def reset_pending_router_allocation(self) -> None:
        """The router gated off before the current packet sent any flit:
        release the LOCAL VC and let the head re-request via the ring."""
        if self.inj_path == "router" and self.inj_sent == 0:
            self.local_owner[self.inj_out_vc] = None
        if self.inj_sent == 0:
            self.inj_path = None
            self.inj_out_vc = None
            self.inj_wait = 0

    def reset_pending_ring_allocation(self) -> None:
        """Symmetric reset when the router wakes before the head went out."""
        if self.inj_path == "ring" and self.inj_sent == 0:
            self._ring_owner[self.inj_out_vc] = None
            self.network.owner_released(self.node, self._ring_out)
            self.inj_path = None
            self.inj_out_vc = None
            self.inj_wait = 0
