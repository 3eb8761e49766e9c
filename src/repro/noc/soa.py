"""Struct-of-arrays (SoA) cycle kernel - the kernel untagged runs use.

:class:`repro.noc.network.Network` dispatches here unless ``ref`` is
pinned (see :func:`repro.noc.network.select_kernel`); ``backend="soa"``
/ ``--backend soa`` pin it.  This kernel and
the object-graph reference (:mod:`repro.noc.ref`) are siblings: each
subclasses the shared core (:mod:`repro.noc.network`) and supplies its
own input side, channels and phases.  The reference stays the readable
specification and the differential oracle: it scans every component
every cycle, so the differential checks this kernel's skipping as well
as its datapath.

Contract
--------

:class:`~repro.stats.collector.RunResult` field-identical to the
reference kernel on every configuration, and snapshot-identical (a
split run equals a straight one) - proven by
``tests/test_kernel_identity.py``, ``tests/test_backend_identity.py``,
``tests/test_fast_mode_identity.py``, ``tests/test_snapshot_restore.py``
and the ``drift`` CI job.  The metrics sampler runs on this kernel as
on the reference (its event hooks sit in code both share); the kernel
records the reference's event trace and injects a fault plan's faults
at the reference's sites, in its order.

Activity
--------

Routers sit idle 30-70% of the time (Section 3.2), and each phase
visits only the components that can make progress this cycle: routers
with occupied input buffers (``_active_routers``), NIs with queued or
latched flits (``_active_nis``) and the power-gating controllers that
are not quiescent (``_pg_active``); links and lines ride the mailboxes
described below.  The sets (:class:`~repro.noc.activity.ActiveSet`)
are kept on event edges (buffer write, latch write, packet queued,
power transition); a skipped component is provably a no-op for the
phase it is skipped in (for a controller, its own
``idle_step_is_noop`` says so), and members are visited in ascending
order.  A quiescent controller's ``cycles_off`` - like the No_PG
blanket's ``cycles_on`` - is settled when read
(:meth:`SoANetwork.settle_duty_counters`).

Layout
------

All per-VC router state lives in flat parallel lists indexed by
``f = (node * NUM_PORTS + port) * V + vc``; there are no router
objects.  The output-port state is the network's own flat boundary
(``o = node * NUM_PORTS + port``, credits at ``c = o * V + vc``, see
:meth:`Network._build_ports`), which this kernel, the reference router,
the NIs and the shared power-transition code all index directly.  There
are no link objects either: every channel is a mailbox (below).
Buffered flits are packed as ints, ``word = index << 2 | tail << 1 |
head``, carried next to their ``Packet`` (the identity of a packet -
pid, latency timestamps - stays an object; everything per-flit is a
machine word).  Network interfaces, power-gate controllers, traffic and
stats are reused unchanged.

Commit paths
------------

The router phase walks the sorted set of non-IDLE VCs (``_busy``) and
commits every uncontended arbiter round on the flat lists as exactly
the pointer writes the allocators would make: an SA input port with
one eligible VC, an SA output one nominee wants (all of them, in a
clash-free round), a VA round whose request lists are pairwise
disjoint (always, for a lone waiter).  Only a contested arbiter runs
``grant_from``, and only a clashing VA round builds the ``fpn``-long
request table for ``AllocatorPool.allocate``, in the reference visit
order.  The power-gate phase steps the shared controller FSM for
every controller that is not quiescent and re-examines only the
quiescent ones a stimulus reached, route computation is replayed from
a per-(node, dst) geometry cache, and every flit and credit send -
router traversals and NoRD's NI bypass alike - goes through per-cycle
mailboxes (see
:meth:`SoANetwork._init_mailboxes`).  Every SA winner traverses at one
site, in :meth:`SoANetwork._phase_routers`.

A per-VC field is written by the stage entering the state that reads
it (``_commit_va`` for ACTIVE, ``_rc_node`` for WAITING_VA), so a tail
resets only the state, occupancy and ``_busy``; per-VC constants are
tables built in ``_build_datapath``.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Tuple

from ..config import Design
from ..powergate.controller import PowerState
from ..routing.base import ESCAPE_PATIENCE
from ..trace.events import EventKind
from .activity import ActiveSet
from .arbiter import AllocatorPool, RoundRobinArbiter
from .buffer import CREDIT_OVERFLOW
from .flit import Flit, FlitType, Packet
from .network import INJECT_DELAY, LINK_DELAY, Network
from .topology import LOCAL, NUM_PORTS, OPPOSITE

if (LINK_DELAY, INJECT_DELAY) != (2, 1):
    # The mailbox rotation encodes the delays in the phase schedule.
    raise ImportError("the SoA kernel's mailboxes assume LINK_DELAY == 2 "
                      "and INJECT_DELAY == 1")

#: VC states (mirrors :class:`repro.noc.buffer.VCState`).
_IDLE, _ROUTING, _WAITING_VA, _ACTIVE = 0, 1, 2, 3

_link_of = itemgetter(0)  #: a flit mail entry's link id (sort key)


def _word_of(flit: Flit) -> int:
    """Pack a Flit into an int word: ``index << 2 | tail << 1 | head``."""
    return (flit.index << 2) | (flit.is_tail << 1) | flit.is_head


def _make_flit(word: int, pkt: Packet) -> Flit:
    """Rebuild a Flit object from its packed word (NI boundary only)."""
    if word & 1:
        ftype = FlitType.HEAD_TAIL if word & 2 else FlitType.HEAD
    else:
        ftype = FlitType.TAIL if word & 2 else FlitType.BODY
    return Flit(pkt, ftype, word >> 2)


class SoANetwork(Network):
    """The struct-of-arrays kernel (see the module docstring).

    Snapshot/restore needs no extra machinery: the mailboxes are plain
    attributes, so the pickled blob carries them.
    """

    backend = "soa"

    def _build_datapath(self) -> None:
        """Allocate the flat per-VC router state (the output-port state
        is the network's, from :meth:`Network._build_ports`), the
        activity sets and the mailboxes."""
        cfg = self.cfg
        mesh = self.mesh
        n = mesh.num_nodes
        v = self._V
        self._fpn = NUM_PORTS * v  # flat VC slots per node
        nf = n * NUM_PORTS * v
        no = n * NUM_PORTS
        self._depth = cfg.noc.buffer_depth
        self._escape_vcs = cfg.escape_vcs
        #: flat ids of non-IDLE VCs; the router phase walks it sorted
        self._busy: set = set()
        # -- per-VC state -------------------------------------------------
        self._st: List[int] = [_IDLE] * nf
        self._fifo: List[deque] = [deque() for _ in range(nf)]
        self._route: List[Optional[int]] = [None] * nf
        self._outvc: List[Optional[int]] = [None] * nf
        #: flat output port and credit counter granted by VA
        self._outo: List[int] = [-1] * nf
        self._outc: List[int] = [-1] * nf
        self._aports: List[List[int]] = [[] for _ in range(nf)]
        self._eport: List[Optional[int]] = [None] * nf
        self._fesc: List[bool] = [False] * nf
        self._vawait: List[int] = [0] * nf
        self._fsent: List[int] = [0] * nf
        #: WAITING_VA VCs that skip VA until an owner on a port they
        #: request is released (``_no_request`` / ``_unpark``).
        self._parked: List[bool] = [False] * nf
        #: Parked VCs per output port they request (may hold stale ids).
        self._park_on: List[List[int]] = [[] for _ in range(no)]
        self._occ_cnt: List[int] = [0] * n
        # The reference router's allocators (VA: one arbiter per output
        # VC; SA: input-first separable), so contended rounds rotate
        # exactly as the reference does.
        self._sa_in = [[RoundRobinArbiter(v) for _ in range(NUM_PORTS)]
                       for _ in range(n)]
        self._sa_out = [[RoundRobinArbiter(NUM_PORTS)
                         for _ in range(NUM_PORTS)] for _ in range(n)]
        self._va_pools = [AllocatorPool(NUM_PORTS * v, NUM_PORTS * v)
                          for _ in range(n)]
        #: Per-node neighbor tuples, precomputed for the mailbox tables
        #: and the power-gating incoming-condition check.
        self._nbrs = [tuple(mesh.neighbors(node)) for node in range(n)]
        # upstream node and output port per (node, in_port); -1 if none
        self._up_node = [-1] * no
        up_o = [-1] * no
        for node in range(n):
            for port, nbr in self._nbrs[node]:
                self._up_node[node * NUM_PORTS + port] = nbr
                up_o[node * NUM_PORTS + port] = (nbr * NUM_PORTS
                                                 + OPPOSITE[port])
        # Per-VC constants: input port, VC id, and the upstream owner
        # list and credit counter a tail or a freed slot reports to.
        self._inport = [(f // v) % NUM_PORTS for f in range(nf)]
        self._vcid = [f % v for f in range(nf)]
        self._upo = [up_o[f // v] for f in range(nf)]
        self._upc = [-1 if up < 0 else up * v + f % v
                     for f, up in enumerate(self._upo)]
        self._active_nis: ActiveSet = ActiveSet()           # node
        self._active_routers: ActiveSet = ActiveSet()       # node
        self._pg_active: ActiveSet = ActiveSet(range(n))
        #: Quiescent controllers (never in ``_pg_active`` at the same
        #: time), each mapped to the last cycle its ``cycles_off`` covers.
        self._pg_quiescent: Dict[int, int] = {}
        #: Last cycle the No_PG blanket's ``cycles_on`` cover.
        self._blanket_settled = 0
        #: The NIs the last NI phase ran, ascending: with ``_wu_now``,
        #: every node a power-gating stimulus can reach in a cycle.
        self._ni_ran: List[int] = []
        #: Nodes whose NI claimed an output port last NI phase.
        self._ni_marks: set = set()
        self._init_mailboxes()

    def _init_mailboxes(self) -> None:
        """The batched-commit mailboxes, the kernel's one channel kind:
        every link send appends to a flat per-cycle list instead of a
        per-link delay queue, and the credit/link phases drain the list
        whose entries fall due this cycle.  This removes the per-hop
        deque round-trip (tuple + append + popleft + active-set
        add/discard + sort) that dominates the per-flit cost.

        Due times are implied by the phase schedule (``LINK_DELAY == 2``
        on both channels, checked at import): a flit sent in the NI or
        router phase of cycle t enters ``_flit_box`` and is delivered in
        the link phase of t+2; a credit enters ``_credit_box`` and is
        restored in the credit phase of t+2.  An aggressive-bypass NI
        send (``fast=True``) is due at t+1, so it enters ``_flit_mid``,
        the list the link phase of t rotates to due.  One list per due
        time replays the reference's per-(link, vc) FIFO: a NI send and
        a router send cannot share a link in one cycle
        (``mark_ni_port_used`` excludes the port from that cycle's SA),
        and a fast send at t lands behind the t-1 sends it follows in
        the reference's queue.  Deliveries on different links touch
        disjoint VCs and latches, and credit returns are counter
        increments, which commute.
        """
        n = self.mesh.num_nodes
        v_per = self._V
        ring = self.ring
        #: Per out-link (flat id node*NUM_PORTS+port) delivery tables.
        self._l_dst = [-1] * (n * NUM_PORTS)
        self._l_base = [-1] * (n * NUM_PORTS)
        #: Whether the link lands on its destination's Bypass Inport
        #: (deliveries may latch into the NI instead of the router).
        self._l_ring = [False] * (n * NUM_PORTS)
        for node in range(n):
            for port, dst in self._nbrs[node]:
                lid = node * NUM_PORTS + port
                dst_port = OPPOSITE[port]
                self._l_dst[lid] = dst
                self._l_base[lid] = (dst * NUM_PORTS + dst_port) * v_per
                self._l_ring[lid] = (ring is not None
                                     and dst_port == ring.inport[dst])
        # (box, mid, due) rotate through the link phase; credits only
        # need (box, due) because the credit phase precedes the router
        # phase within a cycle.
        self._flit_box: List[tuple] = []
        self._flit_mid: List[tuple] = []
        self._flit_due: List[tuple] = []
        self._credit_box: List[int] = []
        self._credit_due: List[int] = []
        # Inject/eject lines batch the same way (delay 1 and 2): the NI
        # is the only inject sender and the router traversal the only
        # eject sender, and both phases visit nodes in ascending order,
        # so the mail lists replay the reference's sorted per-node
        # delivery order exactly (ejects feed order-sensitive latency
        # accumulation).
        self._inj_box: List[tuple] = []
        self._inj_due: List[tuple] = []
        self._ej_box: List[tuple] = []
        self._ej_mid: List[tuple] = []
        self._ej_due: List[tuple] = []
        # Lazy per-cycle set of nodes with incoming activity, for the
        # PG phase.
        self._inc_seen = -1
        self._inc_nodes: set = set()
        # Per-(node, dst) route-geometry cache: the minimal-port set and
        # the escape port are pure geometry, and the live inputs - the
        # failed/awake/usable filters and the misroute budget - are
        # re-applied per call in _rc_node.
        self._rc_cache: Dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # datapath services (word-based overrides of the Flit-based API)
    # ------------------------------------------------------------------
    def send_flit(self, node: int, out_port: int, flit: Flit, out_vc: int,
                  now: int, *, fast: bool = False) -> None:
        # NI-phase ring sends (the router phase appends to the mailboxes
        # inline): into the box, or - one cycle sooner - the mid list.
        lid = node * NUM_PORTS + out_port
        if self._l_dst[lid] < 0:
            raise RuntimeError(f"node {node} has no link on port {out_port}")
        self._last_progress = now
        (self._flit_mid if fast else self._flit_box).append(
            (lid, _word_of(flit), flit.packet, out_vc))
        self.n_link_flits += 1
        if flit.is_head:
            flit.packet.hops += 1

    def credit_upstream(self, node: int, in_port: int, vc: int,
                        now: int) -> None:
        # NI bypass ejects and forwards (the router paths inline it).
        if in_port == LOCAL:
            self._local_credit_back(node, vc)
        else:
            self._credit_box.append(
                self._upc[(node * NUM_PORTS + in_port) * self._V + vc])

    def send_inject(self, node: int, flit, out_vc: int, now: int) -> None:
        self._last_progress = now
        self._inj_box.append((node, flit, out_vc))

    def _sink_word(self, node: int, word: int, pkt: Packet,
                   now: int) -> None:
        # sink_flit for the packed representation (router eject path);
        # the Flit-based inherited sink_flit still serves the NI bypass.
        if self.trace is not None:
            self.trace.record(now, EventKind.SINK, node, -1, -1, pkt.pid,
                              word >> 2)
        self._last_progress = now
        self._livelock_ref = now
        self._outstanding -= 1
        self.stats.on_flit_ejected()
        if word & 2:
            self._sink_tail(pkt, now)

    def release_upstream_owner(self, node: int, in_port: int,
                               vc: int) -> None:
        # NI bypass ejects and forwards (the router paths inline it).
        super().release_upstream_owner(node, in_port, vc)
        if in_port != LOCAL:
            self._unpark(self._upo[(node * NUM_PORTS + in_port) * self._V
                                   + vc])

    def owner_released(self, node: int, port: int) -> None:
        self._unpark(node * NUM_PORTS + port)

    def note_ni_latched(self, node: int) -> None:
        # the NI must run until it drains
        self._active_nis.add(node)

    note_ni_queued = note_ni_latched

    def mark_ni_port_used(self, node: int, port: int) -> None:
        self._ports_used[node].add(port)
        self._ni_marks.add(node)

    def _deliver_flit(self, node: int, in_port: int, v: int,
                      flit: Flit) -> None:
        """Write an arriving flit into its input VC as a word (the link
        phase inlines this for mesh links; injections and the wake-up
        hand-over call it)."""
        if flit.packet.failed:
            self.fault_discard_flit(node, in_port, v, flit)
            return
        f = (node * NUM_PORTS + in_port) * self._V + v
        dq = self._fifo[f]
        if len(dq) >= self._depth:
            raise OverflowError(
                f"VC {v} overflow (depth {self._depth}): credit "
                "protocol violated")
        word = _word_of(flit)
        dq.append((word, flit.packet))
        self._nbw[node] += 1
        if self.trace is not None:
            self.trace.record(self.now, EventKind.BW, node, in_port, v,
                              flit.packet.pid, flit.index)
        self._active_routers.add(node)
        if self._st[f] == _IDLE:
            if not (word & 1):
                raise RuntimeError(
                    f"router {node}: body flit arrived on idle VC "
                    f"({in_port},{v}): wormhole ordering violated")
            self._st[f] = _ROUTING
            self._occ_cnt[node] += 1
            self._busy.add(f)

    def _occupancy(self, capacity: Tuple[int, ...]) -> Tuple[int, ...]:
        """The components each phase visits: the activity sets, and the
        links and lines with mail in flight at cycle start
        (``_flit_box``/``_inj_box``/``_ej_box`` are empty between
        cycles)."""
        v_per = self._V
        credit_links = {c // v_per for c in self._credit_box}
        credit_links.update(c // v_per for c in self._credit_due)
        lines = {e[0] for e in self._flit_mid}
        lines.update(e[0] for e in self._flit_due)
        lines = len(lines) + len({e[0] for e in self._inj_due})
        lines += len({e[0] for e in self._ej_mid + self._ej_due})
        router_busy = len(self._active_routers)
        # Under the No_PG blanket the PG phase visits no controller.
        pg_busy = 0 if self._no_pg_blanket else len(self._pg_active)
        return (len(credit_links), len(self._active_nis), router_busy,
                lines, pg_busy, router_busy)

    # ------------------------------------------------------------------
    # phase 2: credit delivery
    # ------------------------------------------------------------------
    def _phase_credits(self, now: int) -> None:
        # The credit returns sent two cycles ago (same increments the
        # reference's delay queues deliver now; increments commute).
        credit = self._credit
        maxc = self._maxc
        due = self._credit_due
        if self._faults is not None:
            # Credit loss, drawn in the reference's order: by link (a
            # stable sort keeps send order), one draw per lossy credit.
            v_per, link_fault = self._V, self._link_fault
            due.sort(key=lambda c: c // v_per)
            due = [c for c in due if link_fault[c // v_per] is None
                   or self._faults.filter_credits(link_fault[c // v_per],
                                                  (c,), self.stats)]
        for c in due:
            if credit[c] >= maxc[c]:
                raise RuntimeError(CREDIT_OVERFLOW)
            credit[c] += 1
        self._credit_due = self._credit_box
        self._credit_box = []

    # ------------------------------------------------------------------
    # phase 3: network interfaces
    # ------------------------------------------------------------------
    def _phase_nis(self, now: int) -> None:
        if self._ni_marks:
            for node in self._ni_marks:
                self._ports_used[node].clear()
            self._ni_marks.clear()
        active = self._active_nis
        self._ni_ran = ran = active.sorted()
        for node in ran:
            ni = self.nis[node]
            ni.process(now)
            if not ni.inject_queue and ni.latches_empty:
                # No queued or latched flit left: process() is a pure
                # no-op until inject_packet()/latch_write() re-adds us.
                active.discard(node)

    # ------------------------------------------------------------------
    # phase 4: router pipelines
    # ------------------------------------------------------------------
    def _phase_routers(self, now: int) -> None:
        # Candidate discovery is one scalar walk of the busy (non-IDLE)
        # VC set, grouped per node inline (the walk is f-ascending so
        # nodes are contiguous).  Gathering a node's candidates before
        # running its stages is exact: during the router phase no node
        # mutates another node's input-VC state or credits (cross-node
        # effects are owner releases - read live in VA - and mailbox
        # sends, delivered in later phases).  Parked VA waiters stay in
        # the walk (an owner released by a later node this cycle unparks
        # them in time, as the reference's live read would see it) but
        # are not evaluated while parked.  A node's stages run in the
        # reference's order, which the trace records: SA, whose winners
        # traverse in the loop below (the kernel's one traversal site),
        # then VA, then RC - or, pipelined, RC -> VA -> SA, then the
        # traversals.
        busy = self._busy
        if not busy:
            return
        speculative = self.cfg.noc.speculative
        fpn = self._fpn
        st_l = self._st
        fifo = self._fifo
        route_l = self._route
        outvc = self._outvc
        outo, outc = self._outo, self._outc
        inport, vcid = self._inport, self._vcid
        upo, upc = self._upo, self._upc
        fsent = self._fsent
        gated = self._gated
        credit = self._credit
        occ = self._occ_cnt
        nsa = self._nsa
        ports_used_all = self._ports_used
        sa_in_all, sa_out_all = self._sa_in, self._sa_out
        up_node = self._up_node
        nis = self.nis
        owner = self._owner
        parked = self._parked
        park_on = self._park_on
        credit_box = self._credit_box
        flit_box = self._flit_box
        # the NI phase's ring sends, already counted by send_flit
        ni_sent = len(flit_box)
        ej_box = self._ej_box
        controllers = self.controllers
        on = PowerState.ON
        wu_now = self._wu_now
        trace = self.trace
        order = sorted(busy)
        i, n = 0, len(order)
        va = rc = None  # a node's deferred VA and RC candidates
        while i < n:
            f = order[i]
            node = f // fpn
            hi = (node + 1) * fpn
            j = i + 1
            while j < n and order[j] < hi:
                j += 1
            if controllers[node].state != on:
                # The reference gathers candidates for gated/waking
                # routers too, then skips their stages; gathering is
                # side-effect-free, so not gathering is equivalent.
                i = j
                continue
            if j == i + 1 and st_l[f] == _ACTIVE:
                # The dominant round: the node's only busy VC holds an
                # allocated wormhole.  Inline the single-candidate SA
                # eligibility chain (same reads, same order as
                # _sa_node).
                i = j
                fifo_f = fifo[f]
                if not fifo_f:
                    continue
                route = route_l[f]
                if route != LOCAL:
                    o = outo[f]
                    if gated[o]:
                        if self._failed[o]:
                            self._sa_gated(f, node, now)
                            continue
                        fifo_f[0][1].wakeup_stall_cycles += 1
                        if trace is not None:
                            trace.record(now, EventKind.WU_STALL, node, route,
                                         vcid[f], fifo_f[0][1].pid, 0)
                        # inlined wake_request: a routed non-LOCAL
                        # port always has a live neighbor
                        wu_now.add(up_node[o])
                        continue
                    if route in ports_used_all[node] or credit[outc[f]] <= 0:
                        continue
                sa_in_all[node][inport[f]]._last = vcid[f]
                sa_out_all[node][route]._last = inport[f]
                won = (f,)
            elif j == i + 1:
                # Single non-ACTIVE flit: dispatch straight to its
                # stage (and the speculative ripple), skipping the
                # list build.
                i = j
                if st_l[f] == _WAITING_VA:
                    if parked[f]:
                        continue
                    act = self._va_node(now, node, [f])
                elif speculative:
                    act = self._rc_node(now, node, [f])
                    if act:
                        act = self._va_node(now, node, act)
                else:
                    self._rc_node(now, node, [f])
                    continue
                if not (act and speculative):
                    continue
                won = self._sa_node(now, node, act, None)
            else:
                sa: List[int] = []
                va = []
                rc = []
                for k in range(i, j):
                    f = order[k]
                    s = st_l[f]
                    if s == _ACTIVE:
                        if fifo[f]:
                            sa.append(f)
                    elif s == _WAITING_VA:
                        if not parked[f]:
                            va.append(f)
                    else:
                        rc.append(f)
                i = j
                # Empty stages are pure no-ops in the reference too.
                if speculative:
                    # RC -> VA -> SA ripple: merge same-cycle promotions
                    # into the later stages' candidate lists, as the
                    # reference's live occupied-VC scan would see them.
                    if rc:
                        promoted = self._rc_node(now, node, rc)
                        if promoted:
                            va = sorted(va + promoted) if va else promoted
                    activated = self._va_node(now, node, va) if va else None
                    va = rc = None  # done: the ripple ran them
                    won = self._sa_node(now, node, sa, activated)
                else:
                    won = self._sa_node(now, node, sa, None) if sa else sa
            # Traversal: pop the flit word, cross the switch, launch
            # link traversal (into the mailboxes).  A tail frees the VC
            # through its state, occupancy and busy entry alone: every
            # other per-VC field is rewritten by the stage that enters
            # the state in which it is read (``_commit_va`` for ACTIVE
            # readers, ``_rc_node`` for WAITING_VA readers).
            for f in won:
                fifo_f = fifo[f]
                word, pkt = fifo_f.popleft()
                nsa[node] += 1
                route = route_l[f]
                if trace is not None:
                    trace.record(now, EventKind.SA, node, route, outvc[f],
                                 pkt.pid, word >> 2)
                fsent[f] += 1
                p = inport[f]
                v = vcid[f]
                # credit upstream for the freed buffer slot
                if p == LOCAL:
                    self._local_credit_back(node, v)
                else:
                    credit_box.append(upc[f])
                if route == LOCAL:
                    ej_box.append((node, word, pkt, outvc[f]))
                else:
                    credit[outc[f]] -= 1  # SA saw it positive
                    flit_box.append((outo[f], word, pkt, outvc[f]))
                    if word & 1:
                        pkt.hops += 1
                if word & 2:
                    # tail: release the upstream VC allocation
                    if p == LOCAL:
                        nis[node].local_owner[v] = None
                    else:
                        o = upo[f]
                        owner[o][v] = None
                        if park_on[o]:
                            self._unpark(o)
                    if fifo_f:
                        raise RuntimeError(
                            "flits behind a tail in an allocated VC")
                    st_l[f] = _IDLE
                    occ[node] -= 1
                    busy.discard(f)
            if va:
                self._va_node(now, node, va)
                va = None
            if rc:
                self._rc_node(now, node, rc)
                rc = None
        # Traversals only append to these mail lists (the eject box is
        # empty when the phase starts), so progress and the link-flit
        # count settle here.
        sent = len(flit_box) - ni_sent
        if sent or ej_box:
            self._last_progress = now
            self.n_link_flits += sent

    def _sa_node(self, now: int, node: int, cand: List[int],
                 extra: Optional[List[int]]) -> List[int]:
        """Switch allocation for one node (reference ``stage_sa`` on
        flat state); returns the winners, which :meth:`_phase_routers`
        traverses.  The input stage is here, the output stage in
        :meth:`_sa_outputs`.  An input port with one eligible VC commits
        as a pointer write (``grant_from([x])`` is exactly ``_last =
        x``); only a port with several calls its arbiter.  Entries
        failing only the credit check are dropped - the reference's
        silent ``continue`` - while gated ports go to :meth:`_sa_gated`."""
        if extra:
            # extra (freshly ACTIVE VCs, disjoint from cand) arrives in
            # VA-grant order: re-sort it into the port visit order too.
            if cand:
                cand = sorted(cand + extra)
            else:
                cand = extra if len(extra) == 1 else sorted(extra)
        if not cand:
            return cand
        route_l = self._route
        inport = self._inport
        vcid = self._vcid
        if len(cand) == 1:
            # The overwhelmingly common round: one flit at the node.
            # Its port arbiter sees a single request (pointer write),
            # it is the only output nominee (pointer write), and the
            # eligibility chain below is the reference's, verbatim.
            f = cand[0]
            route = route_l[f]
            if route != LOCAL:
                if self._gated[self._outo[f]]:
                    self._sa_gated(f, node, now)
                    return []
                if route in self._ports_used[node]:
                    return []
                if self._credit[self._outc[f]] <= 0:
                    return []
            p = inport[f]
            self._sa_in[node][p]._last = vcid[f]
            self._sa_out[node][route]._last = p
            return cand
        gated = self._gated
        credit = self._credit
        outo, outc = self._outo, self._outc
        ports_used = self._ports_used[node]
        v_per = self._V
        base_f = node * self._fpn
        sa_in = self._sa_in[node]
        noms: List[int] = []
        # cand is f-ascending, so input ports appear in ascending runs
        idx, n_cand = 0, len(cand)
        while idx < n_cand:
            p = inport[cand[idx]]
            run_hi = base_f + (p + 1) * v_per
            first = -1  # the port's first eligible VC
            more: Optional[List[int]] = None  # its VC ids, once two
            while idx < n_cand and cand[idx] < run_hi:
                f = cand[idx]
                idx += 1
                route = route_l[f]
                if route != LOCAL:
                    if gated[outo[f]]:
                        self._sa_gated(f, node, now)
                        continue
                    if route in ports_used or credit[outc[f]] <= 0:
                        continue
                if first < 0:
                    first = f
                elif more is None:
                    more = [vcid[first], vcid[f]]
                else:
                    more.append(vcid[f])
            if first < 0:
                continue
            if more is None:
                sa_in[p]._last = vcid[first]
                noms.append(first)
            else:
                noms.append(first - vcid[first]
                            + sa_in[p].grant_from(more))
        if len(noms) == 1:
            f = noms[0]
            self._sa_out[node][route_l[f]]._last = inport[f]
            return noms
        return self._sa_outputs(node, noms, now) if noms else noms

    def _sa_outputs(self, node: int, noms: List[int],
                    now: int) -> List[int]:
        """SA output stage for two or more nominees (one per input
        port, port-ascending); returns the winners, output-ascending.
        Outputs are visited in ascending order, as the reference does;
        an output one port wants - every output, in a clash-free round
        - commits as a pointer write, and only an output several ports
        want builds a request list and calls its arbiter."""
        route_l = self._route
        inport = self._inport
        sa_out = self._sa_out[node]
        # stable, so an output's requesters stay in input-port order
        noms.sort(key=route_l.__getitem__)
        won: List[int] = []
        k, n = 0, len(noms)
        while k < n:
            f = noms[k]
            route = route_l[f]
            hi = k + 1
            while hi < n and route_l[noms[hi]] == route:
                hi += 1
            if hi == k + 1:
                sa_out[route]._last = inport[f]
            else:
                ports = [inport[g] for g in noms[k:hi]]
                f = noms[k + ports.index(sa_out[route].grant_from(ports))]
            won.append(f)
            k = hi
        return won

    def _sa_gated(self, f: int, node: int, now: int) -> None:
        """SA at a gated output port (``Router.stage_sa``): the packet
        stalls and asserts WU, or, if the router behind is hard-failed,
        is dropped whole (``Router._drop_failed_packet``; no other
        candidate's eligibility changes, so the drop need not wait)."""
        o = self._outo[f]
        fifo_f = self._fifo[f]
        pkt = fifo_f[0][1]
        if not self._failed[o]:
            pkt.wakeup_stall_cycles += 1
            if self.trace is not None:
                self.trace.record(now, EventKind.WU_STALL, node,
                                  self._route[f], self._vcid[f], pkt.pid, 0)
            # inlined wake_request: a routed port always has a neighbor
            self._wu_now.add(self._up_node[o])
            return
        pkt.failed = True
        self._owner[o][self._outvc[f]] = None
        self._unpark(o)
        while fifo_f:
            word, _ = fifo_f.popleft()
            self.fault_discard_flit(node, self._inport[f], self._vcid[f],
                                    _make_flit(word, pkt))
        self._reset_route(f, node)
        self._faults.on_packet_killed(self, pkt)

    def _reset_route(self, f: int, node: int) -> None:
        """Reference VirtualChannel.reset_route on flat state.  As at a
        tail, other per-VC fields need no reset but the parked flag,
        which ``_rc_node`` does not clear."""
        if self._fifo[f]:
            self._st[f] = _ROUTING
        else:
            if self._st[f] != _IDLE:
                self._occ_cnt[node] -= 1
                self._busy.discard(f)
            self._st[f] = _IDLE
        self._parked[f] = False

    def _no_request(self, node: int, f: int) -> None:
        """Waiter ``f`` found no free output VC: it waits, and parks
        once its request list can no longer grow (escape-only, or past
        the escape patience).  Only a release of an owner on a port it
        requests can then change the list, and ``_unpark`` brings it
        back into VA.  A skipped evaluation would only have incremented
        ``va_wait``, whose one reader (the patience test) is settled."""
        wait = self._vawait[f]
        self._vawait[f] = wait + 1
        escape_only = self._fifo[f][0][1].on_escape or self._fesc[f]
        if not (escape_only or wait >= ESCAPE_PATIENCE):
            return
        self._parked[f] = True
        base_o = node * NUM_PORTS
        park_on = self._park_on
        if not escape_only:
            for port in self._aports[f]:
                park_on[base_o + port].append(f)
        if self._eport[f] is not None:
            park_on[base_o + self._eport[f]].append(f)

    def _unpark(self, o: int) -> None:
        """An owner on output port ``o`` was released: every waiter
        parked on it runs VA again (an extra unpark costs one
        evaluation; a missing one would change results)."""
        parked = self._parked
        for f in self._park_on[o]:
            parked[f] = False
        self._park_on[o] = []

    def _va_node(self, now: int, node: int, cand: List[int]) -> List[int]:
        """VC allocation for one node; returns the flat ids that went
        ACTIVE (merged into SA under the speculative pipeline).  Every
        request list is built before any grant, as in the reference.
        When the lists are pairwise disjoint - always, for a lone
        waiter - each arbiter sees one requester, and
        :meth:`_va_grant_all` commits the round as pointer writes; a
        clashing round replays the reference allocator
        (:meth:`_va_allocate`)."""
        st = self._st
        waiting: List[tuple] = []
        for f in cand:
            if st[f] != _WAITING_VA:
                continue
            cands = self._va_candidates(node, f)
            if cands:
                waiting.append((f, cands))
            else:
                # adds no request, so the round is the same without it
                self._no_request(node, f)
        if not waiting:
            return []
        if len(waiting) > 1:
            seen = 0
            for _, cands in waiting:
                mask = 0
                for res, _, _ in cands:
                    mask |= 1 << res
                if seen & mask:
                    return self._va_allocate(node, waiting)
                seen |= mask
        return self._va_grant_all(node, waiting)

    def _va_grant_all(self, node: int, waiting: List[tuple]) -> List[int]:
        """A VA round no two waiters contest: each wins every output VC
        it requests (moving those arbiters' pointers to it, exactly as
        ``AllocatorPool.allocate`` would) and takes its first
        preference, in the reference's order (by lowest output VC)."""
        base_f = node * self._fpn
        arbiters = self._va_pools[node].arbiters
        if len(waiting) > 1:
            waiting.sort(key=lambda w: min(w[1]))
        activated: List[int] = []
        for f, cands in waiting:
            rid = f - base_f
            for res, _, _ in cands:
                arbiters[res]._last = rid
            res, is_escape, port = cands[0]
            self._commit_va(node, f, res, is_escape, port)
            activated.append(f)
        return activated

    def _va_allocate(self, node: int, waiting: List[tuple]) -> List[int]:
        """A clashing VA round: the reference allocator, verbatim."""
        base_f = node * self._fpn
        requests: List[List[int]] = [[] for _ in range(self._fpn)]
        prefs: Dict[int, list] = {}
        for f, cands in waiting:
            rid = f - base_f
            prefs[rid] = cands
            for res, _, _ in cands:
                requests[res].append(rid)
        grants = self._va_pools[node].allocate(requests)
        won: Dict[int, List[int]] = {}
        for res, rid in enumerate(grants):
            if rid is not None:
                won.setdefault(rid, []).append(res)
        activated: List[int] = []
        for rid, resources in won.items():
            f = base_f + rid
            for res, is_escape, port in prefs[rid]:
                if res in resources:
                    self._commit_va(node, f, res, is_escape, port)
                    activated.append(f)
                    break
        for f, _ in waiting:
            if self._st[f] == _WAITING_VA:
                self._vawait[f] += 1
        return activated

    def _va_candidates(self, node: int, f: int) -> list:
        """(resource, is_escape, port) request list (reference order)."""
        pkt = self._fifo[f][0][1]
        cands = []
        v_per = self._V
        owner = self._owner
        base_o = node * NUM_PORTS
        use_escape_only = pkt.on_escape or self._fesc[f]
        if not use_escape_only:
            for port in self._aports[f]:
                own = owner[base_o + port]
                lo = 0 if port == LOCAL else self._escape_vcs
                for v2 in range(lo, v_per):
                    if own[v2] is None:
                        cands.append((port * v_per + v2, False, port))
        if use_escape_only or self._vawait[f] >= ESCAPE_PATIENCE:
            port = self._eport[f]
            if port is not None:
                own = owner[base_o + port]
                if port == LOCAL:
                    for v2 in range(v_per):
                        if own[v2] is None:
                            cands.append((port * v_per + v2, True, port))
                            break
                else:
                    ev = self.routing.escape_vc_for_hop(node, pkt)
                    if own[ev] is None:
                        cands.append((port * v_per + ev, True, port))
        return cands

    def _commit_va(self, node: int, f: int, resource: int, is_escape: bool,
                   port: int) -> None:
        """Enter ACTIVE, writing every per-VC field ACTIVE readers use."""
        out_vc = resource % self._V
        pkt = self._fifo[f][0][1]
        o = node * NUM_PORTS + port
        self._route[f] = port
        self._outvc[f] = out_vc
        self._outo[f] = o
        self._outc[f] = node * self._fpn + resource
        self._st[f] = _ACTIVE
        self._fsent[f] = 0
        self._owner[o][out_vc] = pkt.pid
        self._nva[node] += 1
        if self.trace is not None:
            self.trace.record(self.now, EventKind.VA, node, port, out_vc,
                              pkt.pid, 0, 1 if is_escape else 0)
        if port != LOCAL:
            routing = self.routing
            if is_escape and not pkt.on_escape:
                pkt.on_escape = True
            if is_escape:
                routing.note_escape_hop(node, pkt)
            elif not routing.is_minimal(node, port, pkt.dst):
                pkt.misroutes += 1

    def _rc_node(self, now: int, node: int, cand: List[int]) -> List[int]:
        """Route computation; returns the flat ids promoted to
        WAITING_VA (merged into VA under the speculative pipeline).

        Both routing functions are replayed from the per-(node, dst)
        geometry cache.  ``AdaptiveXYEscape`` (conventional designs):
        minimal ports and the XY escape port are pure, ``force_escape``
        is always False, and the awake-preference filter - the only
        live input - is re-applied here against controller state.
        ``NoRDRouting``: the usable filter (awake neighbor, or the
        neighbor's Bypass Inport) and the misroute budget are the live
        inputs.  Either way the choice is exactly the reference's.  The
        cached minimal list is shared (``_aports`` entries are only ever
        rebound, never mutated)."""
        promoted: List[int] = []
        num_nodes = self.mesh.num_nodes
        cache = self._rc_cache
        mesh = self.mesh
        controllers = self.controllers
        on = PowerState.ON
        up_node = self._up_node
        base_o = node * NUM_PORTS
        failed = self._failed if self._faults is not None else None
        ring = self.ring
        if ring is not None:
            cap = self.routing.misroute_cap
            hop_cap = 4 * num_nodes
        for f in cand:
            if self._st[f] != _ROUTING:
                continue
            word, pkt = self._fifo[f][0]
            if not (word & 1):
                raise RuntimeError("non-head flit at front of routing VC")
            dst = pkt.dst
            if ring is None:
                key = node * num_nodes + dst
                entry = cache.get(key)
                if entry is None:
                    entry = (mesh.minimal_ports(node, dst),
                             mesh.xy_port(node, dst))
                    cache[key] = entry
                minimal, eport = entry
                if failed is not None:
                    # route around hard-failed neighbours, if possible
                    alive = [p for p in minimal if not failed[base_o + p]]
                    if alive:
                        minimal = alive
                awake = [p for p in minimal
                         if p == LOCAL
                         or controllers[up_node[base_o + p]].state == on]
                self._aports[f] = awake if awake else list(minimal)
                self._eport[f] = eport
                self._fesc[f] = False
            elif node == dst:
                self._aports[f] = [LOCAL]
                self._eport[f] = LOCAL
                self._fesc[f] = False
            else:
                key = node * num_nodes + dst
                entry = cache.get(key)
                if entry is None:
                    entry = (mesh.minimal_ports(node, dst),
                             ring.outport[node])
                    cache[key] = entry
                minimal, ring_port = entry
                succ = ring.successor[node]
                usable = []
                for p in minimal:
                    nbr = up_node[base_o + p]
                    if controllers[nbr].state == on or succ == nbr:
                        usable.append(p)
                self._aports[f] = usable if usable else [ring_port]
                self._eport[f] = ring_port
                self._fesc[f] = (pkt.misroutes >= cap
                                 or pkt.hops >= hop_cap)
            self._st[f] = _WAITING_VA
            self._vawait[f] = 0
            if self.trace is not None:
                self.trace.record(now, EventKind.RC, node, self._inport[f],
                                  self._vcid[f], pkt.pid, 0)
            if self.early_wakeup:
                if pkt.on_escape or self._fesc[f]:
                    targets = [self._eport[f]]
                else:
                    targets = self._aports[f][:1] or [self._eport[f]]
                for port in targets:
                    if (port is not None and port != LOCAL
                            and self._gated[node * NUM_PORTS + port]):
                        self.wake_request(node, port)
            promoted.append(f)
        return promoted

    # ------------------------------------------------------------------
    # phase 5: flit delivery, the due mail drained with the buffer
    # writes inlined (one loop, no per-word call chain)
    # ------------------------------------------------------------------
    def _phase_links(self, now: int) -> None:
        controllers = self.controllers
        on = PowerState.ON
        nis = self.nis
        fifo = self._fifo
        depth = self._depth
        st = self._st
        nbw = self._nbw
        occ = self._occ_cnt
        busy = self._busy
        active_routers = self._active_routers
        trace = self.trace
        # Flits due now (router and NI ring sends of two cycles ago,
        # aggressive-bypass sends of the last), in link order.
        due = self._flit_due
        if due:
            due.sort(key=_link_of)
            if self._faults is not None:
                due = self._fault_arrivals(due)
            l_dst = self._l_dst
            l_base = self._l_base
            l_ring = self._l_ring
            for lid, word, pkt, vc in due:
                dst = l_dst[lid]
                router_on = controllers[dst].state == on
                if l_ring[lid] and (not router_on
                                    or vc in nis[dst].lingering):
                    nis[dst].latch_write(vc, _make_flit(word, pkt))
                    continue
                if not router_on:
                    raise RuntimeError(
                        f"flit delivered to off router {dst} port "
                        f"{OPPOSITE[lid % NUM_PORTS]}: power-gating "
                        "handshake violated")
                f = l_base[lid] + vc
                dq = fifo[f]
                if len(dq) >= depth:
                    raise OverflowError(
                        f"VC {vc} overflow (depth {depth}): credit "
                        "protocol violated")
                dq.append((word, pkt))
                nbw[dst] += 1
                if trace is not None:
                    trace.record(now, EventKind.BW, dst,
                                 OPPOSITE[lid % NUM_PORTS], vc, pkt.pid,
                                 word >> 2)
                active_routers.add(dst)
                if st[f] == _IDLE:
                    if not (word & 1):
                        raise RuntimeError(
                            f"router {dst}: body flit arrived on idle "
                            f"VC ({OPPOSITE[lid % NUM_PORTS]},{vc}): "
                            "wormhole ordering violated")
                    st[f] = _ROUTING
                    occ[dst] += 1
                    busy.add(f)
        self._flit_due = self._flit_mid
        self._flit_mid = self._flit_box
        self._flit_box = []
        # Batched injections: the NI is the only inject sender and it
        # runs before the link phase, so the (due) list replays the NI
        # phase's ascending-node send order - the reference's sorted
        # per-node delivery order.
        for node, flit, vc in self._inj_due:
            if controllers[node].state != on:
                raise RuntimeError(
                    f"injected flit delivered to off router {node}")
            self._deliver_flit(node, LOCAL, vc, flit)
        self._inj_due = self._inj_box
        self._inj_box = []
        # Batched ejections: the router traversal is the only eject
        # sender (the NI ring paths never target LOCAL), at most one
        # per node per cycle, appended in the scan's ascending node
        # order - so the (due) list is exactly the reference's sorted
        # delivery order, and the order-sensitive latency accumulation
        # in _sink_word stays byte-identical.
        due_ej = self._ej_due
        if due_ej:
            owner = self._owner
            park_on = self._park_on
            for node, word, pkt, vc in due_ej:
                nis[node].n_ejected_flits += 1
                if word & 2:
                    o = node * NUM_PORTS + LOCAL
                    owner[o][vc] = None
                    if park_on[o]:
                        self._unpark(o)
                self._sink_word(node, word, pkt, now)
        self._ej_due = self._ej_mid
        self._ej_mid = self._ej_box
        self._ej_box = []

    def _fault_arrivals(self, due: List[tuple]) -> List[tuple]:
        """The reference's link-delivery fault sites on the sorted due
        list: corrupt/drop draws, then failed packets' stragglers."""
        link_fault = self._link_fault
        kept = []
        for entry in due:
            lid, word, pkt, vc = entry
            if link_fault[lid] is not None:
                self._faults.strike_flits(link_fault[lid], (pkt,),
                                          self.stats)
            if pkt.failed:
                self.fault_discard_flit(
                    self._l_dst[lid], OPPOSITE[lid % NUM_PORTS], vc,
                    _make_flit(word, pkt))
            else:
                kept.append(entry)
        return kept

    # ------------------------------------------------------------------
    # phase 6: power gating - the shared controller step for the active
    # controllers; one whose idle step is a no-op leaves the active set
    # (quiescent), its ``cycles_off`` - like the No_PG blanket's
    # ``cycles_on`` - settled when read
    # ------------------------------------------------------------------
    @property
    def _no_pg_blanket(self) -> bool:
        """No_PG normally has no per-controller PG work; with router
        failures injected even No_PG must step its controllers so a
        fail-armed one can reach its clean boundary."""
        return (self.cfg.design == Design.NO_PG
                and (self._faults is None
                     or not self._faults.has_router_failures))

    def _phase_pg(self, now: int) -> None:
        if self._no_pg_blanket:
            return  # every controller stays ON: cycles_on settle on read
        quiescent = self._pg_quiescent
        active = self._pg_active
        if quiescent:
            self._promote_stimulated(now)
        controllers = self.controllers
        occ = self._occ_cnt
        off = PowerState.OFF
        events: List[Tuple[int, str]] = []
        demoted: List[int] = []
        for node in active.sorted():
            ctrl = controllers[node]
            event = ctrl.step(occ[node], self)
            if event is not None:
                events.append((node, event))
            # (the predicate holds only OFF: the state test spares the
            # call for the powered-on majority)
            if ctrl.state == off and ctrl.idle_step_is_noop():
                demoted.append(node)
        for node in demoted:
            active.discard(node)
            quiescent[node] = now
        self._apply_pg_events(events, self.cfg.design)

    def settle_duty_counters(self, upto: Optional[int] = None) -> None:
        """Credit the duty that accrued without a step - each quiescent
        controller's gated cycles, or the No_PG blanket's powered ones -
        through cycle ``upto`` (default: the last completed cycle).
        Call it before reading ``cycles_on`` / ``cycles_off`` /
        ``cycles_waking`` from outside the PG phase."""
        if upto is None:
            upto = self.now
        controllers = self.controllers
        if self._no_pg_blanket:
            gap = upto - self._blanket_settled
            if gap:
                for ctrl in controllers:
                    ctrl.cycles_on += gap
                self._blanket_settled = upto
            return
        quiescent = self._pg_quiescent
        for node, since in quiescent.items():
            controllers[node].cycles_off += upto - since
            quiescent[node] = upto

    def _leave_quiescence(self, node: int, now: int) -> None:
        """A stimulus reached quiescent ``node`` in cycle ``now``: settle
        its gated cycles through ``now - 1`` (this cycle's step accrues
        ``now``) and make it active."""
        since = self._pg_quiescent.pop(node)
        self.controllers[node].cycles_off += now - 1 - since
        self._pg_active.add(node)

    def _promote_stimulated(self, now: int) -> None:
        """Re-examine the quiescent controllers a stimulus reached this
        cycle, and make active each one whose idle step stopped being a
        no-op or whose WU is asserted.  Quiescent controllers are OFF,
        and while one is quiescent only two things reach it: a WU edge
        (``_wu_now``) and its own NI - a conventional WU from a queued
        injection, a NoRD VC request filling the window - and an NI
        acts only in an NI phase that ran it (``_ni_ran``)."""
        quiescent = self._pg_quiescent
        controllers = self.controllers
        for stimulated in (self._wu_now, self._ni_ran):
            for node in stimulated:
                if node in quiescent:
                    ctrl = controllers[node]
                    if (not ctrl.idle_step_is_noop()
                            or ctrl.wakeup_asserted(self)):
                        self._leave_quiescence(node, now)

    def _incoming_nodes(self, now: int) -> set:
        """Per-cycle set of nodes with incoming activity, for the PG
        phase: every send in flight sits in a mail (box, mid, due) list,
        and each entry maps to the node whose reference IC condition it
        satisfies - a flit or credit entry to the destination of its
        link (the reference checks both channels of a node's in-links),
        inject/eject entries to their own node."""
        if self._inc_seen != now:
            self._inc_seen = now
            l_dst = self._l_dst
            nodes = {e[0] for e in self._inj_due}
            nodes.update(e[0] for e in self._ej_mid)
            nodes.update(e[0] for e in self._ej_due)
            nodes.update(l_dst[e[0]] for e in self._flit_due)
            nodes.update(l_dst[e[0]] for e in self._flit_mid)
            v_per = self._V
            nodes.update(l_dst[c // v_per] for c in self._credit_box)
            nodes.update(l_dst[c // v_per] for c in self._credit_due)
            self._inc_nodes = nodes
        return self._inc_nodes

    def incoming_condition(self, node: int) -> bool:
        """The reference IC condition, answered from the per-cycle
        incoming-node set plus the design-specific parts (a neighbor
        with an empty datapath - occupancy 0 - cannot hold a
        commitment)."""
        if node in self._incoming_nodes(self.now):
            return True
        design = self.cfg.design
        if design == Design.NORD:
            return self.injecting_through_router(node)
        early = design == Design.CONV_PG_OPT
        occ = self._occ_cnt
        for port, nbr in self._nbrs[node]:
            if occ[nbr] and self._has_commitment_to(nbr, OPPOSITE[port],
                                                    early):
                return True
        return False

    # ------------------------------------------------------------------
    # power-gating support (flat implementations of the router hooks)
    # ------------------------------------------------------------------
    def _reset_vcs_routed_to(self, node: int, out_port: int) -> None:
        v_per = self._V
        base_f = node * self._fpn
        st = self._st
        for p in range(NUM_PORTS):
            for v in range(v_per):
                f = base_f + p * v_per + v
                s = st[f]
                if s == _WAITING_VA:
                    if (out_port in self._aports[f]
                            or self._eport[f] == out_port):
                        self._reset_route(f, node)
                elif (s == _ACTIVE and self._route[f] == out_port
                        and self._fsent[f] == 0):
                    o = node * NUM_PORTS + out_port
                    self._owner[o][self._outvc[f]] = None
                    self._unpark(o)
                    self._reset_route(f, node)

    def _has_commitment_to(self, node: int, out_port: int,
                           early: bool) -> bool:
        v_per = self._V
        base_f = node * self._fpn
        st = self._st
        for p in range(NUM_PORTS):
            for v in range(v_per):
                f = base_f + p * v_per + v
                s = st[f]
                if s == _ACTIVE and self._route[f] == out_port:
                    if self._fifo[f] or self._fsent[f] > 0:
                        return True
                    if early:
                        return True
                elif early and s == _WAITING_VA:
                    first = (self._aports[f][0] if self._aports[f]
                             else self._eport[f])
                    if first == out_port:
                        return True
        return False

    def _ring_slots_held(self, node: int, vc: int) -> int:
        """In-flight flits and credit returns sit in the mail (box, mid,
        due) lists."""
        ring = self.ring
        pred = ring.predecessor[node]
        lid = pred * NUM_PORTS + ring.outport[pred]
        c = lid * self._V + vc
        return (sum(1 for box in (self._flit_box, self._flit_mid,
                                  self._flit_due)
                    for e in box if e[0] == lid and e[3] == vc)
                + self._credit_box.count(c) + self._credit_due.count(c)
                + len(self._fifo[(node * NUM_PORTS + ring.inport[node])
                                 * self._V + vc]))

    # ------------------------------------------------------------------
    # phase 7: statistics (read the occupancy counter directly)
    # ------------------------------------------------------------------
    def _phase_stats(self, now: int) -> None:
        # Per-node edge accounting commutes across nodes and the run
        # summaries serialize dicts with sort_keys, so no sorted()
        # snapshot is taken.
        active = self._active_routers
        occ = self._occ_cnt
        stats = self.stats
        state = self._idle_state
        if stats.measuring:
            for node in list(active):
                idle = not occ[node]
                if idle != state[node]:
                    state[node] = idle
                    if idle:
                        stats.note_idle(node, now)
                    else:
                        stats.note_busy(node, now)
                if idle:
                    active.discard(node)
        else:
            for node in list(active):
                if not occ[node]:
                    active.discard(node)
                    state[node] = True
                    stats.note_idle(node, now)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def buffered_vcs(self, node: int) -> Iterator[Tuple[int, int, int]]:
        v_per = self._V
        base_f = node * self._fpn
        for p in range(NUM_PORTS):
            for v in range(v_per):
                n_flits = len(self._fifo[base_f + p * v_per + v])
                if n_flits:
                    yield p, v, n_flits
