"""The cycle-level network simulator.

``Network`` owns every component - mesh, routers, NIs, links, power-gating
controllers, the Bypass Ring (NoRD) - and advances them one cycle at a time
in a fixed phase order that mirrors a synchronous design:

1. traffic arrivals are enqueued at the NIs,
2. credits in flight are delivered upstream,
3. NIs run (ejection, bypass forwarding, injection),
4. powered-on routers run their pipelines (SA -> VA -> RC),
5. flits in flight are delivered (link traversal completion),
6. power-gating controllers sample the PG/WU/IC conditions and transition,
7. statistics are updated.

The network also implements the global side effects of power-state
transitions (Section 4.3): tagging neighbor output ports, clamping the ring
predecessor's credits to the single bypass-latch slot, restarting upstream
pipelines from RC, and the per-VC hand-over between bypass latches and
input buffers when a router wakes up.

Those side effects act on the routers' output-port boundary, which the
network owns as flat lists (:meth:`Network._build_ports`) that both
kernels, the NIs and the transition code index directly: credits and
their limits at ``c = o * V + vc``, VC owners and the gating/failure tags
at ``o = node * NUM_PORTS + port``, plus per-node counters.  Where
shared code needs a router's input side - handing latched flits over on
wake-up (:meth:`Network._deliver_flit`), restarting pipelines routed to
a gated port (:meth:`Network._reset_vcs_routed_to`), the ring recount
(:meth:`Network._ring_slots_held`), buffer occupancy
(:meth:`Network.buffered_vcs`) - a ``Network`` method has one body per
kernel.

Quiescence-aware kernel
-----------------------

Routers sit idle 30-70% of the time (Section 3.2) - the very sparsity
power-gating exploits - so by default each phase iterates an *activity set*
(components that can make progress this cycle) instead of every component:

* routers with occupied input buffers,
* links/delay-lines with deliveries in flight,
* NIs with queued or latched flits,
* PG controllers that are ON/WAKING or have a pending wake stimulus
  (OFF controllers with no WU edge and - for NoRD - a fully-drained
  VC-request window are not stepped; their ``cycles_off`` - like the
  No_PG blanket's ``cycles_on`` - is settled when read, by
  :meth:`Network.settle_duty_counters`, and when they leave quiescence).

The sets are updated on event edges (flit launch, credit return, traffic
injection, power transitions), each skipped component is provably a no-op
for the skipped phase, and active members are visited in ascending key
order, so skipping changes nothing but the work done.  There is one scan
body per phase.  The dense mode - ``Network(cfg, skip_inactive=False)`` or
the ``REPRO_NO_SKIP=1`` environment variable, the oracle the equivalence
tests and the CI smoke-diff compare against - is "every component is
active": at the top of each cycle every node, link, line and controller is
put into its set, whatever the event hooks did or forgot, and the router
stages scan every VC instead of the occupied ones.  It is a check, not a
product path, and pays for re-arming and sorting full sets every cycle.
:mod:`repro.noc.activity` provides the ``--profile`` instrumentation.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..config import Design, SimConfig
from ..core.ring import BypassRing, build_ring
from ..errors import CreditAccountingError, DeadlockError, LivelockError
from ..faults import ALL_LINKS, FaultPlan, FaultState, LinkFault
from ..powergate.controller import (GateInputs, NoPGController,
                                    PowerGateController, PowerState,
                                    Transition)
from ..powergate.conventional import ConvPGController, ConvPGOptController
from ..powergate.nord import NoRDController
from ..routing.adaptive import AdaptiveXYEscape
from ..routing.ring_escape import NoRDRouting
from ..stats.collector import RouterActivity, RunResult, StatsCollector
from ..trace.events import EventKind
from ..trace.recorder import EventTrace
from . import activity
from .activity import ActiveSet
# Kernel selection lives in .backend (importable without this module);
# every name stays importable from here.
from .backend import (BACKENDS, _env_flag,  # noqa: F401
                      resolve_backend, select_kernel)
from .buffer import CREDIT_OVERFLOW, VCState
from .flit import Flit, Packet
from .link import DelayLine, Link
from .ni import NetworkInterface
from .router import Router
from .topology import LOCAL, NUM_PORTS, OPPOSITE, Mesh

#: ST + LT: cycles between an SA grant (or NI bypass move) and the flit
#: being written into the downstream buffer/latch.
LINK_DELAY = 2
#: NI-to-router injection wire delay.
INJECT_DELAY = 1
#: Cycles without any flit movement (while packets are outstanding) after
#: which the simulator declares a deadlock and aborts with diagnostics.
DEADLOCK_LIMIT = 5_000
#: Cycles without any flit *ejection* (while packets are outstanding and
#: flits keep moving) after which the simulator declares a livelock - the
#: signature of a misroute-cap bug: movement looks healthy but packets
#: circle on adaptive resources without converging on their destinations.
LIVELOCK_LIMIT = 20_000


#: Snapshot wire-format version.  Bump whenever the pickled ``Network``
#: object graph or the fields below change incompatibly; ``restore``
#: rejects snapshots from any other version so a stale checkpoint can
#: never silently resume against new semantics.
#: 2: the two SoA kernel classes became one (class identity in the
#:    pickled blob changed).
#: 3: the packet-id counter moved from the process into the network
#:    (the blob carries it; ``next_packet_id`` left the snapshot).
#: 4: ``ActiveSet`` became a ``set`` subclass, ``Flit`` gained
#:    ``is_head``/``is_tail`` slots, NIs carry their latched-flit count
#:    and ring/controller references, and the soa kernel its parked VA
#:    waiters.
#: 5: the ref ``VirtualChannel`` lost ``stalled_for_wakeup``; the soa
#:    kernel lost ``_stalled``/``_cred_base`` and gained its per-VC
#:    constant tables and granted output port/credit counter.
#: 6: quiescent controllers map to the cycle their ``cycles_off`` is
#:    settled through (duty counters are settled on read), the network
#:    records the NIs each NI phase ran, and the soa kernel's NI-phase
#:    ring sends and bypass credits ride its mailboxes, not the links'
#:    delay lines.
#: 7: the output-port boundary (credits, VC owners, gating/failure tags,
#:    NI-claimed ports, event counters) moved from per-router objects
#:    into network-owned flat lists; NIs hold their LOCAL-side credits
#:    and owners as two lists, and the soa kernel builds no router
#:    objects.
#: 8: ``Link`` lost its ``fault`` slot; the network holds the link faults
#:    as one flat ``_link_fault`` list, read by both kernels.
SNAPSHOT_VERSION = 8


@dataclass
class RunProgress:
    """Where a run is inside the warmup/measure/drain phase machine.

    Picklable alongside a :class:`NetworkSnapshot` so a checkpointed run
    resumes mid-phase.  ``done`` counts completed cycles of the *current*
    phase; the phase-boundary side effects (``start_measurement``, the
    counter snapshots) fire when :meth:`Network.run_segment` observes the
    phase is complete, so they run exactly once whether or not the run
    paused at that boundary.
    """

    warmup: int
    measure: int
    drain: int
    phase: str = "warmup"  # warmup | measure | drain | done
    done: int = 0
    snapshot_start: Dict = field(default_factory=dict)
    snapshot_end: Dict = field(default_factory=dict)

    @property
    def total_cycles_done(self) -> int:
        """Cycles executed so far across completed and current phases."""
        cycles = self.done
        if self.phase in ("measure", "drain", "done"):
            cycles += self.warmup
        if self.phase in ("drain", "done"):
            cycles += self.measure
        return cycles


@dataclass
class NetworkSnapshot:
    """A self-contained, versioned capture of a mid-run simulation.

    ``blob`` is the pickled ``Network`` object graph (routers, VC
    buffers, links and their delay lines, NIs, PG controller FSMs, stats
    collector, activity sets, fault state, trace/metrics observers, the
    packet-id counter).  Taking the snapshot never mutates simulation
    state.
    """

    version: int
    backend: str
    cycle: int
    blob: bytes


class Network:
    """A complete simulated NoC for one design point."""

    #: Canonical name of the kernel implementing this instance
    #: (:data:`BACKENDS`); the SoA kernel overrides it.
    backend = "ref"

    def __new__(cls, cfg=None, *args, **kwargs):
        # Kernel dispatch (:func:`select_kernel`).  Only the base class
        # dispatches - subclasses, the SoA kernel itself and unpickling
        # (no cfg) construct literally.
        if cls is Network and cfg is not None:
            if (kwargs.get("fast")
                    and resolve_backend(kwargs.get("backend")) == "ref"):
                raise ValueError(
                    "fast=True names the 'soa' kernel, but 'ref' was "
                    "requested; drop fast=True or the backend override")
            if select_kernel(kwargs.get("backend"),
                             skip_inactive=kwargs.get("skip_inactive")
                             ) == "soa":
                from .soa import SoANetwork
                return super().__new__(SoANetwork)
        return super().__new__(cls)

    def __init__(self, cfg: SimConfig, threshold_policy=None, *,
                 skip_inactive: Optional[bool] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 trace: Optional[EventTrace] = None,
                 metrics=None, backend: Optional[str] = None,
                 fast: Optional[bool] = None) -> None:
        """``fast`` is accepted and ignored (the former fast mode *is*
        the ``soa`` kernel now; ``fast=True`` with ``backend="ref"``
        still raises).  The frozen benchmark's traced pass passes
        ``fast=True``; the keyword goes when a later benchmark issue
        stops passing it."""
        if backend is not None:
            resolve_backend(backend)  # raises on unknown names
        self.cfg = cfg
        #: Event recorder (:mod:`repro.trace`), or None.  Tracing is a
        #: pure observer: every hook below is a single attribute check
        #: when disabled, and recording never mutates simulation state,
        #: so traced and untraced runs are byte-identical (asserted by
        #: tests/test_trace_identity.py and the trace-off CI diff).  Both
        #: kernels record the same stream (test_backend_identity.py).
        self.trace = trace
        #: Telemetry recorder (:class:`repro.metrics.MetricsRun`), or
        #: None.  Same pure-observer contract as the trace: one ``is
        #: None`` check per hook site when disabled, never mutates
        #: simulation state (tests/test_metrics_identity.py and the
        #: metrics-off CI diff).
        self.metrics = metrics
        self.mesh = Mesh(cfg.noc.width, cfg.noc.height)
        self.now = 0
        #: Next packet id: per network, so two networks stepped in one
        #: process number their packets independently, and part of the
        #: pickled state, so a restored run continues the sequence.
        self._next_pid = 0
        self.ring: Optional[BypassRing] = None
        if cfg.design == Design.NORD:
            self.ring = build_ring(self.mesh)
            self.routing = NoRDRouting(
                self.mesh, self.ring,
                cfg.routing.resolved_misroute_cap(cfg.noc.width,
                                                  cfg.noc.height))
        else:
            self.routing = AdaptiveXYEscape(
                self.mesh,
                cfg.routing.resolved_misroute_cap(cfg.noc.width,
                                                  cfg.noc.height))
        # Activity sets must exist before components that call back into
        # the network (Router.deliver notes buffer fills immediately).
        if skip_inactive is None:
            # REPRO_NO_SKIP requests the dense (non-skipping) scans.
            skip_inactive = not _env_flag("REPRO_NO_SKIP")
        self.skip_inactive = bool(skip_inactive)
        self._active_credit_links: ActiveSet = ActiveSet()  # (node, port)
        self._active_flit_links: ActiveSet = ActiveSet()    # (node, port)
        self._active_inject: ActiveSet = ActiveSet()        # node
        self._active_eject: ActiveSet = ActiveSet()         # node
        self._active_nis: ActiveSet = ActiveSet()           # node
        self._active_routers: ActiveSet = ActiveSet()       # node
        self._pg_active: ActiveSet = ActiveSet()            # node
        #: Quiescent controllers (never in ``_pg_active`` at the same
        #: time), each mapped to the last cycle its ``cycles_off`` covers.
        self._pg_quiescent: Dict[int, int] = {}
        #: Last cycle the No_PG blanket's ``cycles_on`` cover.
        self._blanket_settled = 0
        #: The NIs the last NI phase ran, ascending: with ``_wu_now``,
        #: every node a power-gating stimulus can reach in a cycle.
        self._ni_ran: List[int] = []
        self._ni_marks: Set[int] = set()
        self._profile = (activity.global_profile()
                         if activity.profiling_enabled() else None)
        self._build_ports()
        self._build_routers()
        if cfg.design == Design.NORD and threshold_policy is None:
            # Imported lazily: thresholds -> placement -> noc would
            # otherwise form a package import cycle.
            from ..core.thresholds import ThresholdPolicy
            threshold_policy = ThresholdPolicy(self.mesh, self.ring, cfg.pg)
        self.threshold_policy = threshold_policy
        self.controllers: List[PowerGateController] = [
            self._make_controller(node, threshold_policy)
            for node in range(self.mesh.num_nodes)
        ]
        # After the ports and controllers: each NI keeps references to
        # its ring output port's lists and to its controller.
        self.nis: List[NetworkInterface] = [
            NetworkInterface(node, cfg, self)
            for node in range(self.mesh.num_nodes)
        ]
        # Links: links_out[node][port] for the four mesh directions.
        self.links_out: List[List[Optional[Link]]] = []
        for node in range(self.mesh.num_nodes):
            row: List[Optional[Link]] = [None] * NUM_PORTS
            for port, nbr in self.mesh.neighbors(node):
                row[port] = Link(node, port, nbr, OPPOSITE[port], LINK_DELAY)
            self.links_out.append(row)
        link_keys = [(node, port)
                     for node, row in enumerate(self.links_out)
                     for port, link in enumerate(row) if link is not None]
        self._num_links = len(link_keys)
        #: Dense mode only: every (node keys, link keys) an activity set
        #: can hold, re-armed at the top of each cycle.
        self._universe = None if self.skip_inactive else (
            frozenset(range(self.mesh.num_nodes)), frozenset(link_keys))
        self.inject_lines: List[DelayLine] = [
            DelayLine(INJECT_DELAY) for _ in range(self.mesh.num_nodes)
        ]
        self.eject_lines: List[DelayLine] = [
            DelayLine(LINK_DELAY) for _ in range(self.mesh.num_nodes)
        ]
        self.stats = StatsCollector(cfg.design, self.mesh.num_nodes)
        for node in range(self.mesh.num_nodes):
            # Every router starts empty: the idle-edge tracker opens a run
            # at cycle 0 (clipped to the measurement window when recorded).
            self.stats.note_idle(node, 0)
            self._pg_active.add(node)
        #: Last idleness value delivered to the stats collector, per node.
        self._idle_state: List[bool] = [True] * self.mesh.num_nodes
        self.n_link_flits = 0
        self.early_wakeup = cfg.design == Design.CONV_PG_OPT
        self._wu_now: Set[int] = set()
        self._outstanding = 0  # flits injected but not yet sunk
        self._last_progress = 0
        #: Cycle of the last flit ejection (or outstanding-count restart);
        #: drives the livelock detector.
        self._livelock_ref = 0
        #: Stall cycles tolerated before aborting with deadlock
        #: diagnostics; tests lower it to trip the path quickly.
        self.deadlock_limit = DEADLOCK_LIMIT
        #: Ejection-free cycles tolerated (with flits still moving)
        #: before aborting with livelock diagnostics.
        self.livelock_limit = LIVELOCK_LIMIT
        # --- fault injection (repro.faults) ---
        self._faults: Optional[FaultState] = None
        if fault_plan is not None:
            self._faults = FaultState(fault_plan, self.mesh.num_nodes)
            for fault in fault_plan.link_faults:
                where = (fault.src, fault.port)  # half-wildcards are no link
                if where != (ALL_LINKS, ALL_LINKS) and where not in link_keys:
                    raise ValueError(f"link fault {where} is no mesh link")
            for node, port in link_keys:
                self._link_fault[node * NUM_PORTS + port] = \
                    self._faults.link_fault_for(node, port)
            for wf in fault_plan.wakeup_faults:
                ctrl = self.controllers[wf.node]
                ctrl.wu_ignore = wf.ignore
                ctrl.wu_delay = wf.delay
        if self.metrics is not None:
            self.metrics.attach(self)

    def _build_ports(self) -> None:
        """The output-port boundary both kernels index directly.

        Per output port ``o = node * NUM_PORTS + port``: the owner of
        each downstream VC (a packet id, or None - VA hands a VC to at
        most one packet at a time), ``_gated`` (the downstream router is
        power-gated off and the port unusable, Section 3.1 / 4.3) and
        ``_failed`` (the downstream router is hard-failed: packets routed
        there are dropped instead of stalling for a wakeup that never
        comes; always implies ``_gated``).  Per ``c = o * V + vc``: free
        downstream buffer slots and their limit (NoRD clamps the ring
        predecessor's to the bypass latch, Section 4.3).  LOCAL (ejection)
        entries are never credit-checked: the NI sinks at once.  Per
        node: the output ports an NI bypass move claimed this cycle, and
        the buffer-write, VA-grant and SA-grant counts (every SA grant is
        one buffer read and one crossbar traversal).  Per link (id ``o``
        of the port it leaves): its ``LinkFault``, or None.
        """
        n = self.mesh.num_nodes
        v = self.cfg.noc.vcs_per_port
        self._V = v
        self._credit: List[int] = [self.cfg.noc.buffer_depth] * (
            n * NUM_PORTS * v)
        self._maxc: List[int] = list(self._credit)
        self._owner: List[List[Optional[int]]] = [
            [None] * v for _ in range(n * NUM_PORTS)]
        self._gated: List[bool] = [False] * (n * NUM_PORTS)
        self._failed: List[bool] = [False] * (n * NUM_PORTS)
        self._link_fault: List[Optional[LinkFault]] = [None] * (n * NUM_PORTS)
        self._ports_used: List[Set[int]] = [set() for _ in range(n)]
        self._nbw: List[int] = [0] * n
        self._nva: List[int] = [0] * n
        self._nsa: List[int] = [0] * n

    def _build_routers(self) -> None:
        self.routers = [Router(node, self.cfg, self.mesh, self)
                        for node in range(self.mesh.num_nodes)]

    def _make_controller(self, node: int,
                         policy):
        design = self.cfg.design
        if design == Design.NO_PG:
            return NoPGController(node, self.cfg.pg)
        if design == Design.CONV_PG:
            return ConvPGController(node, self.cfg.pg)
        if design == Design.CONV_PG_OPT:
            return ConvPGOptController(node, self.cfg.pg)
        return NoRDController(
            node, self.cfg.pg, policy.threshold(node),
            performance_centric=policy.is_performance_centric(node))

    # ------------------------------------------------------------------
    # component accessors / state queries
    # ------------------------------------------------------------------
    def router_on(self, node: int) -> bool:
        return self.controllers[node].state == PowerState.ON

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
            self._active_eject.add(node)
            return
        link = self.links_out[node][out_port]
        if link is None:
            raise RuntimeError(f"node {node} has no link on port {out_port}")
        if fast:
            link.flits.send((flit, out_vc), now - 1)
        else:
            link.flits.send((flit, out_vc), now)
        self._active_flit_links.add((node, out_port))
        self.n_link_flits += 1
        if flit.is_head:
            flit.packet.hops += 1

    def send_inject(self, node: int, flit: Flit, out_vc: int,
                    now: int) -> None:
        self._last_progress = now
        self.inject_lines[node].send((flit, out_vc), now)
        self._active_inject.add(node)

    def credit_upstream(self, node: int, in_port: int, vc: int,
                        now: int) -> None:
        """A buffer/latch slot at (node, in_port, vc) was freed."""
        if in_port == LOCAL:
            self._local_credit_back(node, vc)
            return
        upstream = self.mesh.neighbor(node, in_port)
        link = self.links_out[upstream][OPPOSITE[in_port]]
        link.credits.send(vc, now)
        self._active_credit_links.add((upstream, OPPOSITE[in_port]))

    def _local_credit_back(self, node: int, vc: int) -> None:
        """A slot of ``node``'s LOCAL input VC ``vc`` was freed: its NI
        may inject one more flit there."""
        credit = self.nis[node].local_credit
        if credit[vc] >= self.cfg.noc.buffer_depth:
            raise RuntimeError(CREDIT_OVERFLOW)
        credit[vc] += 1

    def release_upstream_owner(self, node: int, in_port: int,
                               vc: int) -> None:
        """The tail left (node, in_port, vc): the upstream hop may
        re-allocate its VC there."""
        if in_port == LOCAL:
            self.nis[node].local_owner[vc] = None
            return
        upstream = self.mesh.neighbor(node, in_port)
        self._owner[upstream * NUM_PORTS + OPPOSITE[in_port]][vc] = None

    def owner_released(self, node: int, port: int) -> None:
        """A VC owner on ``node``'s output ``port`` was cleared outside
        the datapath (the NI's ring-allocation reset).  The reference
        reads owners live and needs nothing; the soa kernel wakes the
        VA waiters parked on that port."""

    def sink_flit(self, node: int, flit: Flit, now: int, *,
                  via_bypass: bool) -> None:
        if self.trace is not None:
            self.trace.record(now, EventKind.SINK, node,
                              pid=flit.packet.pid, flit=flit.index,
                              info=1 if via_bypass else 0)
        self._last_progress = now
        self._livelock_ref = now
        self._outstanding -= 1
        self.stats.on_flit_ejected()
        if flit.is_tail:
            self._sink_tail(flit.packet, now)

    def _sink_tail(self, pkt: Packet, now: int) -> None:
        """A tail reached its destination NI (both kernels' sinks)."""
        pkt.ejected_cycle = now
        if self._faults is not None:
            # End-to-end detection at the destination NI: a corrupted
            # packet never counts as delivered; with retransmission the
            # pending timeout drives the retry, and duplicates (a retry
            # racing a slow original) are filtered by sequence number.
            if pkt.corrupted:
                self.stats.on_packet_corrupted(pkt)
                self._faults.on_bad_delivery(self, pkt)
                return
            if not self._faults.on_good_delivery(pkt):
                self.stats.on_packet_duplicate(pkt)
                return
        self.stats.on_packet_ejected(pkt)
        if self.metrics is not None:
            self.metrics.on_packet_ejected(pkt, self.stats)

    def wake_request(self, node: int, out_port: int) -> None:
        """Conventional PG: a stalled SA request (or an early-wakeup RC
        result) asserts WU toward the gated neighbor."""
        nbr = self.mesh.neighbor(node, out_port)
        if nbr is not None:
            self._wu_now.add(nbr)

    def note_ni_latched(self, node: int) -> None:
        """Event hook from :meth:`NetworkInterface.latch_write`: the NI
        holds a bypass-latched flit and must run until it drains."""
        self._active_nis.add(node)

    def note_router_filled(self, node: int) -> None:
        """Event hook from :meth:`Router.deliver`: the router's input
        buffers are no longer empty, so its pipeline (and idle-state
        tracking) must run."""
        self._active_routers.add(node)

    def mark_ni_port_used(self, node: int, port: int) -> None:
        """An NI bypass move claimed a physical output port this cycle
        (SA must not double-book it; cleared at the next NI phase)."""
        self._ports_used[node].add(port)
        self._ni_marks.add(node)

    def finish_lingering(self, node: int, vc: int) -> None:
        """A mid-bypass packet finished after wakeup: restore the ring
        predecessor's credits for this VC to the full buffer depth."""
        ni = self.nis[node]
        ni.lingering.discard(vc)
        if self.router_on(node):
            self._restore_pred_credit(node, vc)
        # When the router has gated off again mid-linger, the predecessor's
        # credit stays clamped at the single latch slot - correct for OFF.

    # ------------------------------------------------------------------
    # fault injection services (repro.faults)
    # ------------------------------------------------------------------
    def schedule_router_failure(self, node: int) -> None:
        """Arm a permanent hard-fail of ``node``'s router.

        The fail completes at the first clean flit boundary (immediately
        when the router is already gated off): the controller is forced
        OFF for good, so every flow-control invariant the normal gating
        machinery guarantees also holds for the dead router.
        """
        ctrl = self.controllers[node]
        if ctrl.failed or ctrl.fail_armed:
            return
        if ctrl.state == PowerState.OFF:
            # Already cleanly gated: the gate-off side effects (port tags
            # / bypass credit clamp) are in place, so the fail is just a
            # permanent pin.
            ctrl.failed = True
            self._on_fail_complete(node)
        else:
            ctrl.fail_armed = True

    def _on_fail_complete(self, node: int) -> None:
        """The router at ``node`` is now permanently dead.

        NoRD needs nothing extra: the NI bypass and ring-escape routing
        serve the node exactly as for any gated-off router.  Conventional
        designs mark the neighbors' output ports failed (SA drops instead
        of stalling for a wakeup that never comes) and fail the local
        NI's queued packets - the node is disconnected (Section 3.4's
        disconnection problem, now permanent).
        """
        faults = self._faults
        faults.failed_nodes.add(node)
        if self.cfg.design == Design.NORD:
            return
        for port, nbr in self.mesh.neighbors(node):
            self._failed[nbr * NUM_PORTS + OPPOSITE[port]] = True
        ni = self.nis[node]
        ni.reset_pending_router_allocation()
        while ni.inject_queue:
            flit = ni.inject_queue.popleft()
            self._outstanding -= 1
            if flit.is_head:
                flit.packet.failed = True
                faults.on_packet_killed(self, flit.packet)

    def fault_discard_flit(self, node: int, in_port: int, vc: int,
                           flit: Flit) -> None:
        """Discard a failed packet's flit, buffered at or arriving into
        ``node``'s input VC ``(in_port, vc)``: its credit returns
        upstream, and a tail releases the upstream VC."""
        now = self.now
        self._outstanding -= 1
        self._last_progress = now
        self.credit_upstream(node, in_port, vc, now)
        if flit.is_tail:
            self.release_upstream_owner(node, in_port, vc)

    # ------------------------------------------------------------------
    # simulation loop
    # ------------------------------------------------------------------
    def _take_pid(self) -> int:
        pid = self._next_pid
        self._next_pid = pid + 1
        return pid

    def inject_packet(self, src: int, dst: int, length: int,
                      klass: int = 0) -> Packet:
        pkt = Packet(src, dst, length, self.now, klass,
                     pid=self._take_pid())
        if self.trace is not None:
            self.trace.record(self.now, EventKind.NEW, src, port=dst,
                              pid=pkt.pid, info=length)
        if self._faults is not None and not self._faults.admit_packet(self,
                                                                      pkt):
            # Unreachable endpoint under a conventional design: record the
            # loss at the source instead of wedging the network.
            pkt.failed = True
            self.stats.on_packet_created(pkt)
            self.stats.on_packet_failed(pkt)
            return pkt
        if self._outstanding == 0:
            self._livelock_ref = self.now
        self.nis[src].enqueue_packet(pkt)
        self._active_nis.add(src)
        self._outstanding += length
        self.stats.on_packet_created(pkt)
        return pkt

    @property
    def nord_bypass_available(self) -> bool:
        """NoRD keeps every node reachable through the bypass ring even
        when its router is (permanently) off."""
        return self.cfg.design == Design.NORD

    def retransmit_packet(self, orig: Packet) -> None:
        """NI-level retransmission: re-inject a clone of a timed-out
        packet.  The clone keeps the original ``created_cycle`` so the
        measured latency honestly includes the recovery time, and the
        same ``seq`` so duplicate deliveries are filtered."""
        faults = self._faults
        pkt = Packet(orig.src, orig.dst, orig.length, self.now, orig.klass,
                     pid=self._take_pid())
        pkt.created_cycle = orig.created_cycle
        pkt.seq = orig.seq
        pkt.retry = orig.retry + 1
        if self.trace is not None:
            self.trace.record(self.now, EventKind.NEW, pkt.src,
                              port=pkt.dst, pid=pkt.pid, info=pkt.length)
        self.stats.on_packet_retransmitted(pkt)
        if (not self.nord_bypass_available and faults.failed_nodes
                and (pkt.src in faults.failed_nodes
                     or pkt.dst in faults.failed_nodes)):
            pkt.failed = True
            self.stats.on_packet_failed(pkt)
            return
        faults.register_pending(pkt, self.now)
        if self._outstanding == 0:
            self._livelock_ref = self.now
        self.nis[pkt.src].enqueue_packet(pkt)
        self._active_nis.add(pkt.src)
        self._outstanding += pkt.length

    def step(self) -> None:
        """Advance the network by one cycle."""
        self.now += 1
        now = self.now
        if self._faults is not None:
            self._faults.begin_cycle(self, now)
        if not self.skip_inactive:
            self._activate_everything()
        if self._profile is not None:
            self._step_profiled(now)
        else:
            self._phase_credits(now)
            self._phase_nis(now)
            self._phase_routers(now)
            self._phase_links(now)
            self._phase_pg(now)
            self._phase_stats(now)
        self._check_liveness(now)
        if self.metrics is not None:
            self.metrics.on_cycle(self)

    def _activate_everything(self) -> None:
        """Dense mode: every component is a member of its activity set
        this cycle, so the scans below visit everything and the result
        owes nothing to the event hooks that maintain the sets."""
        nodes, links = self._universe
        for link_set in (self._active_credit_links,
                         self._active_flit_links):
            link_set.update(links)
        for node_set in (self._active_inject, self._active_eject,
                         self._active_nis, self._active_routers,
                         self._pg_active):
            node_set.update(nodes)
        self._ni_marks.update(nodes)
        if self._pg_quiescent:
            # this cycle's step accrues ``now`` for every controller
            self.settle_duty_counters(self.now - 1)
            self._pg_quiescent.clear()

    def _step_profiled(self, now: int) -> None:
        """One cycle with per-phase wall-clock + occupancy accounting."""
        prof = self._profile
        prof.cycles += 1
        n = self.mesh.num_nodes
        links = self._num_links
        # Occupancy is the size of each set at cycle start.
        credit_busy, line_busy = self._in_flight_counts()
        ni_busy = len(self._active_nis)
        router_busy = len(self._active_routers)
        pg_busy = len(self._pg_active)
        phases = (
            ("credit", self._phase_credits, credit_busy, links),
            ("ni", self._phase_nis, ni_busy, n),
            ("router", self._phase_routers, router_busy, n),
            ("link", self._phase_links, line_busy, links + 2 * n),
            ("pg", self._phase_pg, pg_busy, n),
            ("stats", self._phase_stats, router_busy, n),
        )
        for name, fn, occupied, capacity in phases:
            t0 = perf_counter()
            fn(now)
            prof.note_phase(name, perf_counter() - t0, occupied, capacity)

    def _in_flight_counts(self) -> Tuple[int, int]:
        """(credit links, flit links + inject + eject lines) with
        deliveries in flight at cycle start - the profile's occupancy
        numerators for the credit and link phases."""
        return (len(self._active_credit_links),
                len(self._active_flit_links) + len(self._active_inject)
                + len(self._active_eject))

    # ------------------------------------------------------------------
    # phase 2: credit delivery
    # ------------------------------------------------------------------
    def _phase_credits(self, now: int) -> None:
        active = self._active_credit_links
        links_out = self.links_out
        credit, maxc, v_per = self._credit, self._maxc, self._V
        for key in active.sorted():
            node, port = key
            link = links_out[node][port]
            base = (node * NUM_PORTS + port) * v_per
            vcs = link.credits.receive(now)
            fault = self._link_fault[node * NUM_PORTS + port]
            if fault is not None:
                vcs = self._faults.filter_credits(fault, vcs, self.stats)
            for vc in vcs:
                c = base + vc
                if credit[c] >= maxc[c]:
                    raise RuntimeError(CREDIT_OVERFLOW)
                credit[c] += 1
            if link.credits.empty:
                active.discard(key)

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
    # phase 4: router pipelines (only powered-on routers).  The canonical
    # router evaluates SA -> VA -> RC so a flit advances one stage per
    # cycle; the speculative 2-stage pipeline (Section 6.8) ripples
    # RC -> VA -> SA within a cycle, succeeding in one router cycle when
    # arbitration does not push back.
    # ------------------------------------------------------------------
    def _phase_routers(self, now: int) -> None:
        # Empty routers (all VCs idle) run every stage as a pure no-op,
        # so only buffer-occupied routers are visited; demotion happens
        # in the stats phase, after the cycle's deliveries landed.  The
        # stages additionally scan only the occupied VCs - IDLE VCs fail
        # every stage's eligibility test, so narrowing the scan cannot
        # change the outcome (dense mode checks that: it scans all VCs).
        speculative = self.cfg.noc.speculative
        routers = self.routers
        controllers = self.controllers
        on = PowerState.ON
        dense = not self.skip_inactive
        for node in self._active_routers.sorted():
            if controllers[node].state == on:
                router = routers[node]
                occ = None if dense else router.occupied_vcs
                if speculative:
                    router.stage_rc(now, occ)
                    router.stage_va(now, occ)
                    router.stage_sa(now, occ)
                else:
                    router.stage_sa(now, occ)
                    router.stage_va(now, occ)
                    router.stage_rc(now, occ)

    # ------------------------------------------------------------------
    # phase 5: flit delivery
    # ------------------------------------------------------------------
    def _phase_links(self, now: int) -> None:
        flit_links = self._active_flit_links
        for key in flit_links.sorted():
            link = self.links_out[key[0]][key[1]]
            arrivals = link.flits.receive(now)
            fault = self._link_fault[key[0] * NUM_PORTS + key[1]]
            if fault is not None:
                self._faults.strike_flits(
                    fault, [flit.packet for flit, _ in arrivals], self.stats)
            for flit, vc in arrivals:
                self._deliver(link.dst, link.dst_port, vc, flit)
            if link.flits.empty:
                flit_links.discard(key)
        inject = self._active_inject
        for node in inject.sorted():
            line = self.inject_lines[node]
            for flit, vc in line.receive(now):
                self._deliver_inject(node, vc, flit)
            if line.empty:
                inject.discard(node)
        eject = self._active_eject
        for node in eject.sorted():
            line = self.eject_lines[node]
            for flit, vc in line.receive(now):
                self._deliver_eject(node, vc, flit, now)
            if line.empty:
                eject.discard(node)

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
            ni.latch_write(vc, flit)  # re-activates the NI via its hook
            return
        if not self.router_on(node):
            raise RuntimeError(
                f"flit delivered to off router {node} port {in_port}: "
                "power-gating handshake violated")
        self.routers[node].deliver(in_port, vc, flit)

    # ------------------------------------------------------------------
    # phase 6: power gating
    # ------------------------------------------------------------------
    @property
    def _no_pg_blanket(self) -> bool:
        """No_PG normally has no per-controller PG work; with router
        failures injected even No_PG must run the generic phase so a
        fail-armed controller can reach its clean boundary."""
        return (self.cfg.design == Design.NO_PG
                and (self._faults is None
                     or not self._faults.has_router_failures))

    def _phase_pg(self, now: int) -> None:
        if self._no_pg_blanket:
            return  # every controller stays ON: cycles_on settle on read
        design = self.cfg.design
        quiescent = self._pg_quiescent
        active = self._pg_active
        if quiescent:
            # Re-check every skipped controller against this cycle's
            # stimuli (WU edges, pending injection, the NoRD VC-request
            # window) - all are set before phase 6 runs.  This sweep also
            # self-heals after tests force controller states directly.
            # The rest accrue their gated cycles lazily.
            for node in [node for node in quiescent
                         if not self._pg_skippable(node, design)]:
                self._leave_quiescence(node, now)
        events: List[Tuple[int, str]] = []
        demoted: List[int] = []
        for node in active.sorted():
            self._step_fsm(node, design, events, demoted)
        for node in demoted:
            active.discard(node)
            quiescent[node] = now
        self._apply_pg_events(events, design)

    def _step_fsm(self, node: int, design: str, events: List[Tuple[int, str]],
                  demoted: List[int]) -> None:
        """Step ``node``'s controller through the full FSM, noting its
        transition and whether it may leave the active set."""
        ctrl = self.controllers[node]
        event = ctrl.step(self._gate_inputs(node, design))
        if event is not None:
            events.append((node, event))
        if isinstance(ctrl, NoRDController):
            ctrl.end_cycle()
        if self._pg_skippable(node, design):
            demoted.append(node)

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

    def _pg_skippable(self, node: int, design: str) -> bool:
        """Whether stepping this controller next cycle is provably a
        no-op beyond ``cycles_off`` accounting."""
        ctrl = self.controllers[node]
        if ctrl.state != PowerState.OFF:
            return False
        if design == Design.NORD:
            # A non-empty sliding window still decays via end_cycle(),
            # and could cross the wakeup threshold; skip only when fully
            # drained (at most ``wakeup_window`` extra active cycles).
            return ctrl.window_requests == 0
        return node not in self._wu_now and not self.nis[node].inject_pending

    #: Power-gate FSM transition -> trace event kind.
    _PG_TRACE_KINDS = {
        Transition.GATED_OFF: EventKind.PG_OFF,
        Transition.WAKE_STARTED: EventKind.PG_WAKE,
        Transition.WOKE: EventKind.PG_ON,
        Transition.FAILED: EventKind.PG_FAIL,
    }

    def _trace_pg_event(self, node: int, event: str) -> None:
        kind = self._PG_TRACE_KINDS[event]
        vc = -1
        info = 0
        if event == Transition.WAKE_STARTED:
            ctrl = self.controllers[node]
            if isinstance(ctrl, NoRDController):
                # The threshold trigger behind this wakeup: the
                # VC-request window count vs. the node's threshold.
                vc = ctrl.threshold
                info = ctrl.window_requests
        self.trace.record(self.now, kind, node, vc=vc, info=info)

    def _apply_pg_events(self, events: List[Tuple[int, str]],
                         design: str) -> None:
        for node, event in events:
            if self.trace is not None:
                self._trace_pg_event(node, event)
            if self.metrics is not None:
                self.metrics.on_pg_event(node, event)
            if event == Transition.GATED_OFF:
                if design == Design.NORD:
                    self._on_nord_gate_off(node)
                else:
                    self._on_conv_gate_off(node)
            elif event == Transition.WOKE:
                if design == Design.NORD:
                    self._on_nord_wake(node)
                else:
                    self._on_conv_wake(node)
            elif event == Transition.FAILED:
                # The fail completed at a clean flit boundary: apply the
                # normal gate-off side effects (credit clamps / port tags
                # hold because the preconditions match), then mark the
                # router dead.
                if design == Design.NORD:
                    self._on_nord_gate_off(node)
                else:
                    self._on_conv_gate_off(node)
                self._on_fail_complete(node)
        self._wu_now.clear()

    def _gate_inputs(self, node: int, design: str) -> GateInputs:
        ctrl = self.controllers[node]
        if ctrl.fail_armed and ctrl.state == PowerState.ON:
            # A fail-armed router dies at the first clean flit boundary:
            # the datapath must be empty and nothing committed toward it
            # (incl. a local packet mid-injection), but WU is ignored -
            # the fail does not wait for traffic to stop wanting it.
            ni = self.nis[node]
            empty = self._router_empty(node)
            incoming = (not empty) or self._incoming_condition(node, design) \
                or (ni.inj_path == "router" and ni.inj_sent > 0)
            return GateInputs(empty=empty, incoming=incoming, wakeup=False)
        if ctrl.state == PowerState.WAKING:
            return GateInputs(empty=False, incoming=False, wakeup=False)
        if ctrl.state == PowerState.OFF:
            if design == Design.NORD:
                wu = ctrl.wakeup_wanted
            else:
                wu = node in self._wu_now or self.nis[node].inject_pending
            return GateInputs(empty=True, incoming=False, wakeup=wu)
        # ON: evaluate the gating conditions.
        empty = self._router_empty(node)
        if not empty:
            return GateInputs(empty=False, incoming=False, wakeup=False)
        incoming = self._incoming_condition(node, design)
        if design == Design.NORD:
            wu = ctrl.wakeup_wanted
        else:
            wu = self.nis[node].inject_pending or node in self._wu_now
        return GateInputs(empty=True, incoming=incoming, wakeup=wu)

    def _router_empty(self, node: int) -> bool:
        """Whether no input VC of ``node`` holds a packet (per kernel)."""
        return self.routers[node].empty

    def _incoming_condition(self, node: int, design: str) -> bool:
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
        if design == Design.NORD:
            ni = self.nis[node]
            # A packet the NI started injecting through the router must
            # finish before the router may gate (its LOCAL VC is held, so
            # this is usually covered by ``empty``; the check closes the
            # window before the first flit arrives).
            if ni.inj_path == "router" and ni.inj_sent > 0:
                return True
            return False
        early = design == Design.CONV_PG_OPT
        for port, nbr in self.mesh.neighbors(node):
            if self.routers[nbr].has_commitment_to(OPPOSITE[port],
                                                   early=early):
                return True
        return False

    # -- conventional transitions ----------------------------------------
    def _on_conv_gate_off(self, node: int) -> None:
        for port, nbr in self.mesh.neighbors(node):
            self._gated[nbr * NUM_PORTS + OPPOSITE[port]] = True

    def _on_conv_wake(self, node: int) -> None:
        for port, nbr in self.mesh.neighbors(node):
            self._gated[nbr * NUM_PORTS + OPPOSITE[port]] = False

    # -- NoRD transitions --------------------------------------------------
    def _on_nord_gate_off(self, node: int) -> None:
        ring = self.ring
        ni = self.nis[node]
        pred = ring.predecessor[node]
        pred_port = ring.outport[pred]
        credit, maxc = self._credit, self._maxc
        limit = self.cfg.pg.bypass_depth
        for port, nbr in self.mesh.neighbors(node):
            if nbr == pred and OPPOSITE[port] == pred_port:
                # The ring predecessor keeps the port but sees only the
                # single bypass-latch slot per VC (Section 4.3).
                base = (pred * NUM_PORTS + pred_port) * self._V
                for vc_id in range(self._V):
                    if vc_id in ni.lingering:
                        continue  # already clamped
                    c = base + vc_id
                    if credit[c] != maxc[c]:
                        diag = {"node": node, "predecessor": pred,
                                "vc": vc_id, "credit": credit[c],
                                "max": maxc[c], "cycle": self.now,
                                "credits_lost": self.stats.credits_lost}
                        raise CreditAccountingError(
                            "gating with unaccounted credits in flight ("
                            + ", ".join(f"{k} {v}" for k, v in diag.items())
                            + ")", {"kind": "credit-accounting", **diag})
                    maxc[c] = limit
                    if credit[c] > limit:
                        credit[c] = limit
            else:
                self._gated[nbr * NUM_PORTS + OPPOSITE[port]] = True
                self._reset_vcs_routed_to(nbr, OPPOSITE[port])
        ni.reset_pending_router_allocation()

    def _on_nord_wake(self, node: int) -> None:
        ring = self.ring
        ni = self.nis[node]
        inport = ring.inport[node]
        for vc in range(self.cfg.noc.vcs_per_port):
            if vc in ni.bypass_alloc or vc in ni.eject_mid:
                # Mid-packet (forwarding or ejecting): keep bypassing this
                # VC until the tail passes (Section 4.3's hand-over).
                ni.lingering.add(vc)
                continue
            while ni.latch[vc]:
                # Write the latched flits into the input buffer; the bypass
                # for this VC is then disabled (Section 4.3).
                self._deliver_flit(node, inport, vc, ni.latch_pop(vc))
            ni.bypass_wait.pop(vc, None)
            self._restore_pred_credit(node, vc)
        for port, nbr in self.mesh.neighbors(node):
            if not (nbr == ring.predecessor[node]
                    and OPPOSITE[port] == ring.outport[nbr]):
                self._gated[nbr * NUM_PORTS + OPPOSITE[port]] = False
        ni.reset_pending_ring_allocation()

    def _deliver_flit(self, node: int, in_port: int, vc: int,
                      flit: Flit) -> None:
        """Write ``flit`` into input VC ``(in_port, vc)`` of ``node``'s
        powered-on router (the wake-up hand-over of latched flits)."""
        self.routers[node].deliver(in_port, vc, flit)

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

    def _restore_pred_credit(self, node: int, vc: int) -> None:
        """Recompute the ring predecessor's credit counter for ``vc`` from
        ground truth after a bypass/normal hand-over: the buffer depth
        less every slot still spoken for on the way into ``node``."""
        pred = self.ring.predecessor[node]
        c = (pred * NUM_PORTS + self.ring.outport[pred]) * self._V + vc
        depth = self.cfg.noc.buffer_depth
        self._maxc[c] = depth
        value = (depth - self._ring_slots_held(node, vc)
                 - len(self.nis[node].latch[vc]))
        self._credit[c] = value
        if value < 0:
            raise RuntimeError("negative credits after power transition")

    def _ring_slots_held(self, node: int, vc: int) -> int:
        """Flits and credit returns of ``vc`` in flight on the ring link
        into ``node``, plus its flits buffered at ``node``'s Bypass
        Inport (per kernel: this one reads the delay lines and the
        router objects)."""
        ring = self.ring
        pred = ring.predecessor[node]
        link = self.links_out[pred][ring.outport[pred]]
        return (sum(1 for _, v in link.flits.peek_pending() if v == vc)
                + sum(1 for v in link.credits.peek_pending() if v == vc)
                + len(self.routers[node].in_ports[ring.inport[node]]
                      .vcs[vc].fifo))

    # ------------------------------------------------------------------
    # phase 7: statistics / liveness
    # ------------------------------------------------------------------
    def _phase_stats(self, now: int) -> None:
        # A router outside the active set is empty (every buffer fill
        # re-adds it), so only active routers can show an idle-state edge.
        # This phase is also where empty routers leave the set - after
        # phase 5's deliveries, so a same-cycle refill keeps them active.
        active = self._active_routers
        routers = self.routers
        if self.stats.measuring:
            stats = self.stats
            state = self._idle_state
            for node in active.sorted():
                idle = routers[node].empty
                if idle != state[node]:
                    state[node] = idle
                    if idle:
                        stats.note_idle(node, now)
                    else:
                        stats.note_busy(node, now)
                if idle:
                    active.discard(node)
        else:
            for node in active.sorted():
                if routers[node].empty:
                    active.discard(node)
                    self._idle_state[node] = True
                    self.stats.note_idle(node, now)

    def _check_liveness(self, now: int) -> None:
        """The liveness watchdog: deadlock (nothing moved) and livelock
        (flits moved but none ejected) both abort with typed, structured
        diagnostics the harness can classify for retry/quarantine."""
        if self._outstanding <= 0:
            return
        if now - self._last_progress > self.deadlock_limit:
            diag = self.hang_diagnostics(now, "deadlock")
            raise DeadlockError(self._hang_message(diag), diag)
        if now - self._livelock_ref > self.livelock_limit:
            diag = self.hang_diagnostics(now, "livelock")
            raise LivelockError(self._hang_message(diag), diag)

    def hang_diagnostics(self, now: int, kind: str) -> Dict:
        """Machine-readable snapshot of where the stuck flits sit (see
        :mod:`repro.errors` for the layout)."""
        routers = []
        for node in range(self.mesh.num_nodes):
            buffered = 0
            stuck_vcs: List[List[int]] = []
            for port, vc, flits in self.buffered_vcs(node):
                buffered += flits
                stuck_vcs.append([port, vc])
            latched = sum(len(q) for q in self.nis[node].latch)
            queued = len(self.nis[node].inject_queue)
            if buffered or latched or queued:
                state = self.controllers[node].state
                routers.append({
                    "node": node,
                    "state": PowerState.NAMES.get(state, str(state)),
                    "buffered": buffered,
                    "latched": latched,
                    "queued": queued,
                    "stuck_vcs": stuck_vcs,
                })
        limit = (self.deadlock_limit if kind == "deadlock"
                 else self.livelock_limit)
        return {
            "kind": kind,
            "design": self.cfg.design,
            "cycle": now,
            "outstanding_flits": self._outstanding,
            "limit": limit,
            "routers": routers,
        }

    def buffered_vcs(self, node: int) -> Iterator[Tuple[int, int, int]]:
        """``(in_port, vc, flits)`` for every non-empty input VC of
        ``node``, in port-then-VC order (per kernel: this one walks the
        router objects).  Hang diagnostics, the telemetry sampler and
        the occupancy heatmap read buffer occupancy through it."""
        for port in self.routers[node].in_ports:
            for vc in port.vcs:
                if vc.fifo:
                    yield port.port_id, vc.vc_id, len(vc.fifo)

    def _hang_message(self, diag: Dict) -> str:
        """An actionable abort message: where the stuck flits sit and in
        which power states, instead of a silent hang."""
        stuck = [f"  router {e['node']} [{e['state']}]: "
                 f"{e['buffered']} buffered, {e['latched']} latched, "
                 f"{e['queued']} awaiting injection"
                 for e in diag["routers"]]
        detail = "\n".join(stuck) if stuck else \
            "  (all flits in flight on links/delay lines)"
        if diag["kind"] == "livelock":
            lead = (f"flits kept moving but none ejected for "
                    f"{diag['limit']} cycles at cycle {diag['cycle']} with "
                    f"{diag['outstanding_flits']} flits outstanding "
                    f"(design={diag['design']}): possible livelock (check "
                    f"the misroute cap / escape-VC convergence).\n")
        else:
            lead = (f"no flit movement for {diag['limit']} cycles at cycle "
                    f"{diag['cycle']} with {diag['outstanding_flits']} "
                    f"flits outstanding (design={diag['design']}): "
                    f"possible deadlock.\n")
        return (
            lead +
            f"Flit locations:\n{detail}\n"
            f"Check escape-VC assignment (config.escape_vcs), power-gating "
            f"handshakes, and credit accounting; rerun with a smaller "
            f"mesh/scale to bisect, or raise Network.deadlock_limit if the "
            f"workload legitimately stalls this long.")

    @property
    def outstanding_flits(self) -> int:
        return self._outstanding

    # ------------------------------------------------------------------
    # high-level run driver
    # ------------------------------------------------------------------
    def run(self, traffic, *, warmup: Optional[int] = None,
            measure: Optional[int] = None,
            drain: Optional[int] = None) -> RunResult:
        """Run warmup + measurement (+ drain) with the given traffic source.

        ``traffic`` must provide ``arrivals(cycle) -> iterable of
        (src, dst, length)`` tuples (see :mod:`repro.traffic.base`).
        """
        cfg = self.cfg
        warmup = cfg.warmup_cycles if warmup is None else warmup
        measure = cfg.measure_cycles if measure is None else measure
        drain = cfg.drain_cycles if drain is None else drain
        result = self.run_segment(traffic, RunProgress(warmup, measure,
                                                       drain))
        assert result is not None  # no max_cycles -> runs to completion
        return result

    def run_segment(self, traffic, progress: RunProgress, *,
                    max_cycles: Optional[int] = None,
                    on_cycle=None) -> Optional[RunResult]:
        """Advance the warmup/measure/drain phase machine.

        Executes at most ``max_cycles`` simulation cycles (unbounded when
        None) and returns the :class:`RunResult` once the run completes,
        or None when paused with ``progress`` updated in place - call
        again (with the same traffic source, or a restored snapshot of
        it) to continue.  ``on_cycle(net, progress)`` fires after every
        executed cycle, at a phase-consistent boundary - the periodic
        checkpoint hook.  With ``max_cycles=None`` and ``on_cycle=None``
        this performs exactly the operations of the pre-resumable run
        loop, in the same order.
        """
        budget = max_cycles
        while True:
            phase = progress.phase
            if phase == "warmup":
                if progress.done >= progress.warmup:
                    self.stats.start_measurement(self.now)
                    progress.snapshot_start = self._snapshot_counters()
                    progress.phase = "measure"
                    progress.done = 0
                    continue
            elif phase == "measure":
                if progress.done >= progress.measure:
                    progress.snapshot_end = self._snapshot_counters()
                    self.stats.stop_measurement(self.now)
                    progress.phase = "drain"
                    progress.done = 0
                    continue
            elif phase == "drain":
                # With retransmission enabled the drain also waits for
                # pending delivery confirmations, so timed-out packets get
                # their bounded retries before the run ends.
                if not (progress.done < progress.drain
                        and (self._outstanding > 0
                             or (self._faults is not None
                                 and self._faults.busy))):
                    progress.phase = "done"
                    continue
            else:  # done
                return self._build_result(progress.measure,
                                          progress.snapshot_start,
                                          progress.snapshot_end)
            if budget is not None:
                if budget <= 0:
                    return None
                budget -= 1
            if phase != "drain":
                self._inject_arrivals(traffic)
            self.step()
            progress.done += 1
            if on_cycle is not None:
                on_cycle(self, progress)

    # ------------------------------------------------------------------
    # snapshot / restore (crash safety)
    # ------------------------------------------------------------------
    def __getstate__(self):
        # The kernel profile is process-global instrumentation, not
        # simulation state: drop it from pickles and rebind on restore so
        # a snapshot never smuggles one process's profiling counters
        # (or a stale object identity) into another.
        state = self.__dict__.copy()
        state["_profile"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._profile = (activity.global_profile()
                         if activity.profiling_enabled() else None)

    def snapshot(self) -> NetworkSnapshot:
        """Capture the complete simulation state as a picklable value.

        The capture is a deep copy (via pickle): continuing to step this
        network does not mutate the snapshot, and restoring - in this
        process or another - yields an independent network that replays
        the remaining cycles byte-identically (the differential oracle in
        tests/test_snapshot_restore.py).
        """
        return NetworkSnapshot(
            version=SNAPSHOT_VERSION,
            backend=self.backend,
            cycle=self.now,
            blob=pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL),
        )

    @staticmethod
    def restore(snap: NetworkSnapshot) -> "Network":
        """Rebuild a network from :meth:`snapshot`; pids assigned after
        the restore continue the original's sequence."""
        if snap.version != SNAPSHOT_VERSION:
            raise ValueError(
                f"snapshot version {snap.version} is incompatible with "
                f"this build (expected {SNAPSHOT_VERSION})")
        return pickle.loads(snap.blob)

    def _inject_arrivals(self, traffic) -> None:
        for src, dst, length in traffic.arrivals(self.now):
            self.inject_packet(src, dst, length)

    def _snapshot_counters(self) -> Dict:
        self.settle_duty_counters()
        snap: Dict = {"link_flits": self.n_link_flits, "routers": []}
        nbw, nva, nsa = self._nbw, self._nva, self._nsa
        for node in range(self.mesh.num_nodes):
            ni = self.nis[node]
            c = self.controllers[node]
            # RouterActivity's field order, minus idle_cycles; buffer
            # reads and crossbar traversals are SA grants
            snap["routers"].append((
                c.cycles_on, c.cycles_off, c.cycles_waking, c.wakeups,
                c.gate_offs, nbw[node], nsa[node], nsa[node], nva[node],
                nsa[node], ni.n_latch_writes, ni.n_bypass_forwards,
                ni.n_injected_flits, ni.n_ejected_flits, ni.n_vc_requests,
            ))
        return snap

    def _build_result(self, measure_cycles: int, start: Dict,
                      end: Dict) -> RunResult:
        s = self.stats
        result = RunResult(
            kernel=self.backend,
            design=self.cfg.design,
            cycles=measure_cycles,
            num_nodes=self.mesh.num_nodes,
            packets_created=s.packets_created,
            packets_measured=s.packets_measured,
            packets_ejected=s.packets_ejected,
            total_latency=s.total_latency,
            total_hops=s.total_hops,
            total_misroutes=s.total_misroutes,
            total_bypass_hops=s.total_bypass_hops,
            total_wakeup_stalls=s.total_wakeup_stalls,
            flits_ejected=s.flits_ejected,
            link_flits=end["link_flits"] - start["link_flits"],
            packets_failed=s.packets_failed,
            packets_corrupted=s.packets_corrupted,
            packets_duplicate=s.packets_duplicate,
            packets_retransmitted=s.packets_retransmitted,
            flits_corrupted=s.flits_corrupted,
            flits_dropped=s.flits_dropped,
            credits_lost=s.credits_lost,
            idle_periods=dict(s.idle_periods),
            censored_idle_periods=dict(s.censored_idle_periods),
        )
        for node, (before, after) in enumerate(zip(start["routers"],
                                                   end["routers"])):
            result.routers.append(RouterActivity(
                *[e - b for b, e in zip(before, after)],
                s.idle_cycles[node]))
        return result
