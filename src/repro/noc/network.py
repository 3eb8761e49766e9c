"""The cycle-level network simulator: the core both kernels share.

``Network`` owns every component - mesh, NIs, power-gating controllers,
the Bypass Ring (NoRD), the routers' output-port boundary - and advances
them one cycle at a time in a fixed phase order that mirrors a
synchronous design:

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
at ``o = node * NUM_PORTS + port``, plus per-node counters.

Two sibling kernels
-------------------

The input side (VC buffers and pipeline state), the channels that carry
flits and credits, and phases 2-7 belong to a kernel subclass:
:class:`repro.noc.ref.RefNetwork`, the dense object-graph reference, or
:class:`repro.noc.soa.SoANetwork`, the struct-of-arrays kernel untagged
runs use.  ``Network(cfg, ...)`` builds the one :func:`select_kernel`
names.  Each kernel defines the methods this class calls but does not
define - ``_build_datapath``, the ``_phase_*`` methods, the NIs' sends
and the input-side steps of the transitions (DESIGN.md section 9 lists
them) - and neither inherits from the other, so the ``ref``-vs-``soa``
differential compares two independent datapaths.
:mod:`repro.noc.activity` provides the ``--profile`` instrumentation.
The run protocol (:class:`Datapath`) is shared with the Section 6.8
deflection network, which ``Network(cfg)`` builds for
``Design.BUFFERLESS`` (:mod:`repro.noc.bufferless`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from ..config import Design, SimConfig
from ..core.ring import BypassRing, build_ring
from ..errors import CreditAccountingError, DeadlockError, LivelockError
from ..powergate.controller import (NoPGController, PowerGateController,
                                    PowerState, Transition)
from ..powergate.conventional import ConvPGController, ConvPGOptController
from ..powergate.nord import NoRDController
from ..routing.adaptive import AdaptiveXYEscape
from ..routing.ring_escape import NoRDRouting
from ..stats.collector import RouterActivity, RunResult, StatsCollector
from ..trace.events import EventKind
from . import activity
# Kernel selection lives in .backend (importable without this module);
# every name stays importable from here.
from .backend import BACKENDS, resolve_backend, select_kernel  # noqa: F401
from .buffer import CREDIT_OVERFLOW
from .flit import Flit, Packet
from .ni import NetworkInterface
from .topology import LOCAL, NUM_PORTS, OPPOSITE, Mesh

if TYPE_CHECKING:  # pragma: no cover - loaded only when a run asks
    from ..faults import FaultPlan, FaultState, LinkFault
    from ..trace.recorder import EventTrace

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


@dataclass
class RunProgress:
    """Where a run is inside the warmup/measure/drain phase machine.

    Picklable alongside a :class:`NetworkSnapshot` so a checkpointed run
    resumes mid-phase.  ``done`` counts completed cycles of the *current*
    phase; the phase-boundary side effects (``start_measurement``, the
    counter snapshots) fire when :meth:`Datapath.run_segment` observes the
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
    """A self-contained capture of a mid-run simulation.

    ``blob`` is the pickled ``Network`` object graph (the kernel's input
    side and channels, NIs, PG controller FSMs, stats collector, fault
    state, trace/metrics observers, the packet-id counter).  Taking the
    snapshot never mutates simulation state.
    """

    blob: bytes


class Datapath:
    """The run protocol every simulated network shares: warmup,
    measure and drain, pause and resume, snapshots, the run's result.

    A datapath holds ``cfg``, ``mesh``, ``now``, ``stats``, ``trace``
    and ``metrics`` and supplies ``step()``, ``inject_packet``,
    ``_snapshot_counters()`` (:class:`RouterActivity` rows of its
    cumulative counters) and ``_draining()`` (work still outstanding).
    """

    #: Canonical name of the implementation: a kernel of
    #: :data:`BACKENDS`, or ``"bufferless"``.
    backend: str

    def _take_pid(self) -> int:
        pid = self._next_pid
        self._next_pid = pid + 1
        return pid

    # The trace hooks every datapath records (callers check self.trace).
    def _trace_new(self, pkt: Packet) -> None:
        self.trace.record(self.now, EventKind.NEW, pkt.src, port=pkt.dst,
                          pid=pkt.pid, info=pkt.length)

    def _trace_sink(self, node: int, flit: Flit, now: int,
                    via_bypass: bool = False) -> None:
        self.trace.record(now, EventKind.SINK, node, pid=flit.packet.pid,
                          flit=flit.index, info=1 if via_bypass else 0)

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
                if not (progress.done < progress.drain
                        and self._draining()):
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

    def _inject_arrivals(self, traffic) -> None:
        for src, dst, length in traffic.arrivals(self.now):
            self.inject_packet(src, dst, length)

    def _build_result(self, measure_cycles: int, start: Dict,
                      end: Dict) -> RunResult:
        s = self.stats
        result = RunResult(
            kernel=self.backend,
            design=s.design,
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

    # ------------------------------------------------------------------
    # snapshot / restore (crash safety)
    # ------------------------------------------------------------------
    def snapshot(self) -> NetworkSnapshot:
        """Capture the complete simulation state as a picklable value.

        The capture is a deep copy (via pickle): continuing to step this
        network does not mutate the snapshot, and restoring - in this
        process or another - yields an independent network that replays
        the remaining cycles byte-identically (the differential oracle in
        tests/test_snapshot_restore.py).
        """
        import pickle
        return NetworkSnapshot(
            pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL))

    @staticmethod
    def restore(snap: NetworkSnapshot) -> "Datapath":
        """Rebuild a network from :meth:`snapshot`; pids assigned after
        the restore continue the original's sequence.

        A snapshot carries no version of its own: one reaches here only
        from the same process, or inside a checkpoint whose key
        (:func:`repro.checkpoint.load_checkpoint`) hashes the code
        fingerprint, so it was always taken by this code."""
        import pickle
        return pickle.loads(snap.blob)


class Network(Datapath):
    """A complete simulated NoC for one design point (the shared core;
    an instance is always one of the two kernel subclasses)."""

    def __new__(cls, cfg=None, *args, **kwargs):
        # Dispatch by design, then by kernel (:func:`select_kernel`).
        # Only the core dispatches - the datapath classes and unpickling
        # (no cfg) construct literally.
        if cls is Network and cfg is not None:
            if cfg.design == Design.BUFFERLESS:
                # A sibling datapath, not a kernel of this core: returned
                # built, so Python runs no Network.__init__ on it.
                from .bufferless import BufferlessNetwork
                return BufferlessNetwork(cfg, *args, **kwargs)
            if (kwargs.get("fast")
                    and resolve_backend(kwargs.get("backend")) == "ref"):
                raise ValueError(
                    "fast=True names the 'soa' kernel, but 'ref' was "
                    "requested; drop fast=True or the backend override")
            if select_kernel(kwargs.get("backend")) == "soa":
                from .soa import SoANetwork as cls
            else:
                from .ref import RefNetwork as cls
        return super().__new__(cls)

    def __init__(self, cfg: SimConfig, threshold_policy=None, *,
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
        self._profile = (activity.global_profile()
                         if activity.profiling_enabled() else None)
        self._build_ports()
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
        # Every mesh link, as the (node, port) it leaves.
        link_keys = [(node, port) for node in range(self.mesh.num_nodes)
                     for port, _ in self.mesh.neighbors(node)]
        self._num_links = len(link_keys)
        # The kernel's input side and channels: after the controllers,
        # which soa's tables read, and before a metrics recorder
        # attaches (attaching settles soa's duty counters).
        self._build_datapath()
        self.stats = StatsCollector(cfg.design, self.mesh.num_nodes)
        for node in range(self.mesh.num_nodes):
            # Every router starts empty: the idle-edge tracker opens a run
            # at cycle 0 (clipped to the measurement window when recorded).
            self.stats.note_idle(node, 0)
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
            from ..faults import ALL_LINKS, FaultState
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

    # ------------------------------------------------------------------
    # datapath services used by both kernels and the NIs
    # ------------------------------------------------------------------
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
            self._trace_sink(node, flit, now, via_bypass)
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
        holds a bypass-latched flit.  The reference runs every NI every
        cycle and needs nothing; the soa kernel activates the NI."""

    def note_ni_queued(self, node: int) -> None:
        """A packet was queued at ``node``'s NI (a new packet or a
        retransmission); the same contract as :meth:`note_ni_latched`."""

    def mark_ni_port_used(self, node: int, port: int) -> None:
        """An NI bypass move claimed a physical output port this cycle
        (SA must not double-book it; cleared at the next NI phase)."""
        self._ports_used[node].add(port)

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
    def inject_packet(self, src: int, dst: int, length: int,
                      klass: int = 0) -> Packet:
        pkt = Packet(src, dst, length, self.now, klass,
                     pid=self._take_pid())
        if self.trace is not None:
            self._trace_new(pkt)
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
        self.note_ni_queued(src)
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
            self._trace_new(pkt)
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
        self.note_ni_queued(pkt.src)
        self._outstanding += pkt.length

    def step(self) -> None:
        """Advance the network by one cycle."""
        self.now += 1
        now = self.now
        if self._faults is not None:
            self._faults.begin_cycle(self, now)
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

    def _step_profiled(self, now: int) -> None:
        """One cycle with per-phase wall-clock + occupancy accounting."""
        prof = self._profile
        prof.cycles += 1
        n = self.mesh.num_nodes
        links = self._num_links
        phases = (self._phase_credits, self._phase_nis, self._phase_routers,
                  self._phase_links, self._phase_pg, self._phase_stats)
        capacity = (links, n, n, links + 2 * n, n, n)
        for name, fn, occupied, cap in zip(activity.PHASES, phases,
                                           self._occupancy(capacity),
                                           capacity):
            t0 = perf_counter()
            fn(now)
            prof.note_phase(name, perf_counter() - t0, occupied, cap)

    # ------------------------------------------------------------------
    # power gating: what both kernels' PG phases share
    # ------------------------------------------------------------------
    def settle_duty_counters(self, upto: Optional[int] = None) -> None:
        """Bring ``cycles_on`` / ``cycles_off`` / ``cycles_waking`` up to
        cycle ``upto`` (default: the last completed cycle); call it
        before reading them from outside the PG phase.  The reference
        steps every controller every cycle and has nothing to settle;
        the soa kernel credits the duty its skipped controllers
        accrued."""

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

    # -- what the controllers sample (PowerGateController.step) ----------
    def wakeup_requested(self, node: int) -> bool:
        """Conventional WU: a neighbour's stalled SA request (or, early,
        its route computation) raised it this cycle, or the node's NI
        has a packet to inject."""
        return node in self._wu_now or self.nis[node].inject_pending

    def injecting_through_router(self, node: int) -> bool:
        """The NI started injecting a packet through the router and has
        not finished (its LOCAL VC is held)."""
        ni = self.nis[node]
        return ni.inj_path == "router" and ni.inj_sent > 0

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
        ni.reset_pending_ring_allocation(self)

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

    # ------------------------------------------------------------------
    # liveness
    # ------------------------------------------------------------------
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

    def _draining(self) -> bool:
        # With retransmission enabled the drain also waits for pending
        # delivery confirmations, so timed-out packets get their bounded
        # retries before the run ends.
        return self._outstanding > 0 or (self._faults is not None
                                         and self._faults.busy)

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
