"""Run statistics: packet latency, idle periods, event counters.

The collector observes the network during the measurement window and
produces a :class:`RunResult` that the experiments and the power model
consume.  Energy itself is *not* computed here - the collector only counts
events (buffer accesses, crossbar traversals, link flits, wakeups, cycles
per power state); :mod:`repro.power.energy` turns counts into joules.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - avoids a package import cycle
    from ..noc.flit import Packet


@dataclass
class RouterActivity:
    """Per-router counters over the measurement window."""

    cycles_on: int = 0
    cycles_off: int = 0
    cycles_waking: int = 0
    wakeups: int = 0
    gate_offs: int = 0
    buffer_writes: int = 0
    buffer_reads: int = 0
    xbar_traversals: int = 0
    va_grants: int = 0
    sa_grants: int = 0
    ni_latch_writes: int = 0
    ni_bypass_forwards: int = 0
    ni_injected_flits: int = 0
    ni_ejected_flits: int = 0
    ni_vc_requests: int = 0
    idle_cycles: int = 0

    @property
    def total_cycles(self) -> int:
        return self.cycles_on + self.cycles_off + self.cycles_waking

    @property
    def off_fraction(self) -> float:
        total = self.total_cycles
        return self.cycles_off / total if total else 0.0


@dataclass
class RunResult:
    """Everything a single simulation run produced."""

    design: str
    cycles: int
    num_nodes: int
    packets_created: int = 0
    packets_measured: int = 0
    packets_ejected: int = 0
    total_latency: int = 0
    total_hops: int = 0
    total_misroutes: int = 0
    total_bypass_hops: int = 0
    total_wakeup_stalls: int = 0
    flits_ejected: int = 0
    link_flits: int = 0
    # -- fault accounting (all zero without a FaultPlan) -------------------
    #: In-window packets permanently lost: rejected at the source
    #: (unreachable endpoint), dropped at a hard-failed router, delivered
    #: corrupted with no retransmission, or retries exhausted.
    packets_failed: int = 0
    #: In-window packets that arrived corrupted (each delivery attempt).
    packets_corrupted: int = 0
    #: Duplicate deliveries filtered by sequence number (a retransmission
    #: raced a slow original).
    packets_duplicate: int = 0
    #: Retransmission attempts launched for in-window packets.
    packets_retransmitted: int = 0
    #: Flit-level fault events over the whole run (diagnostics).
    flits_corrupted: int = 0
    flits_dropped: int = 0
    credits_lost: int = 0
    routers: List[RouterActivity] = field(default_factory=list)
    #: Histogram of idle-period lengths over all routers: length -> count.
    #: Only *completed* periods (the router went busy again in-window).
    idle_periods: Dict[int, int] = field(default_factory=dict)
    #: Periods truncated by the measurement window (still idle when it
    #: closed).  Kept separate: their true length is unknown, so folding
    #: them into ``idle_periods`` would bias Fig. 3's short_fraction.
    censored_idle_periods: Dict[int, int] = field(default_factory=dict)
    # -- host timing (stamped by the runner, not the simulator) ------------
    #: Wall-clock seconds the producing process spent simulating this
    #: run.  Measured, not simulated: excluded from equality and from
    #: :meth:`to_dict` so the determinism contracts hold (serial ==
    #: parallel == cached); 0.0 on cache hits.
    wall_clock_s: float = field(default=0.0, compare=False)
    #: ``total simulated cycles / wall_clock_s`` for the producing run
    #: (same caveats as :attr:`wall_clock_s`).
    simulated_cycles_per_sec: float = field(default=0.0, compare=False)
    #: Which cycle kernel produced this result (``"ref"``, ``"soa"``, or
    #: ``"bufferless"`` for that datapath).  Provenance, not
    #: outcome: the kernels are proven result-identical, so like the
    #: host-timing fields it is excluded from equality and from
    #: :meth:`to_dict`; ``""`` on cache hits.
    kernel: str = field(default="", compare=False)

    # -- aggregate metrics -------------------------------------------------
    @property
    def avg_packet_latency(self) -> float:
        if self.packets_measured == 0:
            return float("nan")
        return self.total_latency / self.packets_measured

    @property
    def avg_hops(self) -> float:
        if self.packets_measured == 0:
            return float("nan")
        return self.total_hops / self.packets_measured

    @property
    def delivered_fraction(self) -> float:
        """Fraction of in-window packets delivered intact (the headline
        resilience metric; 1.0 for any fault-free run)."""
        if self.packets_created == 0:
            return 1.0
        return self.packets_measured / self.packets_created

    @property
    def throughput_flits_per_node_cycle(self) -> float:
        if self.cycles == 0 or self.num_nodes == 0:
            return 0.0
        return self.flits_ejected / (self.cycles * self.num_nodes)

    @property
    def total_wakeups(self) -> int:
        return sum(r.wakeups for r in self.routers)

    @property
    def avg_off_fraction(self) -> float:
        if not self.routers:
            return 0.0
        return sum(r.off_fraction for r in self.routers) / len(self.routers)

    @property
    def avg_idle_fraction(self) -> float:
        """Average fraction of cycles a router's datapath sat idle."""
        if not self.routers or self.cycles == 0:
            return 0.0
        total = sum(r.idle_cycles for r in self.routers)
        return total / (self.cycles * len(self.routers))

    def idle_period_stats(self, bet: int) -> "IdlePeriodStats":
        from .idle import IdlePeriodStats  # local import, no cycle

        return IdlePeriodStats.from_histogram(
            self.idle_periods, bet, censored=self.censored_idle_periods)

    # -- serialization (on-disk result cache) ------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict; inverse of :meth:`from_dict`.

        Scalars by name; ``routers`` as rows in :data:`ROUTER_FIELDS`
        order; the idle histograms as ascending ``[length, count]``
        pairs (JSON object keys would be strings).
        """
        data = {name: getattr(self, name) for name in _SCALARS}
        data["routers"] = [list(_router_row(a)) for a in self.routers]
        data["idle_periods"] = [list(p)
                                for p in sorted(self.idle_periods.items())]
        data["censored_idle_periods"] = [
            list(p) for p in sorted(self.censored_idle_periods.items())]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunResult":
        """Raises ``ValueError`` for a router row that is not one value
        per field: every field has a default, so a short row would
        otherwise load as zeros."""
        rows = data["routers"]
        width = len(ROUTER_FIELDS)
        if set(map(len, rows)) - {width}:
            raise ValueError(f"router rows must hold {width} values")
        return cls(**{
            **data, "routers": [RouterActivity(*row) for row in rows],
            "idle_periods": dict(data["idle_periods"]),
            "censored_idle_periods": dict(data["censored_idle_periods"])})


#: ``RouterActivity``'s fields in declaration order: the order of a
#: stored router row.
ROUTER_FIELDS = tuple(f.name for f in dataclasses.fields(RouterActivity))
_router_row = attrgetter(*ROUTER_FIELDS)

#: ``RunResult``'s scalar fields, stored by name.  Only what equality
#: compares is stored: host timing and the producing kernel would make
#: a cached result differ byte for byte between machines (or kernels).
_SCALARS = tuple(
    f.name for f in dataclasses.fields(RunResult) if f.compare
    and f.name not in ("routers", "idle_periods", "censored_idle_periods"))


class StatsCollector:
    """Attached to a network; accumulates measurement-window statistics."""

    def __init__(self, design: str, num_nodes: int) -> None:
        self.design = design
        self.num_nodes = num_nodes
        self.measuring = False
        self.measure_start: Optional[int] = None
        self.measure_end: Optional[int] = None
        self.packets_created = 0
        self.packets_ejected = 0
        self.packets_measured = 0
        self.total_latency = 0
        self.total_hops = 0
        self.total_misroutes = 0
        self.total_bypass_hops = 0
        self.total_wakeup_stalls = 0
        self.flits_ejected = 0
        # Fault accounting (see RunResult for the semantics).
        self.packets_failed = 0
        self.packets_corrupted = 0
        self.packets_duplicate = 0
        self.packets_retransmitted = 0
        self.flits_corrupted = 0
        self.flits_dropped = 0
        self.credits_lost = 0
        # Idle tracking, fed by the datapath's idleness edges
        # (note_idle/note_busy).
        self._idle_begin: List[Optional[int]] = [None] * num_nodes
        self.idle_periods: Dict[int, int] = {}
        #: Window-truncated idle runs: length-so-far -> count.
        self.censored_idle_periods: Dict[int, int] = {}
        self.idle_cycles = [0] * num_nodes

    # -- window control ----------------------------------------------------
    def start_measurement(self, now: int) -> None:
        self.measuring = True
        self.measure_start = now

    def stop_measurement(self, now: int) -> None:
        self.measuring = False
        self.measure_end = now
        for node in range(self.num_nodes):
            # Routers still idle when the window closes contribute a
            # *censored* period: its true length is unknown, so it must
            # not enter the completed-period histogram (it would record
            # e.g. an always-idle router as one window-length period and
            # bias short_fraction downward).
            begin = self._idle_begin[node]
            if begin is not None and self.measure_start is not None:
                start = max(begin, self.measure_start + 1)
                run = now - start + 1
                if run > 0:
                    self.censored_idle_periods[run] = \
                        self.censored_idle_periods.get(run, 0) + 1
                    self.idle_cycles[node] += run

    def in_window(self, cycle: Optional[int]) -> bool:
        if cycle is None or self.measure_start is None:
            return False
        end = self.measure_end if self.measure_end is not None else float("inf")
        return self.measure_start <= cycle < end

    # -- event hooks ---------------------------------------------------------
    def on_packet_created(self, packet: "Packet") -> None:
        if self.measuring:
            self.packets_created += 1

    def on_flit_ejected(self) -> None:
        if self.measuring:
            self.flits_ejected += 1

    def on_packet_ejected(self, packet: "Packet") -> None:
        self.packets_ejected += 1
        if self.in_window(packet.created_cycle):
            self.packets_measured += 1
            self.total_latency += packet.latency
            self.total_hops += packet.hops
            self.total_misroutes += packet.misroutes
            self.total_bypass_hops += packet.bypass_hops
            self.total_wakeup_stalls += packet.wakeup_stall_cycles

    # -- fault-event hooks (no-ops in fault-free runs) -----------------------
    def on_packet_failed(self, packet: "Packet") -> None:
        """The packet is permanently lost (in-window packets only)."""
        if self.in_window(packet.created_cycle):
            self.packets_failed += 1

    def on_packet_corrupted(self, packet: "Packet") -> None:
        if self.in_window(packet.created_cycle):
            self.packets_corrupted += 1

    def on_packet_duplicate(self, packet: "Packet") -> None:
        if self.in_window(packet.created_cycle):
            self.packets_duplicate += 1

    def on_packet_retransmitted(self, packet: "Packet") -> None:
        if self.in_window(packet.created_cycle):
            self.packets_retransmitted += 1

    def on_flit_corrupted(self) -> None:
        self.flits_corrupted += 1

    def on_flit_dropped(self) -> None:
        self.flits_dropped += 1

    def on_credit_lost(self) -> None:
        self.credits_lost += 1

    def note_idle(self, node: int, cycle: int) -> None:
        """Edge API: the router's datapath emptied at ``cycle`` (or was
        empty at construction, ``cycle`` 0).  Opens an idle run; safe to
        call redundantly while a run is already open."""
        if self._idle_begin[node] is None:
            self._idle_begin[node] = cycle

    def note_busy(self, node: int, cycle: int) -> None:
        """Edge API: the router's datapath became occupied at ``cycle``.

        Closes the open idle run.  The run is clipped to the measurement
        window (runs opened before it started begin at
        ``measure_start + 1``, the first observed cycle), so pre-window
        history never leaks into the histogram.
        """
        begin = self._idle_begin[node]
        self._idle_begin[node] = None
        if begin is None or not self.measuring:
            return
        start = max(begin, self.measure_start + 1)
        run = cycle - start
        if run > 0:
            self.idle_periods[run] = self.idle_periods.get(run, 0) + 1
            self.idle_cycles[node] += run
