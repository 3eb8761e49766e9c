"""PARSEC-like workload models.

The paper drives its primary evaluation with full-system simulation of ten
multi-threaded PARSEC 2.0 benchmarks on a 16-core CMP with a shared L2 and
MOESI coherence (Table 1).  Simics/GEMS is not available here, so each
benchmark is modelled as a stochastic traffic source whose NoC-visible
behaviour matches what the paper reports:

* **load level** - per-benchmark mean injection rate calibrated so router
  idleness reproduces Section 3.1 (x264 busiest at 30.4% idle,
  blackscholes lightest at 71.2% idle, the others in between);
* **burstiness** - an ON/OFF Markov-modulated process (geometric dwell
  times) that fragments idle periods the way cache-miss bursts do,
  producing the >61%-of-idle-periods-below-BET behaviour of Figure 3;
* **traffic mix** - a fraction of packets are memory requests (1 flit) to
  the corner memory controllers, each generating a 5-flit reply after the
  128-cycle memory latency; the rest are node-to-node (coherence-like)
  packets with the bimodal 1/5-flit length split;
* **network sensitivity** - how strongly end-to-end execution time reacts
  to average packet latency, used by the Figure 12 execution-time model.

These are synthetic stand-ins, not traces; DESIGN.md documents the
substitution and why it preserves the phenomena under study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from ..noc.topology import Mesh
from .base import (LONG_PACKET_FLITS, SHORT_PACKET_FLITS, Arrival,
                   TrafficGenerator)

#: Memory access latency in cycles (Table 1).
MEMORY_LATENCY = 128


@dataclass(frozen=True)
class BenchmarkProfile:
    """Calibrated traffic parameters for one PARSEC benchmark."""

    name: str
    #: Mean injection rate in flits/node/cycle (when averaged over ON and
    #: OFF burst phases).
    rate: float
    #: Mean length of an ON burst in cycles.
    burst_on: int
    #: Mean length of an OFF (quiet) phase in cycles.
    burst_off: int
    #: Fraction of generated packets that are memory requests.
    mem_fraction: float
    #: Execution-time sensitivity to average packet latency (Figure 12):
    #: d(exec time)/(exec time) per d(latency)/(latency).
    sensitivity: float
    #: Router idleness the paper reports/implies (for calibration checks).
    target_idle: float
    #: Mean length of a global ACTIVE phase in cycles.  Multi-threaded
    #: PARSEC applications have global structure - barriers, serial
    #: sections, memory-stall phases - during which the whole NoC quiesces
    #: together; these long harvestable idle periods coexist with the
    #: short fragmented ones inside active phases (Figure 3).
    phase_active: int = 400
    #: Mean length of a global QUIET phase in cycles.
    phase_quiet: int = 250
    #: Fraction of the normal injection probability that persists during
    #: QUIET phases (straggler threads, background coherence traffic).
    quiet_trickle: float = 0.05


#: The ten PARSEC 2.0 benchmarks of the paper's evaluation, ordered as in
#: its figures.  Rates are calibrated against the 4x4 No_PG baseline;
#: global phase structure is loosely based on each benchmark's
#: parallelization style (data-parallel vs. pipeline vs. barrier-heavy).
PROFILES: Dict[str, BenchmarkProfile] = {
    p.name: p for p in [
        BenchmarkProfile("blackscholes", 0.036, 40, 180, 0.35, 0.10, 0.712,
                         phase_active=300, phase_quiet=500),
        BenchmarkProfile("bodytrack",    0.077, 60, 90,  0.30, 0.22, 0.52,
                         phase_active=350, phase_quiet=250),
        BenchmarkProfile("canneal",      0.108, 80, 60,  0.35, 0.38, 0.35,
                         phase_active=600, phase_quiet=150),
        BenchmarkProfile("dedup",        0.108, 70, 70,  0.35, 0.30, 0.38,
                         phase_active=500, phase_quiet=180),
        BenchmarkProfile("ferret",       0.092, 60, 80,  0.30, 0.28, 0.45,
                         phase_active=450, phase_quiet=220),
        BenchmarkProfile("fluidanimate", 0.075, 50, 100, 0.25, 0.20, 0.55,
                         phase_active=300, phase_quiet=300),
        BenchmarkProfile("raytrace",     0.060, 50, 120, 0.25, 0.15, 0.62,
                         phase_active=350, phase_quiet=400),
        BenchmarkProfile("swaptions",    0.053, 40, 140, 0.20, 0.12, 0.65,
                         phase_active=300, phase_quiet=450),
        BenchmarkProfile("vips",         0.097, 70, 75,  0.30, 0.26, 0.42,
                         phase_active=500, phase_quiet=200),
        BenchmarkProfile("x264",         0.128, 100, 45, 0.35, 0.34, 0.304,
                         phase_active=700, phase_quiet=120),
    ]
}

BENCHMARKS: Tuple[str, ...] = tuple(PROFILES)


class ParsecTraffic(TrafficGenerator):
    """Markov-modulated request/reply traffic for one benchmark."""

    def __init__(self, mesh: Mesh, profile: BenchmarkProfile,
                 seed: int = 1) -> None:
        super().__init__(mesh.num_nodes, seed)
        self.mesh = mesh
        self.profile = profile
        self.mem_controllers = mesh.corners()
        # Per-node burst state: True = ON.  Stagger the initial states so
        # nodes are not phase-locked.
        self._on = [self.rng.random() < self._duty for _ in range(mesh.num_nodes)]
        # Pending memory replies: cycle -> list of (src_mc, dst_node).
        self._replies: Dict[int, List[Tuple[int, int]]] = {}
        # Global application phase (True = ACTIVE).
        self._phase_active = True
        # The ON-phase packet probability is scaled so the long-run mean
        # flit rate equals profile.rate.
        g = self._global_duty
        trickle = profile.quiet_trickle
        effective_duty = self._duty * (g + (1.0 - g) * trickle)
        self._p_on = (profile.rate / self.mean_packet_length) / effective_duty
        # Per-cycle probabilities that a node's ON / OFF burst ends.
        self._p_burst_end = 1.0 / profile.burst_on
        self._p_burst_start = 1.0 / profile.burst_off

    @property
    def _duty(self) -> float:
        p = self.profile
        return p.burst_on / (p.burst_on + p.burst_off)

    @property
    def _global_duty(self) -> float:
        p = self.profile
        return p.phase_active / (p.phase_active + p.phase_quiet)

    def _step_phase(self) -> None:
        p = self.profile
        if self._phase_active:
            if self.rng.random() < 1.0 / p.phase_active:
                self._phase_active = False
        elif self.rng.random() < 1.0 / p.phase_quiet:
            self._phase_active = True

    def arrivals(self, cycle: int) -> Iterable[Arrival]:
        out: List[Arrival] = []
        for mc, dst in self._replies.pop(cycle, ()):  # memory replies
            out.append((mc, dst, LONG_PACKET_FLITS))
        self._step_phase()
        p_now = self._p_on
        if not self._phase_active:
            p_now *= self.profile.quiet_trickle
        rand = self.rng.random
        randrange = self.rng.randrange
        on = self._on
        p_end, p_start = self._p_burst_end, self._p_burst_start
        mem_fraction = self.profile.mem_fraction
        others = self.num_nodes - 1
        # Per node, in this order: step the ON/OFF burst state, draw
        # whether an ON node sends, then the packet's kind, destination
        # and (node-to-node packets) its length (packet_length, inlined).
        for src in range(self.num_nodes):
            if on[src]:
                if rand() < p_end:
                    on[src] = False
                    continue
            elif rand() < p_start:
                on[src] = True
            else:
                continue
            if rand() >= p_now:
                continue
            if rand() < mem_fraction:
                mc = self.rng.choice(self.mem_controllers)
                if mc != src:
                    out.append((src, mc, SHORT_PACKET_FLITS))
                    due = cycle + MEMORY_LATENCY + randrange(16)
                    self._replies.setdefault(due, []).append((mc, src))
            else:
                dst = randrange(others)
                dst = dst if dst < src else dst + 1
                out.append((src, dst, SHORT_PACKET_FLITS if rand() < 0.5
                            else LONG_PACKET_FLITS))
        return out


def make_traffic(mesh: Mesh, benchmark: str, seed: int = 1) -> ParsecTraffic:
    """Build the traffic model for one of the paper's benchmarks."""
    try:
        profile = PROFILES[benchmark]
    except KeyError:
        raise ValueError(f"unknown benchmark {benchmark!r}; "
                         f"known: {list(PROFILES)}") from None
    return ParsecTraffic(mesh, profile, seed)
