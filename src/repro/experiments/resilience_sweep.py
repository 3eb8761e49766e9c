"""Resilience sweep: how each design degrades under injected faults.

Not a paper figure - this exercises the :mod:`repro.faults` subsystem
end to end.  Three scenarios run across all four designs:

* ``fault-free`` - the baseline each design's inflation is measured
  against (identical to every other experiment's runs; with an empty
  plan it shares their cache entries);
* ``router-fail`` - one router hard-fails early in warmup.  NoRD keeps
  the node reachable over the bypass ring and must deliver 100% of
  packets; the conventional designs drop traffic through/to the dead
  router and record it as failed instead of deadlocking;
* ``link-noise`` - uniform per-link flit corruption with end-to-end
  detection and NI retransmission; delivery recovers to ~100% at the
  cost of latency inflation and retransmission overhead.

The headline columns are delivered-packet fraction, latency inflation
vs the same design's fault-free run, and the retransmission overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..config import Design
from ..faults import FaultPlan
from ..stats.collector import RunResult
from ..stats.report import format_table
from . import parallel
from .common import build_config

#: Node that hard-fails in the ``router-fail`` scenario (a center node
#: of the 4x4 mesh, so all designs must route around it) and the cycle
#: it dies at (early in warmup: the steady state is all-post-fault).
FAILED_NODE = 5
FAIL_CYCLE = 60

#: Per-link flit corruption probability in the ``link-noise`` scenario.
CORRUPT_RATE = 2e-3

#: Injection rate (flits/node/cycle, uniform random) for every run.
RATE = 0.05


def scenarios(seed: int = 1) -> List[Tuple[str, Optional[FaultPlan]]]:
    """The (name, plan) list; ``None`` marks the fault-free baseline."""
    return [
        ("fault-free", None),
        ("router-fail", FaultPlan.single_router_failure(
            FAILED_NODE, FAIL_CYCLE, seed=seed)),
        ("link-noise", FaultPlan.uniform_link_noise(
            corrupt_rate=CORRUPT_RATE, seed=seed, retransmit=True)),
    ]


@dataclass
class ResilienceResult:
    #: results[scenario][design]
    results: Dict[str, Dict[str, RunResult]]

    def inflation(self, scenario: str, design: str) -> float:
        """Latency inflation vs the same design's fault-free run."""
        base = self.results["fault-free"][design].avg_packet_latency
        faulted = self.results[scenario][design].avg_packet_latency
        return faulted / base - 1.0


def run(scale: str = "bench", seed: int = 1) -> ResilienceResult:
    cells = [(name, plan, design)
             for name, plan in scenarios(seed)
             for design in Design.ALL]
    points = [
        parallel.DesignPoint(
            cfg=build_config(design, scale, seed=seed),
            traffic=parallel.uniform_spec(RATE, seed=seed),
            faults=plan,
        )
        for name, plan, design in cells
    ]
    results: Dict[str, Dict[str, RunResult]] = {}
    for (name, _plan, design), outcome in zip(cells,
                                              parallel.submit(points)):
        results.setdefault(name, {})[design] = outcome[0]
    return ResilienceResult(results=results)


def report(res: ResilienceResult) -> str:
    rows = []
    for name, by_design in res.results.items():
        for design in Design.ALL:
            r = by_design[design]
            rows.append((
                name, design,
                f"{r.delivered_fraction:.4f}",
                str(r.packets_failed),
                str(r.packets_corrupted),
                str(r.packets_retransmitted),
                f"{r.avg_packet_latency:.1f}",
                f"{res.inflation(name, design):+.1%}",
            ))
    table = format_table(
        ("scenario", "design", "delivered", "failed", "corrupt",
         "retx", "latency", "inflation"),
        rows,
        title="Resilience: fault injection across designs")
    nord = res.results["router-fail"][Design.NORD]
    extra = (
        f"\nrouter-fail: NoRD delivers "
        f"{nord.delivered_fraction:.1%} over the bypass ring; "
        f"conventional designs shed "
        + ", ".join(
            f"{res.results['router-fail'][d].packets_failed}"
            for d in (Design.NO_PG, Design.CONV_PG, Design.CONV_PG_OPT))
        + f" packets (No_PG, Conv_PG, Conv_PG_OPT) at node {FAILED_NODE}."
    )
    return table + extra
