"""Figure 6: impact of powering on routers (Section 4.4).

The offline Floyd-Warshall program: for each number k of powered-on
routers, the best (greedy) set of k routers and the resulting average
node-to-node distance and per-hop latency over the NoRD reachability
graph.  With all routers off, packets ride the Bypass Ring (short 3-cycle
hops, long paths); powering on a few well-placed routers collapses the
average distance at a modest per-hop-latency cost - the knee the paper
uses to pick its six performance-centric routers {4, 5, 6, 7, 13, 14}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from ..core.placement import (PAPER_PERF_CENTRIC_4X4, PlacementAnalysis)
from ..core.ring import build_ring
from ..noc.topology import Mesh
from ..stats.report import format_table


@dataclass
class Fig6Result:
    #: per k: (router set, avg node-to-node hops, avg per-hop latency)
    curve: List[Tuple[FrozenSet[int], float, float]]
    #: metrics of the paper's own six routers; None off the 4x4 mesh
    paper_set_metrics: Optional[Tuple[float, float]]
    knee_set: FrozenSet[int]


def run(scale: str = "bench", seed: int = 1, *, width: int = 4,
        height: int = 4) -> Fig6Result:
    mesh = Mesh(width, height)
    ring = build_ring(mesh)
    analysis = PlacementAnalysis(mesh, ring)
    curve = analysis.greedy_selection()
    paper_metrics = analysis.metrics(PAPER_PERF_CENTRIC_4X4) \
        if (width, height) == (4, 4) else None
    return Fig6Result(curve=curve, paper_set_metrics=paper_metrics,
                      knee_set=curve[6][0] if len(curve) > 6 else curve[-1][0])


def report(res: Fig6Result) -> str:
    rows = []
    for k, (routers, dist, lat) in enumerate(res.curve):
        rows.append((k, f"{dist:.2f}", f"{lat:.2f}",
                     ",".join(str(r) for r in sorted(routers)) or "-"))
    table = format_table(
        ("#on", "avg distance (hops)", "per-hop latency (cyc)", "router set"),
        rows, title="Figure 6: impact of powering-on routers")
    if res.paper_set_metrics is None:
        return table
    return (f"{table}\n"
            f"paper's perf-centric set {sorted(PAPER_PERF_CENTRIC_4X4)}: "
            f"distance={res.paper_set_metrics[0]:.2f} hops, "
            f"per-hop={res.paper_set_metrics[1]:.2f} cycles")
