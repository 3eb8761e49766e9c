"""Figure 6: impact of powering on routers (Section 4.4).

The paper's offline all-pairs shortest-path program (one BFS / Dijkstra
per source here, see :mod:`repro.core.placement`): for each number k of
powered-on routers, the best (greedy) set of k routers and the resulting
average node-to-node distance and per-hop latency over the NoRD
reachability graph.  With all routers off, packets ride the Bypass Ring
(short 3-cycle hops, long paths); powering on a few well-placed routers
collapses the average distance at a modest per-hop-latency cost - the
knee the paper uses to pick its six performance-centric routers
{4, 5, 6, 7, 13, 14}.

The answer depends only on the mesh and the code, so it is kept in the
result cache like a simulated point: a checksummed record keyed by the
cache format, :func:`~repro.experiments.parallel.code_version`, the
analysis name and the mesh size.  It follows the installed runner's
``use_cache`` and is not a design point: it never counts as a cache hit
or miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from . import parallel
from ..config import stable_hash
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
    runner = parallel.get_runner()
    if not runner.use_cache:
        return _analyse(width, height)
    key = stable_hash({"format": parallel.CACHE_FORMAT,
                       "code": parallel.code_version(),
                       "analysis": "fig6_placement",
                       "width": width, "height": height})
    res = runner.cache.get(key, decode=_decode)
    if res is None:
        res = _analyse(width, height)
        runner.cache.put(key, res, encode=_encode)
    return res


def _analyse(width: int, height: int) -> Fig6Result:
    mesh = Mesh(width, height)
    ring = build_ring(mesh)
    analysis = PlacementAnalysis(mesh, ring)
    curve = analysis.greedy_selection()
    paper_metrics = analysis.metrics(PAPER_PERF_CENTRIC_4X4) \
        if (width, height) == (4, 4) else None
    return Fig6Result(curve=curve, paper_set_metrics=paper_metrics,
                      knee_set=curve[6][0] if len(curve) > 6 else curve[-1][0])


def _encode(res: Fig6Result) -> Dict[str, Any]:
    """The cache record of ``res``: sets as sorted lists, floats as JSON
    writes them (exactly), and a SHA-256 over all of it."""
    analysis = {"curve": [[sorted(routers), dist, lat]
                          for routers, dist, lat in res.curve],
                "paper_set_metrics": res.paper_set_metrics,
                "knee_set": sorted(res.knee_set)}
    return {"analysis": analysis, "sha256": stable_hash(analysis)}


def _decode(record: Dict[str, Any]) -> Optional[Fig6Result]:
    """The result ``record`` carries, or None when it cannot be trusted
    (a field missing or of the wrong shape, or values that are not the
    ones the checksum was taken over)."""
    try:
        analysis = record["analysis"]
        if record["sha256"] != stable_hash(analysis):
            return None
        paper = analysis["paper_set_metrics"]
        return Fig6Result(
            curve=[(frozenset(routers), dist, lat)
                   for routers, dist, lat in analysis["curve"]],
            paper_set_metrics=None if paper is None else tuple(paper),
            knee_set=frozenset(analysis["knee_set"]))
    except (KeyError, TypeError, ValueError):
        return None


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
