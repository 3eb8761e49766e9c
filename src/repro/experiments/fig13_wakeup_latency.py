"""Figure 13: hiding wakeup latency (Section 6.6).

Uniform-random traffic at the PARSEC-average load rate while varying the
router wakeup latency from 9 to 18 cycles.  Paper: Conv_PG and
Conv_PG_OPT latencies climb ~1.5x across that range (every wakeup sits on
the critical path); NoRD's latency stays flat because the bypass carries
packets while routers wake.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Tuple

from ..config import Design
from ..stats.report import format_table
from ..traffic.parsec import PROFILES
from . import parallel
from .common import build_config, mean

DESIGNS = (Design.CONV_PG, Design.CONV_PG_OPT, Design.NORD)
WAKEUP_LATENCIES = (9, 12, 15, 18)

#: PARSEC-average injection rate (mean over the benchmark profiles).
PARSEC_AVG_RATE = round(mean(p.rate for p in PROFILES.values()), 3)


@dataclass
class Fig13Result:
    #: latency[wakeup_latency][design] in cycles
    latency: Dict[int, Dict[str, float]]
    rate: float

    def slope(self, design: str) -> float:
        """Relative latency growth from the lowest to highest wakeup
        latency (paper: ~1.5x for conventional PG, ~1.0x for NoRD)."""
        lats = self.latency
        low, high = min(lats), max(lats)
        return lats[high][design] / lats[low][design]


def run(scale: str = "bench", seed: int = 1,
        wakeup_latencies: Tuple[int, ...] = WAKEUP_LATENCIES) -> Fig13Result:
    grid = [(wl, design) for wl in wakeup_latencies for design in DESIGNS]
    points = []
    for wl, design in grid:
        cfg = build_config(design, scale, seed=seed)
        cfg = cfg.replace(pg=dataclasses.replace(cfg.pg, wakeup_latency=wl))
        points.append(parallel.DesignPoint(
            cfg=cfg,
            traffic=parallel.uniform_spec(PARSEC_AVG_RATE, seed=seed)))
    latency: Dict[int, Dict[str, float]] = {wl: {} for wl in wakeup_latencies}
    for (wl, design), (result, _) in zip(grid, parallel.submit(points)):
        latency[wl][design] = result.avg_packet_latency
    return Fig13Result(latency=latency, rate=PARSEC_AVG_RATE)


def report(res: Fig13Result) -> str:
    rows = [(wl,) + tuple(f"{res.latency[wl][d]:.1f}" for d in DESIGNS)
            for wl in sorted(res.latency)]
    table = format_table(("wakeup latency",) + DESIGNS, rows,
                         title=f"Figure 13: impact of wakeup latency "
                               f"(uniform random @ {res.rate})")
    extra = "\n".join(
        f"{d}: {res.slope(d):.2f}x growth from "
        f"{min(res.latency)} to {max(res.latency)} cycles"
        for d in DESIGNS
    )
    return table + "\n" + extra
