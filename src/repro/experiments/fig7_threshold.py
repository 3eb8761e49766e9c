"""Figure 7: determining the wakeup thresholds (Section 6.1).

All routers are forced into sleep without waking up, concentrating traffic
on the Bypass Ring, and the average packet latency plus the number of VC
requests at the NIs (averaged per router per 10-cycle window) is recorded
while varying the load.  The paper's observations:

* the Bypass Ring alone saturates at ~14% of the full-network throughput;
* a threshold of 4+ VC requests costs ~60% extra latency, so the paper
  assigns 1 to performance-centric routers and 3 to power-centric ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..config import Design
from ..stats.report import format_table
from . import parallel
from .common import build_config


@dataclass
class ThresholdPoint:
    rate: float
    latency: float
    requests_per_window: float
    delivered_fraction: float


@dataclass
class Fig7Result:
    points: List[ThresholdPoint]
    window: int

    def rate_for_requests(self, req: int) -> Optional[float]:
        """Smallest swept rate at which the request metric reaches ``req``
        (the paper's Req=k annotations along the curve)."""
        for p in self.points:
            if p.requests_per_window >= req:
                return p.rate
        return None


RATES = (0.005, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.10)


def run(scale: str = "bench", seed: int = 1,
        rates: Tuple[float, ...] = RATES) -> Fig7Result:
    design_points = [
        parallel.DesignPoint(
            cfg=build_config(Design.NORD, scale, seed=seed),
            traffic=parallel.uniform_spec(rate, seed=seed),
            prepare="force_all_off",
        )
        for rate in rates
    ]
    points: List[ThresholdPoint] = []
    window = None
    for rate, (result, _) in zip(rates, parallel.submit(design_points)):
        window = 10
        total_requests = sum(r.ni_vc_requests for r in result.routers)
        per_window = (total_requests * window /
                      (result.cycles * result.num_nodes))
        delivered = (result.packets_ejected / result.packets_created
                     if result.packets_created else 1.0)
        points.append(ThresholdPoint(
            rate=rate, latency=result.avg_packet_latency,
            requests_per_window=per_window,
            delivered_fraction=min(1.0, delivered),
        ))
    return Fig7Result(points=points, window=window or 10)


def report(res: Fig7Result) -> str:
    rows = [(f"{p.rate:.3f}", f"{p.latency:.1f}",
             f"{p.requests_per_window:.2f}", f"{p.delivered_fraction:.2f}")
            for p in res.points]
    table = format_table(
        ("inj rate", "avg latency", f"VC req/{res.window}cyc", "delivered"),
        rows, title="Figure 7: bypass-ring-only latency and wakeup metric")
    marks = []
    for req in range(1, 6):
        rate = res.rate_for_requests(req)
        marks.append(f"Req={req} @ rate "
                     f"{'%.3f' % rate if rate is not None else '>max'}")
    return table + "\n" + "; ".join(marks)
