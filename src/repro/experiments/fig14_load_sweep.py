"""Figure 14: 16-node behavior across the full load range (Section 6.7).

Uniform-random traffic from near-zero load to saturation, comparing
No_PG, Conv_PG_OPT and NoRD on average packet latency and NoC power.
The paper's three regions:

1. low-to-medium load: power-gating designs start with elevated latency
   (wakeups for Conv_PG_OPT, detours for NoRD) that *decreases* as load
   wakes more routers; NoRD has both lower latency and lower power than
   Conv_PG_OPT;
2. medium-to-high load: all three designs converge;
3. saturation: NoRD saturates slightly earlier (its escape ring is less
   flexible than escape XY).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from ..config import Design
from ..stats.report import format_table
from . import parallel
from .common import build_config

DESIGNS = (Design.NO_PG, Design.CONV_PG_OPT, Design.NORD)
RATES_16 = (0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5)


@dataclass
class SweepPoint:
    latency: float
    power_w: float
    throughput: float
    delivered_fraction: float
    off_fraction: float


@dataclass
class LoadSweepResult:
    #: points[rate][design]
    points: Dict[float, Dict[str, SweepPoint]]
    pattern: str
    num_nodes: int

    def saturation_rate(self, design: str,
                        threshold: float = 3.0) -> float:
        """First swept rate whose latency exceeds ``threshold`` x the
        zero-load latency (a simple saturation criterion)."""
        rates = sorted(self.points)
        base = self.points[rates[0]][design].latency
        for rate in rates:
            if self.points[rate][design].latency > threshold * base:
                return rate
        return float("inf")


def sweep(designs: Tuple[str, ...], rates: Tuple[float, ...],
          spec: Callable[..., "parallel.TrafficSpec"], *, width: int,
          height: int, pattern: str, scale: str, seed: int
          ) -> LoadSweepResult:
    """Sweep ``rates`` x ``designs`` as one parallel batch.

    ``spec`` builds the traffic specification for one rate (e.g.
    :func:`repro.experiments.parallel.uniform_spec`).
    """
    grid = [(rate, design) for rate in rates for design in designs]
    design_points = [
        parallel.DesignPoint(
            cfg=build_config(design, scale, width=width, height=height,
                             seed=seed),
            traffic=spec(rate, seed=seed),
        )
        for rate, design in grid
    ]
    points: Dict[float, Dict[str, SweepPoint]] = {rate: {} for rate in rates}
    for (rate, design), (result, report_) in zip(
            grid, parallel.submit(design_points)):
        delivered = (result.packets_ejected / result.packets_created
                     if result.packets_created else 1.0)
        points[rate][design] = SweepPoint(
            latency=result.avg_packet_latency,
            power_w=report_.avg_power_w,
            throughput=result.throughput_flits_per_node_cycle,
            delivered_fraction=min(1.0, delivered),
            off_fraction=result.avg_off_fraction,
        )
    return LoadSweepResult(points=points, pattern=pattern,
                           num_nodes=width * height)


def run(scale: str = "bench", seed: int = 1,
        rates: Tuple[float, ...] = RATES_16) -> LoadSweepResult:
    return sweep(DESIGNS, rates, parallel.uniform_spec, width=4, height=4,
                 pattern="uniform random", scale=scale, seed=seed)


def sweep_table(res: LoadSweepResult, title: str) -> str:
    """Latency and power per design against injection rate (the table
    of Figures 14 and 15)."""
    headers = ("rate",) + tuple(f"{d} lat" for d in DESIGNS) \
        + tuple(f"{d} W" for d in DESIGNS)
    rows = []
    for rate in sorted(res.points):
        row = [f"{rate:.2f}"]
        row += [f"{res.points[rate][d].latency:.1f}" for d in DESIGNS]
        row += [f"{res.points[rate][d].power_w:.2f}" for d in DESIGNS]
        rows.append(tuple(row))
    return format_table(headers, rows, title=title)


def report(res: LoadSweepResult) -> str:
    return sweep_table(res, f"Figure 14: {res.num_nodes}-node "
                            f"{res.pattern} load sweep")
