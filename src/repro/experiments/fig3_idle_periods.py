"""Figure 3 / Section 3.1-3.2: router idleness and idle-period fragmentation.

Reproduces the motivation numbers measured on the No_PG baseline:

* routers are idle 30%~70% of the time across PARSEC, with x264 the
  busiest (30.4% idle) and blackscholes the lightest (71.2% idle);
* intermittent packet arrivals fragment idleness so that more than 61% of
  idle periods are no longer than the breakeven time (~10 cycles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..config import Design, PowerGateConfig
from ..stats.report import format_table, percent
from ..traffic.parsec import BENCHMARKS
from .common import mean, parsec_sweep


@dataclass
class IdleRow:
    benchmark: str
    idle_fraction: float
    short_fraction: float      # idle periods <= BET
    gateable_fraction: float   # idle cycles in periods > BET
    mean_period: float


@dataclass
class Fig3Result:
    rows: List[IdleRow]
    bet: int

    @property
    def avg_idle(self) -> float:
        return mean(r.idle_fraction for r in self.rows)

    @property
    def avg_short_fraction(self) -> float:
        return mean(r.short_fraction for r in self.rows)


def run(scale: str = "bench", seed: int = 1) -> Fig3Result:
    bet = PowerGateConfig().breakeven_time
    sweep = parsec_sweep(scale, seed, designs=(Design.NO_PG,))
    rows: List[IdleRow] = []
    for bench in BENCHMARKS:
        result, _ = sweep[bench][Design.NO_PG]
        stats = result.idle_period_stats(bet)
        rows.append(IdleRow(
            benchmark=bench,
            idle_fraction=result.avg_idle_fraction,
            short_fraction=stats.short_fraction,
            gateable_fraction=stats.gateable_fraction,
            mean_period=stats.mean_length,
        ))
    return Fig3Result(rows=rows, bet=bet)


def report(res: Fig3Result) -> str:
    rows = [(r.benchmark, percent(r.idle_fraction), percent(r.short_fraction),
             percent(r.gateable_fraction), f"{r.mean_period:.1f}")
            for r in res.rows]
    rows.append(("AVG", percent(res.avg_idle),
                 percent(res.avg_short_fraction), "-", "-"))
    return format_table(
        ("benchmark", "router idle", f"periods<=BET({res.bet})",
         "idle cycles>BET", "mean period"),
        rows,
        title="Figure 3 / Section 3.1: idleness and fragmentation (No_PG)")
