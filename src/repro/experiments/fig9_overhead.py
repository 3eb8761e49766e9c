"""Figure 9: reduction of power-gating overhead (Section 6.3).

(a) energy overhead spent on router wakeups, normalized to Conv_PG
    (paper: NoRD reduces it by 80.7% vs Conv_PG, 74.0% vs Conv_PG_OPT);
(b) number of router wakeups, normalized to Conv_PG
    (paper: NoRD 81.0% / 73.3% fewer than Conv_PG / Conv_PG_OPT).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..config import Design
from ..stats.report import format_table, percent
from ..traffic.parsec import BENCHMARKS
from .common import mean, parsec_sweep

GATED = (Design.CONV_PG, Design.CONV_PG_OPT, Design.NORD)


@dataclass
class Fig9Result:
    #: overhead_norm[benchmark][design] = wakeup energy / Conv_PG's
    overhead_norm: Dict[str, Dict[str, float]]
    #: wakeups_norm[benchmark][design] = wakeup count / Conv_PG's
    wakeups_norm: Dict[str, Dict[str, float]]

    def avg_overhead(self, design: str) -> float:
        return mean(self.overhead_norm[b][design]
                    for b in self.overhead_norm)

    def avg_wakeups(self, design: str) -> float:
        return mean(self.wakeups_norm[b][design] for b in self.wakeups_norm)

    def overhead_reduction(self, design: str, versus: str) -> float:
        return 1.0 - self.avg_overhead(design) / self.avg_overhead(versus)

    def wakeup_reduction(self, design: str, versus: str) -> float:
        return 1.0 - self.avg_wakeups(design) / self.avg_wakeups(versus)


def run(scale: str = "bench", seed: int = 1) -> Fig9Result:
    sweep = parsec_sweep(scale, seed, designs=GATED)
    overhead: Dict[str, Dict[str, float]] = {}
    wakeups: Dict[str, Dict[str, float]] = {}
    for bench in BENCHMARKS:
        base_energy = sweep[bench][Design.CONV_PG][1].pg_overhead_j
        base_wakeups = sweep[bench][Design.CONV_PG][0].total_wakeups
        overhead[bench] = {}
        wakeups[bench] = {}
        for design in GATED:
            result, report_ = sweep[bench][design]
            overhead[bench][design] = (report_.pg_overhead_j / base_energy
                                       if base_energy else 0.0)
            wakeups[bench][design] = (result.total_wakeups / base_wakeups
                                      if base_wakeups else 0.0)
    return Fig9Result(overhead_norm=overhead, wakeups_norm=wakeups)


def report(res: Fig9Result) -> str:
    rows_a = [(b,) + tuple(percent(res.overhead_norm[b][d]) for d in GATED)
              for b in res.overhead_norm]
    rows_a.append(("AVG",) + tuple(percent(res.avg_overhead(d))
                                   for d in GATED))
    part_a = format_table(("benchmark",) + GATED, rows_a,
                          title="Figure 9(a): PG overhead energy "
                                "(normalized to Conv_PG)")
    rows_b = [(b,) + tuple(percent(res.wakeups_norm[b][d]) for d in GATED)
              for b in res.wakeups_norm]
    rows_b.append(("AVG",) + tuple(percent(res.avg_wakeups(d))
                                   for d in GATED))
    part_b = format_table(("benchmark",) + GATED, rows_b,
                          title="Figure 9(b): router wakeups "
                                "(normalized to Conv_PG)")
    extra = (
        f"\nNoRD overhead reduction vs Conv_PG: "
        f"{percent(res.overhead_reduction(Design.NORD, Design.CONV_PG))}"
        f" (paper: 80.7%); vs Conv_PG_OPT: "
        f"{percent(res.overhead_reduction(Design.NORD, Design.CONV_PG_OPT))}"
        f" (paper: 74.0%)"
        f"\nNoRD wakeup reduction vs Conv_PG: "
        f"{percent(res.wakeup_reduction(Design.NORD, Design.CONV_PG))}"
        f" (paper: 81.0%); vs Conv_PG_OPT: "
        f"{percent(res.wakeup_reduction(Design.NORD, Design.CONV_PG_OPT))}"
        f" (paper: 73.3%)"
    )
    return part_a + "\n\n" + part_b + extra
