"""Figure 8: router static energy, normalized to No_PG (Section 6.2).

Paper results: Conv_PG saves 51.2% of router static energy on average,
Conv_PG_OPT 47.0% (it skips short idle periods), and NoRD 62.9% - a
further 23.9% / 29.9% relative saving over Conv_PG / Conv_PG_OPT - because
decoupling bypass exploits even sub-BET idle periods and avoids wakeups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..config import Design
from ..stats.report import format_table, percent
from ..traffic.parsec import BENCHMARKS
from .common import mean, parsec_sweep


@dataclass
class Fig8Result:
    #: normalized[benchmark][design] = static energy / No_PG static energy
    normalized: Dict[str, Dict[str, float]]

    def average(self, design: str) -> float:
        return mean(self.normalized[b][design] for b in self.normalized)

    def relative_saving(self, design: str, versus: str) -> float:
        """Average static-energy saving of ``design`` relative to
        ``versus`` (the paper's 23.9% vs Conv_PG / 29.9% vs Conv_PG_OPT)."""
        return 1.0 - self.average(design) / self.average(versus)


def run(scale: str = "bench", seed: int = 1) -> Fig8Result:
    sweep = parsec_sweep(scale, seed)
    normalized: Dict[str, Dict[str, float]] = {}
    for bench in BENCHMARKS:
        base = sweep[bench][Design.NO_PG][1].router_static_j
        normalized[bench] = {
            design: sweep[bench][design][1].router_static_j / base
            for design in Design.ALL
        }
    return Fig8Result(normalized=normalized)


def report(res: Fig8Result) -> str:
    rows: List[tuple] = []
    for bench, per_design in res.normalized.items():
        rows.append((bench,) + tuple(percent(per_design[d])
                                     for d in Design.ALL))
    rows.append(("AVG",) + tuple(percent(res.average(d))
                                 for d in Design.ALL))
    table = format_table(("benchmark",) + Design.ALL, rows,
                         title="Figure 8: static energy (normalized to "
                               "No_PG)")
    extra = (f"\nNoRD saving vs Conv_PG: "
             f"{percent(res.relative_saving(Design.NORD, Design.CONV_PG))}"
             f" (paper: 23.9%);  vs Conv_PG_OPT: "
             f"{percent(res.relative_saving(Design.NORD, Design.CONV_PG_OPT))}"
             f" (paper: 29.9%)")
    return table + extra
