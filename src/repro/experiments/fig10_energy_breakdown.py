"""Figure 10: overall NoC energy breakdown (Section 6.4).

Per benchmark and design, the NoC energy split into link static, link
dynamic, router dynamic, router static and power-gating overhead,
normalized to No_PG's total.  Paper takeaways: NoRD's detours add ~10.2%
router+link dynamic energy (4.0% of total NoC energy), but its static +
overhead savings are worth 24.7% of total NoC energy, for a net NoC energy
saving of 9.1% / 9.4% / 20.6% vs No_PG / Conv_PG / Conv_PG_OPT
(note: the paper lists savings vs the three alternatives in that order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..config import Design
from ..stats.report import format_table, percent
from ..traffic.parsec import BENCHMARKS
from .common import mean, parsec_sweep

COMPONENTS = ("router_static", "router_dynamic", "link_static",
              "link_dynamic", "pg_overhead")


@dataclass
class Fig10Result:
    #: breakdown[benchmark][design][component] -> fraction of No_PG total
    breakdown: Dict[str, Dict[str, Dict[str, float]]]

    def total(self, bench: str, design: str) -> float:
        return sum(self.breakdown[bench][design].values())

    def avg_total(self, design: str) -> float:
        return mean(self.total(b, design) for b in self.breakdown)

    def net_saving(self, design: str, versus: str) -> float:
        return 1.0 - self.avg_total(design) / self.avg_total(versus)

    def avg_component(self, design: str, component: str) -> float:
        return mean(self.breakdown[b][design][component]
                    for b in self.breakdown)


def run(scale: str = "bench", seed: int = 1) -> Fig10Result:
    sweep = parsec_sweep(scale, seed)
    breakdown: Dict[str, Dict[str, Dict[str, float]]] = {}
    for bench in BENCHMARKS:
        base = sweep[bench][Design.NO_PG][1].total_j
        breakdown[bench] = {}
        for design in Design.ALL:
            report_ = sweep[bench][design][1]
            breakdown[bench][design] = {
                comp: value / base
                for comp, value in report_.breakdown().items()
            }
    return Fig10Result(breakdown=breakdown)


def report(res: Fig10Result) -> str:
    rows = []
    for design in Design.ALL:
        rows.append((design,) + tuple(
            percent(res.avg_component(design, c)) for c in COMPONENTS
        ) + (percent(res.avg_total(design)),))
    table = format_table(("design",) + COMPONENTS + ("total",), rows,
                         title="Figure 10: NoC energy breakdown "
                               "(PARSEC average, normalized to No_PG)")
    extra = (
        f"\nNoRD net NoC energy saving vs No_PG: "
        f"{percent(res.net_saving(Design.NORD, Design.NO_PG))} (paper: 9.1%)"
        f"; vs Conv_PG: "
        f"{percent(res.net_saving(Design.NORD, Design.CONV_PG))} (paper: 9.4%)"
        f"; vs Conv_PG_OPT: "
        f"{percent(res.net_saving(Design.NORD, Design.CONV_PG_OPT))}"
        f" (paper: 20.6%)"
    )
    return table + extra
