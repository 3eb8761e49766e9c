"""Figure 11: average packet latency on PARSEC (Section 6.5).

Paper: Conv_PG degrades average packet latency by 63.8% on average;
early wakeup (Conv_PG_OPT) mitigates this to 41.5%; NoRD - with wakeup
latency completely off the critical path and only detours to pay for -
degrades latency by just 15.2% (i.e., improves on Conv_PG_OPT by ~26.3%,
the abstract's headline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..config import Design
from ..stats.report import format_table, percent
from ..traffic.parsec import BENCHMARKS
from .common import mean, parsec_sweep


@dataclass
class Fig11Result:
    #: latency[benchmark][design] in cycles
    latency: Dict[str, Dict[str, float]]

    def average(self, design: str) -> float:
        return mean(self.latency[b][design] for b in self.latency)

    def degradation(self, design: str) -> float:
        """Average latency increase vs. No_PG (benchmark-wise mean)."""
        return mean(
            self.latency[b][design] / self.latency[b][Design.NO_PG] - 1.0
            for b in self.latency
        )

    def improvement(self, design: str, versus: str) -> float:
        """Average latency improvement of ``design`` over ``versus``."""
        return mean(
            1.0 - self.latency[b][design] / self.latency[b][versus]
            for b in self.latency
        )


def run(scale: str = "bench", seed: int = 1) -> Fig11Result:
    sweep = parsec_sweep(scale, seed)
    latency = {
        bench: {design: sweep[bench][design][0].avg_packet_latency
                for design in Design.ALL}
        for bench in BENCHMARKS
    }
    return Fig11Result(latency=latency)


def report(res: Fig11Result) -> str:
    rows = [(b,) + tuple(f"{res.latency[b][d]:.1f}" for d in Design.ALL)
            for b in res.latency]
    rows.append(("AVG",) + tuple(f"{res.average(d):.1f}"
                                 for d in Design.ALL))
    table = format_table(("benchmark",) + Design.ALL, rows,
                         title="Figure 11: average packet latency (cycles)")
    extra = (
        f"\nlatency degradation vs No_PG - Conv_PG: "
        f"{percent(res.degradation(Design.CONV_PG))} (paper: 63.8%), "
        f"Conv_PG_OPT: {percent(res.degradation(Design.CONV_PG_OPT))} "
        f"(paper: 41.5%), NoRD: {percent(res.degradation(Design.NORD))} "
        f"(paper: 15.2%)"
        f"\nNoRD improvement over Conv_PG_OPT: "
        f"{percent(res.improvement(Design.NORD, Design.CONV_PG_OPT))}"
        f" (paper: 26.3%)"
    )
    return table + extra
