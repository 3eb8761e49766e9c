"""Figure 12: execution time (Section 6.5).

The paper measures full-system execution time; without cores/caches we use
a first-order model: a benchmark's slowdown is proportional to its average
packet-latency increase scaled by a per-benchmark network sensitivity,

    T(design) / T(No_PG) = 1 + s_b * (L(design) - L(No_PG)) / L(No_PG).

Sensitivities live in the benchmark profiles (``repro.traffic.parsec``)
and are chosen in [0.1, 0.4] - network-bound benchmarks like canneal and
x264 react strongly, compute-bound ones like blackscholes barely.  Paper
averages: Conv_PG +11.7%, Conv_PG_OPT +8.1%, NoRD +3.9%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..config import Design
from ..stats.report import format_table, percent
from ..traffic.parsec import BENCHMARKS, PROFILES
from .common import mean, parsec_sweep
from .fig11_latency import Fig11Result
from .fig11_latency import run as run_fig11


@dataclass
class Fig12Result:
    #: exec_time[benchmark][design], normalized to No_PG
    exec_time: Dict[str, Dict[str, float]]

    def average_increase(self, design: str) -> float:
        return mean(self.exec_time[b][design] - 1.0 for b in self.exec_time)


def from_latency(fig11: Fig11Result) -> Fig12Result:
    exec_time: Dict[str, Dict[str, float]] = {}
    for bench in BENCHMARKS:
        s = PROFILES[bench].sensitivity
        base = fig11.latency[bench][Design.NO_PG]
        exec_time[bench] = {
            design: 1.0 + s * (fig11.latency[bench][design] - base) / base
            for design in Design.ALL
        }
    return Fig12Result(exec_time=exec_time)


def run(scale: str = "bench", seed: int = 1) -> Fig12Result:
    return from_latency(run_fig11(scale, seed))


def report(res: Fig12Result) -> str:
    rows = [(b,) + tuple(percent(res.exec_time[b][d]) for d in Design.ALL)
            for b in res.exec_time]
    rows.append(("AVG",) + tuple(percent(1.0 + res.average_increase(d))
                                 for d in Design.ALL))
    table = format_table(("benchmark",) + Design.ALL, rows,
                         title="Figure 12: execution time (normalized to "
                               "No_PG)")
    extra = (
        f"\nexecution-time increase - Conv_PG: "
        f"{percent(res.average_increase(Design.CONV_PG))} (paper: 11.7%), "
        f"Conv_PG_OPT: {percent(res.average_increase(Design.CONV_PG_OPT))} "
        f"(paper: 8.1%), NoRD: {percent(res.average_increase(Design.NORD))} "
        f"(paper: 3.9%)"
    )
    return table + extra
