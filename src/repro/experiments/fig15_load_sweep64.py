"""Figure 15: 64-node load sweeps (Section 6.7).

The 8x8 mesh under uniform-random and bit-complement traffic.  The paper's
point: NoRD's advantage over Conv_PG_OPT *grows* with network size in the
low-load region, because cumulative wakeup latency scales with hop count
(at 10% uniform load the paper reports 36 / 52 / 44 cycles for No_PG /
Conv_PG_OPT / NoRD on 8x8, vs 24 / 34 / 29 on 4x4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .parallel import bitcomp_spec, uniform_spec
from .fig14_load_sweep import (DESIGNS, LoadSweepResult, sweep,
                               sweep_table)

RATES_UNIFORM = (0.02, 0.05, 0.1, 0.15, 0.2, 0.3)
RATES_BITCOMP = (0.01, 0.02, 0.05, 0.08, 0.12, 0.16)


@dataclass
class Fig15Result:
    uniform: LoadSweepResult
    bit_complement: LoadSweepResult


def run(scale: str = "bench", seed: int = 1,
        rates_uniform: Tuple[float, ...] = RATES_UNIFORM,
        rates_bitcomp: Tuple[float, ...] = RATES_BITCOMP) -> Fig15Result:
    uni = sweep(DESIGNS, rates_uniform, uniform_spec, width=8, height=8,
                pattern="uniform random", scale=scale, seed=seed)
    bc = sweep(DESIGNS, rates_bitcomp, bitcomp_spec, width=8,
               height=8, pattern="bit complement", scale=scale, seed=seed)
    return Fig15Result(uniform=uni, bit_complement=bc)


def report(res: Fig15Result) -> str:
    return (sweep_table(res.uniform,
                        "Figure 15 (left): 64-node uniform random")
            + "\n\n"
            + sweep_table(res.bit_complement,
                          "Figure 15 (right): 64-node bit complement"))
