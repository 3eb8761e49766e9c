"""Figure 1: static power of on-chip routers.

(a) static-power share of routers at 3 GHz across technology nodes and
    operating voltages (paper: 17.9% @65nm/1.2V, 35.4% @45nm/1.1V,
    47.7% @32nm/1.0V, rising as feature size and voltage shrink);
(b) router power decomposition at 45nm into dynamic power and the static
    power of buffers, VA, SA, crossbar and clock (paper: dynamic 62%,
    buffer static 21%, VA 7%, SA 2%, crossbar 5%, clock 4%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..power.model import router_power_decomposition, static_power_share
from ..stats.report import format_table, percent

#: (feature nm, voltages) grid of Figure 1(a).
GRID: Tuple[Tuple[int, Tuple[float, ...]], ...] = (
    (65, (1.2, 1.1, 1.0)),
    (45, (1.2, 1.1, 1.0)),
    (32, (1.2, 1.1, 1.0)),
)

#: Activity level (flits/router/cycle) representing the PARSEC average,
#: the calibration anchor for the shares above.
PARSEC_ACTIVITY = 0.3

#: Figure 1(b) is evaluated at 45nm/1.0V where the paper shows 62% dynamic;
#: the activity below reproduces that operating point.
FIG1B_ACTIVITY = 0.295


@dataclass
class Fig1Result:
    shares: List[Tuple[int, float, float]]  # (nm, vdd, static share)
    decomposition: Dict[str, float]


def run(scale: str = "bench", seed: int = 1) -> Fig1Result:
    """Pure-model experiment; scale/seed accepted for interface symmetry."""
    shares = [
        (nm, vdd, static_power_share(nm, vdd, PARSEC_ACTIVITY))
        for nm, voltages in GRID
        for vdd in voltages
    ]
    decomposition = router_power_decomposition(45, 1.0, FIG1B_ACTIVITY)
    return Fig1Result(shares=shares, decomposition=decomposition)


def report(res: Fig1Result) -> str:
    rows = [(f"{nm}nm", f"{vdd:.1f}V", percent(share))
            for nm, vdd, share in res.shares]
    part_a = format_table(("node", "vdd", "static share"), rows,
                          title="Figure 1(a): router static power share")
    rows_b = [(name, percent(frac))
              for name, frac in res.decomposition.items()]
    part_b = format_table(("component", "fraction"), rows_b,
                          title="Figure 1(b): router power decomposition "
                                "@45nm/1.0V")
    return part_a + "\n\n" + part_b
