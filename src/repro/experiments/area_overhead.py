"""Section 6.8: area overhead.

Paper claims: power-gating hardware (sleep switches + distribution) costs
4~10% of the gated block; NoRD's bypass adds only 3.1% over Conv_PG_OPT,
versus 15.9% for ultra-fine-grained per-component power-gating [25].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..config import Design, SimConfig
from ..power.area import AreaReport, nord_area_overhead, router_area
from ..stats.report import format_table, percent


@dataclass
class AreaResult:
    reports: Dict[str, AreaReport]
    nord_overhead: float


def run(scale: str = "bench", seed: int = 1) -> AreaResult:
    cfg = SimConfig()
    reports = {design: router_area(cfg, design) for design in Design.ALL}
    return AreaResult(reports=reports, nord_overhead=nord_area_overhead(cfg))


def report(res: AreaResult) -> str:
    rows = []
    for design, area in res.reports.items():
        rows.append((design, f"{area.buffers:.0f}", f"{area.crossbar:.0f}",
                     f"{area.allocators:.0f}", f"{area.control:.0f}",
                     f"{area.pg_switches:.0f}", f"{area.bypass:.0f}",
                     f"{area.total:.0f}"))
    table = format_table(
        ("design", "buffers", "xbar", "alloc", "ctrl", "pg", "bypass",
         "total"),
        rows, title="Section 6.8: router area (arbitrary units)")
    extra = (f"\nNoRD area overhead vs Conv_PG_OPT: "
             f"{percent(res.nord_overhead)} (paper: 3.1%)")
    return table + extra
