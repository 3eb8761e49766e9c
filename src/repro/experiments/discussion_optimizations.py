"""Section 6.8 discussion: shorter pipelines and the aggressive bypass.

The paper argues NoRD remains competitive when both the baseline and NoRD
are optimized: look-ahead routing + speculative SA shorten the baseline
router to ~2 stages, but that also shortens the pipeline slack that can
hide wakeup latency; NoRD's bypass can be made aggressive (Bypass Inport
wired straight to the Bypass Outport, one cycle per off-router hop when
nothing conflicts).

This experiment compares four design points at a low load where gating is
active:  {canonical, speculative} x {Conv_PG_OPT, NoRD(+aggressive)}.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..config import Design, NoCConfig, SimConfig
from ..stats.report import format_table, percent
from . import parallel
from .common import get_scale

RATE = 0.05


@dataclass
class OptRow:
    label: str
    latency: float
    static_vs_nopg: float
    wakeups: int
    off_fraction: float


@dataclass
class DiscussionResult:
    rows: List[OptRow]
    rate: float

    def by_label(self, label: str) -> OptRow:
        return next(r for r in self.rows if r.label == label)


def _config(design: str, *, speculative: bool, aggressive: bool, scale: str,
            seed: int) -> SimConfig:
    s = get_scale(scale)
    cfg = SimConfig(design=design, noc=NoCConfig(speculative=speculative),
                    warmup_cycles=s.warmup, measure_cycles=s.measure,
                    drain_cycles=s.drain, seed=seed)
    return cfg.replace(pg=dataclasses.replace(cfg.pg,
                                              aggressive_bypass=aggressive))


def run(scale: str = "bench", seed: int = 1) -> DiscussionResult:
    points = [
        ("Conv_PG_OPT / canonical", Design.CONV_PG_OPT, False, False),
        ("Conv_PG_OPT / speculative", Design.CONV_PG_OPT, True, False),
        ("NoRD / canonical", Design.NORD, False, False),
        ("NoRD / spec + aggressive", Design.NORD, True, True),
    ]
    design_points = [
        parallel.DesignPoint(
            cfg=_config(design, speculative=spec, aggressive=aggressive,
                        scale=scale, seed=seed),
            traffic=parallel.uniform_spec(RATE, seed=seed),
        )
        for _, design, spec, aggressive in points
    ]
    rows = []
    for (label, *_), (result, energy) in zip(points,
                                             parallel.submit(design_points)):
        rows.append(OptRow(
            label, result.avg_packet_latency,
            energy.router_static_j / energy.router_static_nopg_j,
            result.total_wakeups, result.avg_off_fraction))
    return DiscussionResult(rows=rows, rate=RATE)


def report(res: DiscussionResult) -> str:
    rows = [(r.label, f"{r.latency:.1f}", percent(r.static_vs_nopg),
             r.wakeups, percent(r.off_fraction)) for r in res.rows]
    table = format_table(
        ("design point", "latency", "static vs No_PG", "wakeups", "off"),
        rows, title=f"Section 6.8: optimized baseline vs optimized NoRD "
                    f"(uniform @ {res.rate})")
    base = res.by_label("Conv_PG_OPT / speculative")
    nord = res.by_label("NoRD / spec + aggressive")
    extra = (f"\noptimized NoRD vs optimized baseline: latency "
             f"{nord.latency / base.latency:.2f}x, wakeups "
             f"{nord.wakeups / max(1, base.wakeups):.2f}x "
             f"(paper: 'no clear advantages for the baseline')")
    return table + extra
