"""Section 6.8 discussion: bufferless routing vs power-gating.

The paper's argument: bufferless routing eliminates buffers - the largest
static-power contributor (55% of router static power, Figure 1(b)) - but
the other 45% remains powered, whereas power-gating (NoRD) removes *all*
router static power whenever a router sleeps; the techniques are therefore
complementary, not competing.

This experiment measures that argument: a CHIPPER-style deflection network
(:mod:`repro.noc.bufferless`) against No_PG and NoRD at a low load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..config import Design, NoCConfig, SimConfig
from ..stats.report import format_table, percent
from . import parallel
from .common import get_scale

RATE = 0.05


@dataclass
class BufferlessRow:
    label: str
    latency: float
    hops: float
    static_vs_nopg: float
    power_w: float


@dataclass
class BufferlessResult:
    rows: List[BufferlessRow]
    rate: float

    def by_label(self, label: str) -> BufferlessRow:
        return next(r for r in self.rows if r.label == label)


def run(scale: str = "bench", seed: int = 1) -> BufferlessResult:
    s = get_scale(scale)
    designs = (Design.NO_PG, Design.BUFFERLESS, Design.NORD)
    design_points = [parallel.DesignPoint(
        cfg=SimConfig(design=design, noc=NoCConfig(),
                      warmup_cycles=s.warmup, measure_cycles=s.measure,
                      drain_cycles=s.drain, seed=seed),
        traffic=parallel.uniform_spec(RATE, seed=seed))
        for design in designs]
    rows: List[BufferlessRow] = []
    for design, (result, energy) in zip(designs,
                                        parallel.submit(design_points)):
        rows.append(BufferlessRow(
            label=design,
            latency=result.avg_packet_latency,
            hops=result.avg_hops,
            static_vs_nopg=(energy.router_static_j /
                            energy.router_static_nopg_j),
            power_w=energy.avg_power_w,
        ))
    return BufferlessResult(rows=rows, rate=RATE)


def report(res: BufferlessResult) -> str:
    rows = [(r.label, f"{r.latency:.1f}", f"{r.hops:.2f}",
             percent(r.static_vs_nopg), f"{r.power_w:.2f}")
            for r in res.rows]
    table = format_table(
        ("design", "latency", "hops", "router static vs No_PG", "NoC W"),
        rows, title=f"Section 6.8: bufferless routing vs power-gating "
                    f"(uniform @ {res.rate})")
    buf = res.by_label("Bufferless")
    extra = (f"\nbufferless removes the buffers' 55% of router static power"
             f" (measured residual {percent(buf.static_vs_nopg)}), but that"
             f" residual never sleeps;\nNoRD gates all of it whenever a"
             f" router is off - the two techniques are complementary"
             f" (Section 6.8).")
    return table + extra
