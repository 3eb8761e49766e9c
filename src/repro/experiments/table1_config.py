"""Table 1: key parameters used in simulation.

Prints the reproduction's defaults next to the paper's values so the
benchmark harness records the configuration every run used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..config import SimConfig
from ..stats.report import format_table

PAPER_ROWS: Tuple[Tuple[str, str], ...] = (
    ("Core model", "Sun UltraSPARC III+, 3GHz"),
    ("Private I/D L1$", "32KB, 2-way, LRU, 1-cycle latency"),
    ("Shared L2 per bank", "256KB, 16-way, LRU, 6-cycle latency"),
    ("Cache block size", "64Bytes"),
    ("Coherence protocol", "MOESI"),
    ("Network topology", "4x4 and 8x8 mesh"),
    ("Router", "4-stage, 3GHz"),
    ("Virtual channel", "4 per protocol class"),
    ("Input buffer", "5-flit depth"),
    ("Link bandwidth", "128 bits/cycle"),
    ("Memory controllers", "4, located one at each corner"),
    ("Memory latency", "128 cycles"),
)


@dataclass
class Table1Result:
    rows: List[Tuple[str, str, str]]


def run(scale: str = "bench", seed: int = 1) -> Table1Result:
    cfg = SimConfig()
    from ..traffic.parsec import MEMORY_LATENCY
    ours = {
        "Core model": "traffic model (see repro.traffic.parsec)",
        "Private I/D L1$": "abstracted into traffic model",
        "Shared L2 per bank": "abstracted into traffic model",
        "Cache block size": "5-flit long packets (64B / 128b links)",
        "Coherence protocol": "request/reply traffic model",
        "Network topology": f"{cfg.noc.width}x{cfg.noc.height} and 8x8 mesh",
        "Router": f"{cfg.noc.pipeline_stages}-stage, "
                  f"{cfg.noc.frequency_hz / 1e9:.0f}GHz",
        "Virtual channel": f"{cfg.noc.vcs_per_port} per port",
        "Input buffer": f"{cfg.noc.buffer_depth}-flit depth",
        "Link bandwidth": f"{cfg.noc.link_bits} bits/cycle",
        "Memory controllers": "4, located one at each corner",
        "Memory latency": f"{MEMORY_LATENCY} cycles",
    }
    rows = [(name, paper, ours[name]) for name, paper in PAPER_ROWS]
    return Table1Result(rows=rows)


def report(res: Table1Result) -> str:
    return format_table(("parameter", "paper", "this reproduction"),
                        res.rows, title="Table 1: key parameters")
