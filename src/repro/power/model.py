"""Orion-like NoC power model: turns event counts into energy.

The model follows the paper's accounting (Sections 5.1, 6.2-6.4):

* router static energy - static power integrated over powered-on (and
  waking) cycles, plus a small residual when gated off, plus the always-on
  power-gating controller, plus (NoRD) the always-on bypass hardware;
  the NI additions of NoRD are lumped into router power "to provide fair
  comparison across different schemes";
* power-gating overhead - one breakeven-time worth of static energy per
  wakeup (that is the definition of the breakeven time, Section 2.2);
* router dynamic energy - per-event energies (buffer write/read, VA, SA,
  crossbar) that sum to the per-flit router-traversal energy; bypass
  traversals cost ``BYPASS_DYNAMIC_FRACTION`` of a full traversal;
* link static and dynamic energy.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..config import FREQUENCY_HZ, Design, SimConfig
from ..stats.collector import RunResult
from . import technology as tech_mod
from .technology import TechNode

@dataclass
class EnergyReport:
    """Energy totals over the measurement window, in joules."""

    design: str
    cycles: int
    cycle_time_s: float
    router_static_j: float = 0.0
    router_dynamic_j: float = 0.0
    link_static_j: float = 0.0
    link_dynamic_j: float = 0.0
    pg_overhead_j: float = 0.0
    #: Static energy the router block would have burned with no gating at
    #: all (the No_PG reference for normalized plots).
    router_static_nopg_j: float = 0.0

    @property
    def total_j(self) -> float:
        return (self.router_static_j + self.router_dynamic_j +
                self.link_static_j + self.link_dynamic_j +
                self.pg_overhead_j)

    @property
    def avg_power_w(self) -> float:
        seconds = self.cycles * self.cycle_time_s
        return self.total_j / seconds if seconds else 0.0

    def breakdown(self) -> Dict[str, float]:
        return {
            "router_static": self.router_static_j,
            "router_dynamic": self.router_dynamic_j,
            "link_static": self.link_static_j,
            "link_dynamic": self.link_dynamic_j,
            "pg_overhead": self.pg_overhead_j,
        }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (exact: floats round-trip via repr)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "EnergyReport":
        return cls(**data)


class PowerModel:
    """Evaluates a :class:`RunResult` under one technology point."""

    def __init__(self, cfg: SimConfig,
                 tech: Optional[TechNode] = None) -> None:
        self.cfg = cfg
        self.tech = tech if tech is not None else tech_mod.DEFAULT_TECH
        self.cycle_time = cfg.noc.cycle_time_s

    # -- per-event energies ------------------------------------------------
    @property
    def wakeup_overhead_j(self) -> float:
        """Energy overhead of one sleep/wake round trip: by definition of
        the breakeven time, BET cycles of router static energy."""
        return (self.cfg.pg.breakeven_time * self.tech.router_static_w *
                self.cycle_time)

    def num_links(self, num_nodes: int) -> int:
        """Directed inter-router links in the mesh."""
        w, h = self.cfg.noc.width, self.cfg.noc.height
        return 2 * ((w - 1) * h + w * (h - 1))

    # -- main entry ---------------------------------------------------------
    def evaluate(self, result: RunResult) -> EnergyReport:
        t = self.cycle_time
        tech = self.tech
        report = EnergyReport(design=result.design, cycles=result.cycles,
                              cycle_time_s=t)
        dyn = tech.router_dyn_j_per_flit
        db = tech_mod.DYNAMIC_BREAKDOWN
        gated_design = result.design in Design.GATED
        # Bufferless routers have no input buffers, so the buffer share
        # of static power (Figure 1(b): 55%) disappears while the other
        # 45% remains - the paper's Section 6.8 argument for why
        # power-gating stays relevant.
        bufferless = result.design == Design.BUFFERLESS
        static_scale = (1.0 - tech_mod.STATIC_BREAKDOWN["buffer"]
                        if bufferless else 1.0)
        for r in result.routers:
            # Waking cycles count as gated: the BET-based per-wakeup
            # overhead term below covers the whole sleep/wake transition
            # (including the virtual-Vdd ramp), so a BET-long idle period
            # nets exactly zero - the definition of the breakeven time.
            gated_cycles = r.cycles_off + r.cycles_waking
            static = tech.router_static_w * static_scale * t * r.cycles_on
            static += (tech.router_static_w * static_scale *
                       tech_mod.GATED_RESIDUAL_FRACTION * t * gated_cycles)
            if gated_design:
                static += (tech.router_static_w *
                           tech_mod.PG_CONTROLLER_STATIC_FRACTION * t *
                           r.total_cycles)
            if result.design == Design.NORD:
                static += (tech.router_static_w *
                           tech_mod.BYPASS_STATIC_FRACTION * t *
                           r.total_cycles)
            report.router_static_j += static
            report.router_static_nopg_j += (tech.router_static_w * t *
                                            r.total_cycles)
            dynamic = dyn * (
                db["buffer_write"] * r.buffer_writes +
                db["buffer_read"] * r.buffer_reads +
                db["va"] * r.va_grants +
                db["sa"] * r.sa_grants +
                db["xbar"] * r.xbar_traversals
            )
            dynamic += (dyn * tech_mod.BYPASS_DYNAMIC_FRACTION *
                        r.ni_latch_writes)
            report.router_dynamic_j += dynamic
            report.pg_overhead_j += r.wakeups * self.wakeup_overhead_j
        report.link_static_j = (tech.link_static_w * t * result.cycles *
                                self.num_links(result.num_nodes))
        report.link_dynamic_j = tech.link_dyn_j_per_flit * result.link_flits
        return report


def static_power_share(feature_nm: int, vdd: float,
                       flits_per_router_cycle: float = 0.3) -> float:
    """Router static-power share under a given activity (Figure 1(a)).

    ``flits_per_router_cycle`` is the average number of flits traversing a
    router per cycle; 0.3 corresponds to the PARSEC-average activity used
    for calibration.
    """
    tech = tech_mod.get_tech(feature_nm, vdd)
    p_dyn = flits_per_router_cycle * FREQUENCY_HZ * tech.router_dyn_j_per_flit
    p_static = tech.router_static_w
    return p_static / (p_static + p_dyn)


def router_power_decomposition(feature_nm: int = 45, vdd: float = 1.0,
                               flits_per_router_cycle: float = 0.3
                               ) -> Dict[str, float]:
    """Router power decomposition as fractions of total (Figure 1(b))."""
    share = static_power_share(feature_nm, vdd, flits_per_router_cycle)
    out = {"dynamic": 1.0 - share}
    for comp, frac in tech_mod.STATIC_BREAKDOWN.items():
        out[f"{comp}_static"] = share * frac
    return out
