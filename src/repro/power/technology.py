"""Technology parameters for the Orion-like power model.

The paper uses Orion 2.0 with an industrial 45nm process; we cannot run
Orion, so this module encodes a calibrated analytical model anchored to the
paper's own published numbers:

* Figure 1(a): router static power share at 3 GHz under PARSEC-average
  activity - 17.9% @ 65nm/1.2V, 35.4% @ 45nm/1.1V, 47.7% @ 32nm/1.0V,
  rising as feature size and voltage shrink;
* Figure 1(b) at 45nm: static breakdown buffer 21% / VA 7% / SA 2% /
  crossbar 5% / clock 4% of total router power (55% of static power in
  buffers), dynamic 62%;
* Section 2.2: breakeven time ~10 cycles, wakeup latency ~4ns (12 cycles
  at 3 GHz).

Absolute watts are plausible-scale for a 128-bit 5-port router; the
*ratios* are what the experiments depend on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: Dynamic energy scales with V^2; static (leakage) power scales roughly
#: with V * exp(-Vth...) - we use simple per-node calibrated tables instead
#: of device physics.

#: Router static power at nominal voltage per technology node, in watts,
#: for a 5-port 4-VC 5-flit-buffer 128-bit router at 3 GHz.  Values are
#: chosen so that, combined with `DYNAMIC_ENERGY_PER_FLIT_HOP`, the static
#: share under PARSEC-average activity reproduces Figure 1(a).
_NODE_TABLE: Dict[int, "TechNode"] = {}


@dataclass(frozen=True)
class TechNode:
    """One manufacturing technology point."""

    feature_nm: int
    nominal_vdd: float
    #: Router static power at nominal Vdd [W].
    router_static_w: float
    #: Energy per flit per router traversal (buffer write + read + VA + SA
    #: + crossbar) at nominal Vdd [J].
    router_dyn_j_per_flit: float
    #: Energy per flit per link traversal at nominal Vdd [J].
    link_dyn_j_per_flit: float
    #: Static power of one inter-router link (128-bit, 1mm) [W].
    link_static_w: float

    def scaled(self, vdd: float) -> "TechNode":
        """Scale the power numbers to an operating voltage.

        Dynamic energy ~ V^2 (CV^2 switching); static power ~ V (P = V *
        I_leak with leakage current roughly voltage-independent to first
        order).  Static *share* therefore rises as the operating voltage
        drops, matching Figure 1(a)'s trend.
        """
        dyn = (vdd / self.nominal_vdd) ** 2
        stat = vdd / self.nominal_vdd
        return TechNode(
            feature_nm=self.feature_nm,
            nominal_vdd=vdd,
            router_static_w=self.router_static_w * stat,
            router_dyn_j_per_flit=self.router_dyn_j_per_flit * dyn,
            link_dyn_j_per_flit=self.link_dyn_j_per_flit * dyn,
            link_static_w=self.link_static_w * stat,
        )


def _register(node: TechNode) -> TechNode:
    _NODE_TABLE[node.feature_nm] = node
    return node


# Calibration: under PARSEC-average activity (~0.3 flits/router/cycle at
# 3 GHz => 9e8 flit-traversals/s) the router static share should match
# Figure 1(a).  With dynamic energy fixed across nodes at the values below,
# static power per node is solved from share/(1-share) * dynamic.
#
#   dynamic power = 0.3 * 3e9 * dyn_j  per router
#
# 65nm: dyn=200pJ -> P_dyn=0.180W, share 17.9% @1.2V -> static 0.0392W
# 45nm: dyn=130pJ -> P_dyn=0.117W, share 35.4% @1.1V -> static 0.0641W
# 32nm: dyn= 90pJ -> P_dyn=0.081W, share 47.7% @1.0V -> static 0.0739W
_register(TechNode(
    feature_nm=65, nominal_vdd=1.2,
    router_static_w=0.0392, router_dyn_j_per_flit=200e-12,
    link_dyn_j_per_flit=60e-12, link_static_w=0.016,
))
TECH_45NM = _register(TechNode(
    feature_nm=45, nominal_vdd=1.1,
    router_static_w=0.0641, router_dyn_j_per_flit=130e-12,
    link_dyn_j_per_flit=40e-12, link_static_w=0.020,
))
_register(TechNode(
    feature_nm=32, nominal_vdd=1.0,
    router_static_w=0.0739, router_dyn_j_per_flit=90e-12,
    link_dyn_j_per_flit=28e-12, link_static_w=0.024,
))

#: The paper's evaluation point: industrial 45nm at 1.1V (Section 5.1).
DEFAULT_TECH = TECH_45NM

#: Static power breakdown of a router (Figure 1(b), 45nm): fraction of
#: *router static power* per component.  Buffers hold 55% of static power.
STATIC_BREAKDOWN = {
    "buffer": 0.55,
    "va": 0.18,
    "sa": 0.05,
    "xbar": 0.12,
    "clock": 0.10,
}

#: Dynamic energy breakdown per flit traversal (used to split dynamic
#: energy across events; sums to 1.0 over a full router traversal).
DYNAMIC_BREAKDOWN = {
    "buffer_write": 0.30,
    "buffer_read": 0.20,
    "va": 0.10,
    "sa": 0.08,
    "xbar": 0.32,
}

#: Fraction of a full router-traversal dynamic energy consumed by one flit
#: moving through the NI bypass (latch write + check + re-inject): the
#: bypass skips buffers, VA, SA and the crossbar, so it is much cheaper.
BYPASS_DYNAMIC_FRACTION = 0.35

#: Static power of the always-on NoRD bypass hardware (latches, muxes, NI
#: forwarding control) as a fraction of router static power.  Matches the
#: ~3% area overhead reported in Section 6.8.
BYPASS_STATIC_FRACTION = 0.031

#: Static power of the always-on power-gating controller (all gated
#: designs) as a fraction of router static power.
PG_CONTROLLER_STATIC_FRACTION = 0.01

#: Residual leakage of a gated-off router as a fraction of its static
#: power (virtual Vdd does not reach zero).
GATED_RESIDUAL_FRACTION = 0.02


def get_tech(feature_nm: int, vdd: float) -> TechNode:
    """Look up a technology node and scale it to an operating voltage."""
    try:
        base = _NODE_TABLE[feature_nm]
    except KeyError:
        raise ValueError(f"unknown technology node {feature_nm}nm; "
                         f"known: {sorted(_NODE_TABLE)}") from None
    return base.scaled(vdd)
