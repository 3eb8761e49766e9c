"""Simulation configuration for the NoRD reproduction.

The defaults follow Table 1 of the paper (MICRO 2012) plus the design
parameters stated in the text:

* 4x4 / 8x8 mesh, 4-stage router pipeline at 3 GHz plus one link-traversal
  cycle,
* 4 virtual channels per port, 5-flit input buffers, 128-bit links,
* 12-cycle router wakeup latency (4 ns at 3 GHz), of which Conv_PG_OPT's
  early wakeup hides the cycles between route computation and switch
  allocation (the paper's 3; structure of the pipeline, not a setting),
* breakeven time (BET) of 10 cycles,
* NoRD wakeup metric: VC requests at the local NI over a 10-cycle window,
  with asymmetric thresholds (1 for performance-centric routers, 3 for
  power-centric routers),
* misroute cap of 4 hops before a packet is forced onto escape resources.

Everything an experiment varies is an explicit dataclass field so that
experiments are reproducible and self-describing; what no caller varies
is a module constant below.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

#: Router pipeline depth excluding link traversal (RC, VA, SA, ST; one
#: link-traversal cycle follows), Table 1's "4-stage".
ROUTER_PIPELINE_STAGES = 4
#: Router clock frequency in Hz (Table 1: 3 GHz).
FREQUENCY_HZ = 3.0e9
#: Escape VCs of NoRD's ring escape: VC 0 before the dateline, VC 1 from
#: the crossing hop on, which breaks the unidirectional ring's cyclic
#: dependence (Section 4.2; :mod:`repro.routing.ring_escape`).
NORD_ESCAPE_VCS = 2
#: Escape VCs of the conventional designs' XY escape: Duato's protocol
#: needs one, VC 0 (:mod:`repro.routing.adaptive`).
XY_ESCAPE_VCS = 1


@dataclass(frozen=True)
class Scale:
    """A ``--scale`` preset: the cycles of each run phase."""

    name: str
    warmup: int
    measure: int
    drain: int


SCALES: Dict[str, Scale] = {
    "smoke": Scale("smoke", 200, 1_000, 3_000),
    "bench": Scale("bench", 500, 4_000, 8_000),
    "full": Scale("full", 10_000, 100_000, 20_000),
}


class Design:
    """The four designs compared in the paper (Section 5.1) and the
    Section 6.8 bufferless baseline (:mod:`repro.noc.bufferless`)."""

    NO_PG = "No_PG"
    CONV_PG = "Conv_PG"
    CONV_PG_OPT = "Conv_PG_OPT"
    NORD = "NoRD"
    BUFFERLESS = "Bufferless"

    #: The paper's four designs (every figure sweeps these).
    ALL = (NO_PG, CONV_PG, CONV_PG_OPT, NORD)

    #: Designs that power-gate routers at all.
    GATED = (CONV_PG, CONV_PG_OPT, NORD)


@dataclass(frozen=True)
class NoCConfig:
    """Static parameters of the simulated on-chip network (Table 1)."""

    #: Mesh width (routers per row).
    width: int = 4
    #: Mesh height (routers per column).
    height: int = 4
    #: Virtual channels per input port (per protocol class in the paper;
    #: synthetic runs use a single class).
    vcs_per_port: int = 4
    #: Input buffer depth in flits, per VC.
    buffer_depth: int = 5
    #: Link bandwidth in bits per cycle.
    link_bits: int = 128
    #: Speculative 2-stage pipeline (Section 6.8 discussion): look-ahead
    #: routing + speculative switch allocation collapse RC/VA/SA into one
    #: cycle when uncontended, making a hop 2 cycles + LT instead of 4 + LT.
    #: Speculation "failures" emerge naturally as arbitration losses.
    speculative: bool = False

    @property
    def num_nodes(self) -> int:
        return self.width * self.height

    @property
    def cycle_time_s(self) -> float:
        return 1.0 / FREQUENCY_HZ


@dataclass(frozen=True)
class PowerGateConfig:
    """Power-gating parameters shared by Conv_PG, Conv_PG_OPT and NoRD."""

    #: Full wakeup latency in cycles (4 ns at 3 GHz, Section 5.1).
    wakeup_latency: int = 12
    #: Breakeven time in cycles (Section 2.2, ~10 cycles).
    breakeven_time: int = 10
    #: Cycles a router must stay empty before Conv_PG_OPT gates it off
    #: ("avoiding powering-off all idle periods that are shorter than 4
    #: cycles", Section 5.1).  Conv_PG uses 0 (gate as soon as empty).
    min_idle_before_gate: int = 4
    #: Length of the VC-request observation window for the NoRD wakeup
    #: metric, in cycles (Section 4.3).
    wakeup_window: int = 10
    #: Wakeup threshold (VC requests per window) for performance-centric
    #: routers (Section 6.1).
    perf_threshold: int = 1
    #: Wakeup threshold for power-centric routers (Section 6.1).
    power_threshold: int = 3
    #: Flits of buffering on the bypass path per VC: the NI bypass latch,
    #: the NI forwarding stage and the router's non-gated output buffer
    #: (Figure 4(b)(c) - each bypass pipeline stage holds a flit).  This is
    #: the credit limit the ring-upstream router sees for an off router.
    bypass_depth: int = 3
    #: Consecutive empty cycles a NoRD router waits before gating off.
    #: Determined empirically (like the paper's wakeup thresholds,
    #: Section 6.1): short traffic gaps at through-routers are not worth a
    #: state transition, since an idle period must exceed the breakeven
    #: time to save energy at all and oscillating routers force detours.
    nord_min_idle: int = 8
    #: Aggressive bypass (Section 6.8): optimistically connect the Bypass
    #: Inport straight to the Bypass Outport, forwarding a flit through an
    #: off router in a single cycle (+LT) when there is no conflicting
    #: local injection; conflicts fall back to the normal 2-cycle bypass.
    aggressive_bypass: bool = False


@dataclass(frozen=True)
class RoutingConfig:
    """Routing-algorithm parameters."""

    #: Maximum misrouted hops before a NoRD packet is forced onto escape
    #: resources (Section 4.2 describes a threshold but not its value).
    #: None (the default) scales the cap with the mesh half-perimeter,
    #: min 4 - a fixed small cap dumps far too many packets onto the long
    #: escape ring of large meshes.
    misroute_cap: Optional[int] = None

    def resolved_misroute_cap(self, width: int, height: int) -> int:
        if self.misroute_cap is not None:
            return int(self.misroute_cap)
        return max(4, (width + height) // 2)
    #: Consecutive cycles a local NI injection may be starved by bypass
    #: traffic before it is granted priority (Section 4.2).
    ni_starvation_limit: int = 8


@dataclass(frozen=True)
class SimConfig:
    """Complete configuration of one simulation run."""

    design: str = Design.NO_PG
    noc: NoCConfig = field(default_factory=NoCConfig)
    pg: PowerGateConfig = field(default_factory=PowerGateConfig)
    routing: RoutingConfig = field(default_factory=RoutingConfig)
    #: Warm-up cycles excluded from statistics (paper: 10,000 for synthetic).
    warmup_cycles: int = 10_000
    #: Measured cycles after warm-up (paper: 100,000 for synthetic).
    measure_cycles: int = 100_000
    #: RNG seed for traffic generation.
    seed: int = 1
    #: Extra cycles allowed after measurement for in-flight packets to drain
    #: before statistics are finalized.
    drain_cycles: int = 20_000

    def __post_init__(self) -> None:
        if self.design not in Design.ALL + (Design.BUFFERLESS,):
            raise ValueError(f"unknown design {self.design!r}")
        if self.noc.vcs_per_port < 2:
            raise ValueError("need at least 2 VCs (adaptive + escape)")

    def replace(self, **kwargs) -> "SimConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)

    def to_dict(self) -> Dict[str, Any]:
        """``dataclasses.asdict(self)`` without its recursive deep copy
        (every field is a scalar or a sub-config of scalars)."""
        return {**vars(self), "noc": dict(vars(self.noc)),
                "pg": dict(vars(self.pg)),
                "routing": dict(vars(self.routing))}

    @property
    def escape_vcs(self) -> int:
        """Number of escape VCs for this design's routing function."""
        if self.design == Design.NORD:
            return NORD_ESCAPE_VCS
        return XY_ESCAPE_VCS


def stable_hash(payload: Any) -> str:
    """SHA-256 of a JSON-serializable payload, independent of key order.

    Every scalar that can appear in a config (int, float, str, bool,
    None) serializes canonically; anything exotic falls back to ``repr``
    so hashing never fails, at the cost of the fallback not being
    guaranteed stable across Python versions.
    """
    import hashlib  # OpenSSL: only what keys or seals a point loads it
    import json
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def small_config(design: str = Design.NO_PG, *, width: int = 4, height: int = 4,
                 warmup: int = 1_000, measure: int = 5_000,
                 seed: int = 1) -> SimConfig:
    """A reduced-scale configuration suitable for tests and quick benches."""
    return SimConfig(
        design=design,
        noc=NoCConfig(width=width, height=height),
        warmup_cycles=warmup,
        measure_cycles=measure,
        seed=seed,
        drain_cycles=5_000,
    )
