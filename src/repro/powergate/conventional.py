"""Conventional power-gating of routers (Section 3.1) and its early-wakeup
optimization (Conv_PG_OPT, Section 5.1).

Conv_PG gates a router as soon as its datapath is empty and no flit is
committed toward it; a packet that later routes to the gated router stalls
in the SA stage of the upstream router and asserts WU, paying the full
wakeup latency on the critical path.

Conv_PG_OPT differs in two ways:

* **early wakeup** - WU is asserted as soon as the upstream route
  computation selects the gated output port (instead of at the SA request),
  hiding ~3 cycles of the wakeup latency;
* **short-idle filtering** - the early-wakeup signal also tells an empty
  router that a packet is about to arrive, so idle periods shorter than 4
  cycles are never power-gated (modelled as a 4-cycle idle hysteresis).
"""

from __future__ import annotations

from ..config import PowerGateConfig
from .controller import PowerGateController


class ConvPGController(PowerGateController):
    """Aggressive conventional power-gating (Conv_PG)."""

    gateable = True
    min_idle_before_gate = 0
    #: WU is asserted only by SA-stage requests (no lead).
    early_wakeup = False

    def wakeup_asserted(self, net) -> bool:
        return net.wakeup_requested(self.node)


class ConvPGOptController(ConvPGController):
    """Conventional power-gating with early wakeup (Conv_PG_OPT)."""

    early_wakeup = True

    def __init__(self, node: int, pg: PowerGateConfig) -> None:
        super().__init__(node, pg)
        # Idle periods shorter than min_idle_before_gate cycles are never
        # gated (the early-wakeup signal reveals imminent arrivals).
        self.min_idle_before_gate = pg.min_idle_before_gate
