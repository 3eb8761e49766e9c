"""Per-router power-gating controller state machines.

Each router has a small always-on controller (Section 3.1) that monitors
datapath emptiness and the handshake signals, asserts the sleep signal, and
sequences wakeups:

* ``ON``     - router fully powered, normal pipeline operation;
* ``OFF``    - router gated off (NoRD: bypass datapath active);
* ``WAKING`` - wakeup in progress; takes ``wakeup_latency`` cycles, during
  which the router cannot process flits (NoRD: bypass keeps working).

The controller itself is design-agnostic; the *inputs* it samples each cycle
(`GateInputs`) are computed by the network according to the design's rules
(see :mod:`repro.powergate.conventional` and :mod:`repro.powergate.nord`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..config import PowerGateConfig


class PowerState:
    ON = 0
    OFF = 1
    WAKING = 2

    NAMES = {0: "ON", 1: "OFF", 2: "WAKING"}


class Transition:
    """Events returned by :meth:`PowerGateController.step`."""

    GATED_OFF = "gated_off"
    WAKE_STARTED = "wake_started"
    WOKE = "woke"
    #: A fail-armed router reached a clean flit boundary and is now
    #: permanently off (fault injection; not a power-gating event, so it
    #: does not count toward ``gate_offs``).
    FAILED = "failed"


@dataclass
class GateInputs:
    """What the controller samples in one cycle.

    ``empty``: router datapath (input buffers) is empty.
    ``incoming``: the IC condition - flits are in flight toward this router
        or an upstream packet is committed mid-transfer, so the router must
        not gate off (Section 4.3's IC signal, modelled conservatively).
    ``wakeup``: the WU condition - the design's wakeup metric demands this
        router be on.
    """

    empty: bool
    incoming: bool
    wakeup: bool


class PowerGateController:
    """Base controller: never gates (the No_PG design)."""

    #: Minimum consecutive idle cycles required before gating (overridden
    #: by Conv_PG_OPT's early-wakeup-informed hysteresis).
    min_idle_before_gate = 0

    def __init__(self, node: int, pg: PowerGateConfig) -> None:
        self.node = node
        self.pg = pg
        self.state = PowerState.ON
        self._wake_left = 0
        self._idle_run = 0
        # --- fault injection (see repro.faults) ---
        #: Hard-fail pending: gate off permanently at the next clean flit
        #: boundary (datapath empty, nothing committed toward us).
        self.fail_armed = False
        #: Hard-fail complete: permanently OFF, never wakes; ``gateable``
        #: is irrelevant because step() short-circuits before checking it.
        self.failed = False
        #: Stuck-wakeup faults: ignore WU entirely, or require it to stay
        #: asserted ``wu_delay`` extra cycles before honoring it.
        self.wu_ignore = False
        self.wu_delay = 0
        self._wu_held = 0
        # --- statistics ---
        self.wakeups = 0
        self.gate_offs = 0
        self.cycles_on = 0
        self.cycles_off = 0
        self.cycles_waking = 0

    # -- state queries ----------------------------------------------------
    @property
    def gateable(self) -> bool:
        """Whether this controller ever gates (False only for No_PG)."""
        return False

    # -- per-cycle update --------------------------------------------------
    def step(self, inputs: GateInputs) -> Optional[str]:
        """Advance one cycle; return a Transition event or None."""
        self._account()
        if self.failed:
            return None
        if self.fail_armed:
            return self._step_fail_armed(inputs)
        if not self.gateable:
            return None
        if self.state == PowerState.ON:
            if inputs.empty:
                self._idle_run += 1
            else:
                self._idle_run = 0
            if (inputs.empty and not inputs.incoming and not inputs.wakeup
                    and self._idle_run >= max(1, self.min_idle_before_gate)):
                self.state = PowerState.OFF
                self.gate_offs += 1
                self._idle_run = 0
                return Transition.GATED_OFF
            return None
        if self.state == PowerState.OFF:
            if inputs.wakeup:
                if self.wu_ignore:
                    return None
                if self.wu_delay:
                    self._wu_held += 1
                    if self._wu_held <= self.wu_delay:
                        return None
                self._wu_held = 0
                self.state = PowerState.WAKING
                self._wake_left = self.pg.wakeup_latency
                self.wakeups += 1
                return Transition.WAKE_STARTED
            self._wu_held = 0
            return None
        # WAKING: the wakeup always completes once started (de-asserting WU
        # mid-wake does not cancel it; the energy is already being spent).
        self._wake_left -= 1
        if self._wake_left <= 0:
            self.state = PowerState.ON
            self._idle_run = 0
            return Transition.WOKE
        return None

    def _step_fail_armed(self, inputs: GateInputs) -> Optional[str]:
        """Advance an armed hard-fail toward completion.

        The fail takes effect at the first *clean flit boundary*: the
        datapath is empty and nothing is committed toward this router, so
        no wormhole is cut mid-packet and all flow-control invariants
        (credits, VC ownership) hold at the instant the router dies.  An
        in-progress wakeup is allowed to finish first (the energy is
        already spent); the router then fails from ON.
        """
        if self.state == PowerState.WAKING:
            self._wake_left -= 1
            if self._wake_left <= 0:
                self.state = PowerState.ON
                self._idle_run = 0
                return Transition.WOKE
            return None
        if inputs.empty and not inputs.incoming:
            self.state = PowerState.OFF
            self.fail_armed = False
            self.failed = True
            return Transition.FAILED
        return None

    def _account(self) -> None:
        if self.state == PowerState.ON:
            self.cycles_on += 1
        elif self.state == PowerState.OFF:
            self.cycles_off += 1
        else:
            self.cycles_waking += 1

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(node={self.node}, "
                f"state={PowerState.NAMES[self.state]})")


class NoPGController(PowerGateController):
    """The No_PG baseline: the router is always on."""
