"""Per-router power-gating controller state machines.

Each router has a small always-on controller (Section 3.1) that monitors
datapath emptiness and the handshake signals, asserts the sleep signal, and
sequences wakeups:

* ``ON``     - router fully powered, normal pipeline operation;
* ``OFF``    - router gated off (NoRD: bypass datapath active);
* ``WAKING`` - wakeup in progress; takes ``wakeup_latency`` cycles, during
  which the router cannot process flits (NoRD: bypass keeps working).

One FSM serves every design and both cycle kernels.  A kernel calls
:meth:`PowerGateController.step` once per cycle with the router's
occupancy; the step asks the kernel for the IC condition and for the
conventional WU signal only in the states that read them, so a busy ON
router costs a few attribute writes.  A controller declares when an
idle step would change nothing but ``cycles_off``
(:meth:`PowerGateController.idle_step_is_noop`); the soa kernel skips
such controllers.  The design's rules live in the subclasses
(:mod:`repro.powergate.conventional`, :mod:`repro.powergate.nord`).
"""

from __future__ import annotations

from typing import Optional

from ..config import PowerGateConfig


class PowerState:
    ON = 0
    OFF = 1
    WAKING = 2

    NAMES = {0: "ON", 1: "OFF", 2: "WAKING"}


#: The states as module constants, which the per-cycle step reads
#: faster than class attributes.
_ON, _OFF, _WAKING = PowerState.ON, PowerState.OFF, PowerState.WAKING


class Transition:
    """Events returned by :meth:`PowerGateController.step`."""

    GATED_OFF = "gated_off"
    WAKE_STARTED = "wake_started"
    WOKE = "woke"
    #: A fail-armed router reached a clean flit boundary and is now
    #: permanently off (fault injection; not a power-gating event, so it
    #: does not count toward ``gate_offs``).
    FAILED = "failed"


class PowerGateController:
    """Base controller: never gates (the No_PG design)."""

    #: Whether this controller ever gates (False only for No_PG).
    gateable = False
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
        #: NoRD's VC-request window (the completed slots' sum, this
        #: cycle's count), which slides at the end of every step; it
        #: stays empty for the other designs.
        self._window_sum = 0
        self._current = 0
        # --- statistics ---
        self.wakeups = 0
        self.gate_offs = 0
        self.cycles_on = 0
        self.cycles_off = 0
        self.cycles_waking = 0

    # -- state queries ----------------------------------------------------
    def wakeup_asserted(self, net) -> bool:
        """The WU input this cycle (No_PG never asks for a wakeup)."""
        return False

    def idle_step_is_noop(self) -> bool:
        """Whether one idle step (datapath empty, no IC, no WU) would
        change nothing but ``cycles_off``: gated off, no hard-fail
        pending, no WU cycles held toward a slow wakeup and an empty
        VC-request window."""
        return (self.state == _OFF and not self.fail_armed
                and not self._wu_held and not self._window_sum
                and not self._current)

    # -- per-cycle update --------------------------------------------------
    def step(self, occupied: int, net) -> Optional[str]:
        """Advance one cycle; return a Transition event or None.

        ``occupied`` is truthy while the router's input buffers hold a
        flit.  ``net`` is the kernel, asked only where a state needs it:
        ``incoming_condition(node)`` (the IC condition) by an idle ON
        router that could gate or fail, ``injecting_through_router``
        by a fail, and ``wakeup_requested(node)`` (conventional WU) by
        :meth:`wakeup_asserted`.
        """
        state = self.state
        if state == _ON:
            self.cycles_on += 1
            if occupied:
                self._idle_run = 0  # a busy router never gates nor fails
                event = None
            elif self.fail_armed:
                event = self._step_fail_armed(net)
            elif not self.gateable:
                event = None
            else:
                idle = self._idle_run + 1
                self._idle_run = idle
                if (idle < self.min_idle_before_gate
                        or self.wakeup_asserted(net)
                        or net.incoming_condition(self.node)):
                    event = None
                else:
                    self.state = _OFF
                    self.gate_offs += 1
                    self._idle_run = 0
                    event = Transition.GATED_OFF
        elif state == _OFF:
            # (A fail is never armed on an OFF router: it fails at once.)
            self.cycles_off += 1
            event = None if self.failed else self._step_off(net)
        else:
            # WAKING: the wakeup always completes once started
            # (de-asserting WU mid-wake does not cancel it; the energy
            # is already being spent), also under a pending fail.
            self.cycles_waking += 1
            self._wake_left -= 1
            event = None
            if self._wake_left <= 0:
                self.state = _ON
                self._idle_run = 0
                event = Transition.WOKE
        if self._window_sum or self._current:
            self.end_cycle()
        return event

    def _step_off(self, net) -> Optional[str]:
        if not self.wakeup_asserted(net):
            self._wu_held = 0
            return None
        if self.wu_ignore:
            return None
        if self.wu_delay:
            self._wu_held += 1
            if self._wu_held <= self.wu_delay:
                return None
        self._wu_held = 0
        self.state = _WAKING
        self._wake_left = self.pg.wakeup_latency
        self.wakeups += 1
        return Transition.WAKE_STARTED

    def _step_fail_armed(self, net) -> Optional[str]:
        """Complete an armed hard-fail at the first *clean flit
        boundary*: the datapath is empty and nothing is committed toward
        this router (a local packet mid-injection included), so no
        wormhole is cut mid-packet and all flow-control invariants
        (credits, VC ownership) hold at the instant the router dies.
        WU is ignored: the fail does not wait for traffic to stop
        wanting the router."""
        node = self.node
        if (net.incoming_condition(node)
                or net.injecting_through_router(node)):
            return None
        self.state = _OFF
        self.fail_armed = False
        self.failed = True
        return Transition.FAILED

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(node={self.node}, "
                f"state={PowerState.NAMES[self.state]})")


class NoPGController(PowerGateController):
    """The No_PG baseline: the router is always on."""
