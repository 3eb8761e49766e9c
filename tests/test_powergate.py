"""Power-gating controller state machines."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PowerGateConfig
from repro.powergate.controller import (NoPGController, PowerState,
                                        Transition)
from repro.powergate.conventional import ConvPGController, ConvPGOptController
from repro.powergate.nord import NoRDController


class Sampled:
    """The network side of one cycle, as a kernel would report it to
    ``PowerGateController.step``."""

    def __init__(self, incoming=False, wakeup=False):
        self.incoming = incoming
        self.wakeup = wakeup

    def incoming_condition(self, node):
        return self.incoming

    def injecting_through_router(self, node):
        return False

    def wakeup_requested(self, node):
        return self.wakeup


#: ``ctrl.step(*X)``: (router occupancy, network).
IDLE = (0, Sampled())
BUSY = (1, Sampled())
WAKE = (0, Sampled(wakeup=True))
IC = (0, Sampled(incoming=True))


def pg(**kw):
    return PowerGateConfig(**kw)


class TestNoPG:
    def test_never_gates(self):
        ctrl = NoPGController(0, pg())
        for _ in range(100):
            assert ctrl.step(*IDLE) is None
        assert ctrl.state == PowerState.ON
        assert ctrl.cycles_on == 100
        assert ctrl.wakeups == 0


class TestConvPG:
    def test_gates_as_soon_as_empty(self):
        ctrl = ConvPGController(0, pg())
        assert ctrl.step(*IDLE) == Transition.GATED_OFF
        assert ctrl.state == PowerState.OFF

    def test_does_not_gate_when_busy(self):
        ctrl = ConvPGController(0, pg())
        for _ in range(20):
            assert ctrl.step(*BUSY) is None
        assert ctrl.state == PowerState.ON

    def test_ic_blocks_gating(self):
        ctrl = ConvPGController(0, pg())
        assert ctrl.step(*IC) is None
        assert ctrl.state == PowerState.ON

    def test_wakeup_sequence_takes_wakeup_latency(self):
        ctrl = ConvPGController(0, pg(wakeup_latency=12))
        ctrl.step(*IDLE)  # gate off
        assert ctrl.step(*WAKE) == Transition.WAKE_STARTED
        assert ctrl.state == PowerState.WAKING
        events = [ctrl.step(*IDLE) for _ in range(12)]
        assert events[:-1] == [None] * 11
        assert events[-1] == Transition.WOKE
        assert ctrl.state == PowerState.ON
        assert ctrl.wakeups == 1

    def test_wakeup_completes_even_if_wu_deasserts(self):
        ctrl = ConvPGController(0, pg(wakeup_latency=3))
        ctrl.step(*IDLE)
        ctrl.step(*WAKE)
        ctrl.step(*IDLE)
        ctrl.step(*IDLE)
        assert ctrl.step(*IDLE) == Transition.WOKE

    def test_stays_off_without_wakeup(self):
        ctrl = ConvPGController(0, pg())
        ctrl.step(*IDLE)
        for _ in range(50):
            assert ctrl.step(*IDLE) is None
        assert ctrl.cycles_off == 50

    def test_state_accounting(self):
        ctrl = ConvPGController(0, pg(wakeup_latency=2))
        ctrl.step(*BUSY)          # on
        ctrl.step(*IDLE)          # on -> off (accounted as on this cycle)
        ctrl.step(*IDLE)          # off
        ctrl.step(*WAKE)          # off -> waking
        ctrl.step(*IDLE)          # waking
        ctrl.step(*IDLE)          # waking -> on
        assert ctrl.cycles_on == 2
        assert ctrl.cycles_off == 2
        assert ctrl.cycles_waking == 2


class TestConvPGOpt:
    def test_requires_four_idle_cycles(self):
        """Idle periods shorter than 4 cycles are never gated."""
        ctrl = ConvPGOptController(0, pg(min_idle_before_gate=4))
        for _ in range(3):
            assert ctrl.step(*IDLE) is None
        assert ctrl.step(*IDLE) == Transition.GATED_OFF

    def test_busy_cycle_resets_idle_run(self):
        ctrl = ConvPGOptController(0, pg(min_idle_before_gate=4))
        ctrl.step(*IDLE)
        ctrl.step(*IDLE)
        ctrl.step(*IDLE)
        ctrl.step(*BUSY)
        assert ctrl.step(*IDLE) is None
        assert ctrl.state == PowerState.ON

    def test_early_wakeup_flag(self):
        assert ConvPGOptController(0, pg()).early_wakeup
        assert not ConvPGController(0, pg()).early_wakeup


class TestNoRDController:
    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            NoRDController(0, pg(), threshold=0)

    def test_min_idle_from_config(self):
        ctrl = NoRDController(0, pg(nord_min_idle=7), threshold=3)
        assert ctrl.min_idle_before_gate == 7

    def test_window_sums_stalled_requests(self):
        ctrl = NoRDController(0, pg(wakeup_window=10), threshold=3)
        ctrl.note_vc_request(attempted=2, stalled=2)
        ctrl.end_cycle()
        assert ctrl.window_requests == 2
        assert not ctrl.wakeup_asserted(None)
        ctrl.note_vc_request(attempted=1, stalled=1)
        assert ctrl.window_requests == 3
        assert ctrl.wakeup_asserted(None)

    def test_granted_requests_do_not_count_by_default(self):
        ctrl = NoRDController(0, pg(), threshold=1)
        ctrl.note_vc_request(attempted=5, stalled=0)
        ctrl.end_cycle()
        assert ctrl.window_requests == 0
        assert not ctrl.wakeup_asserted(None)
        assert ctrl.total_vc_requests == 5

    def test_count_all_requests_mode(self):
        ctrl = NoRDController(0, pg(), threshold=1)
        ctrl.count_all_requests = True
        ctrl.note_vc_request(attempted=1, stalled=0)
        assert ctrl.wakeup_asserted(None)

    def test_window_slides(self):
        ctrl = NoRDController(0, pg(wakeup_window=3), threshold=1)
        ctrl.note_vc_request(1, 1)
        ctrl.end_cycle()
        assert ctrl.window_requests == 1
        for _ in range(3):
            ctrl.end_cycle()
        assert ctrl.window_requests == 0

    def test_force_off_suppresses_wakeup(self):
        ctrl = NoRDController(0, pg(), threshold=1)
        ctrl.force_off = True
        ctrl.note_vc_request(10, 10)
        assert not ctrl.wakeup_asserted(None)

    def test_full_cycle_with_metric(self):
        ctrl = NoRDController(0, pg(nord_min_idle=1, wakeup_latency=2),
                              threshold=1)
        assert ctrl.step(*IDLE) == Transition.GATED_OFF
        ctrl.note_vc_request(1, 1)
        assert ctrl.step(*IDLE) == Transition.WAKE_STARTED
        ctrl.step(*IDLE)
        assert ctrl.step(*IDLE) == Transition.WOKE

    def test_performance_centric_flag(self):
        ctrl = NoRDController(4, pg(), threshold=1, performance_centric=True)
        assert ctrl.performance_centric


class TestStateMachineEdges:
    """Edge cases of the gate/wake state machine."""

    def test_wakeup_during_gateable_window_blocks_gating(self):
        """WU asserted the same cycle gating would trigger wins: the
        router stays on instead of gating and immediately re-waking."""
        ctrl = ConvPGController(0, pg())
        assert ctrl.step(*WAKE) is None
        assert ctrl.state == PowerState.ON
        assert ctrl.gate_offs == 0 and ctrl.wakeups == 0

    def test_wakeup_mid_drain_to_off(self):
        """A wakeup arriving the cycle after gate-off is honored from
        OFF - the transition sequence is GATED_OFF -> WAKE_STARTED with
        no lost events."""
        ctrl = ConvPGController(0, pg(wakeup_latency=2))
        assert ctrl.step(*IDLE) == Transition.GATED_OFF
        assert ctrl.step(*WAKE) == Transition.WAKE_STARTED
        assert ctrl.state == PowerState.WAKING

    def test_back_to_back_gate_wake_within_bet_window(self):
        """Gate/wake thrashing faster than the breakeven time is legal
        for the state machine; every transition is counted so the energy
        model can charge the (lossy) overhead per wakeup."""
        bet = pg().breakeven_time
        ctrl = ConvPGController(0, pg(wakeup_latency=2))
        for _ in range(3):
            assert ctrl.step(*IDLE) == Transition.GATED_OFF
            assert ctrl.step(*WAKE) == Transition.WAKE_STARTED
            assert ctrl.step(*IDLE) is None
            assert ctrl.step(*IDLE) == Transition.WOKE
        # each gate->wake round trip took 4 cycles, well inside the BET
        assert 4 < bet + ctrl.pg.wakeup_latency
        assert ctrl.gate_offs == 3 and ctrl.wakeups == 3

    def test_gateable_pinned_false_never_gates(self):
        """No_PG's gateable=False pins the router on through anything."""
        ctrl = NoPGController(0, pg())
        assert not ctrl.gateable
        for inputs in (IDLE, WAKE, IC, BUSY) * 25:
            assert ctrl.step(*inputs) is None
        assert ctrl.state == PowerState.ON
        assert ctrl.gate_offs == 0 and ctrl.wakeups == 0

    def test_wake_then_immediate_regate(self):
        """After WOKE the idle run restarts from zero: Conv_PG_OPT needs
        min_idle fresh idle cycles before gating again."""
        ctrl = ConvPGOptController(0, pg(min_idle_before_gate=4,
                                         wakeup_latency=1))
        for _ in range(4):
            ctrl.step(*IDLE)
        assert ctrl.state == PowerState.OFF
        ctrl.step(*WAKE)
        assert ctrl.step(*IDLE) == Transition.WOKE
        events = [ctrl.step(*IDLE) for _ in range(4)]
        assert events[:3] == [None] * 3
        assert events[3] == Transition.GATED_OFF


class TestFaultHooks:
    """Fail-armed / failed / stuck-wakeup behaviour of the controller."""

    def test_fail_armed_waits_for_clean_boundary(self):
        ctrl = ConvPGController(0, pg())
        ctrl.fail_armed = True
        assert ctrl.step(*BUSY) is None          # flits buffered: wait
        assert ctrl.step(*IC) is None            # flits inbound: wait
        assert ctrl.state == PowerState.ON
        assert ctrl.step(*IDLE) == Transition.FAILED
        assert ctrl.failed and not ctrl.fail_armed
        assert ctrl.state == PowerState.OFF
        assert ctrl.gate_offs == 0              # not a power-gating event

    def test_failed_controller_ignores_everything(self):
        ctrl = ConvPGController(0, pg())
        ctrl.fail_armed = True
        ctrl.step(*IDLE)
        for inputs in (WAKE, BUSY, IC, IDLE) * 25:
            assert ctrl.step(*inputs) is None
        assert ctrl.state == PowerState.OFF
        assert ctrl.wakeups == 0

    def test_fail_armed_lets_inflight_wakeup_finish(self):
        """An in-progress wakeup completes before the fail lands (the
        energy is spent either way); the fail then needs its boundary."""
        ctrl = ConvPGController(0, pg(wakeup_latency=2))
        ctrl.step(*IDLE)                          # gate off
        ctrl.step(*WAKE)                          # start waking
        ctrl.fail_armed = True
        assert ctrl.step(*IDLE) is None
        assert ctrl.step(*IDLE) == Transition.WOKE
        assert ctrl.state == PowerState.ON and ctrl.fail_armed
        assert ctrl.step(*IDLE) == Transition.FAILED

    def test_wu_ignore_never_wakes(self):
        ctrl = ConvPGController(0, pg())
        ctrl.wu_ignore = True
        ctrl.step(*IDLE)
        for _ in range(50):
            assert ctrl.step(*WAKE) is None
        assert ctrl.state == PowerState.OFF and ctrl.wakeups == 0

    def test_wu_delay_requires_sustained_assertion(self):
        ctrl = ConvPGController(0, pg(wakeup_latency=1))
        ctrl.wu_delay = 3
        ctrl.step(*IDLE)                          # gate off
        assert [ctrl.step(*WAKE) for _ in range(3)] == [None] * 3
        assert ctrl.step(*WAKE) == Transition.WAKE_STARTED
        assert ctrl.wakeups == 1

    def test_wu_delay_resets_when_deasserted(self):
        ctrl = ConvPGController(0, pg())
        ctrl.wu_delay = 2
        ctrl.step(*IDLE)
        ctrl.step(*WAKE)                          # held 1
        ctrl.step(*IDLE)                          # deasserted: reset
        assert [ctrl.step(*WAKE) for _ in range(2)] == [None] * 2
        assert ctrl.step(*WAKE) == Transition.WAKE_STARTED


#: Small enough that random windows and counters hit their edges.
SMALL = pg(wakeup_window=3, wakeup_latency=2, min_idle_before_gate=2,
           nord_min_idle=2)
#: Counts a NoRD window slot may hold; zero weighted so that an all-zero
#: window (the one a quiescent controller needs) is drawn often.
_COUNT = st.sampled_from((0, 0, 0, 1, 2))


@st.composite
def controller_states(draw):
    """A controller of any design in a random state, fault fields
    included; reachable or not, the predicate must be sound on it."""
    cls = draw(st.sampled_from((NoPGController, ConvPGController,
                                ConvPGOptController, NoRDController)))
    if cls is NoRDController:
        ctrl = cls(0, SMALL, threshold=draw(st.integers(1, 3)))
        ctrl.force_off = draw(st.booleans())
        ctrl.count_all_requests = draw(st.booleans())
        counts = draw(st.lists(_COUNT, min_size=ctrl.window,
                               max_size=ctrl.window))
        ctrl._counts.extend(counts)
        ctrl._window_sum = sum(counts)
        ctrl._current = draw(_COUNT)
    else:
        ctrl = cls(0, SMALL)
    ctrl.state = draw(st.sampled_from((PowerState.ON, PowerState.OFF,
                                       PowerState.WAKING)))
    ctrl._idle_run = draw(st.integers(0, 3))
    ctrl._wake_left = draw(st.integers(0, 3))
    ctrl.fail_armed = draw(st.booleans())
    ctrl.failed = draw(st.booleans())
    ctrl.wu_ignore = draw(st.booleans())
    ctrl.wu_delay = draw(st.integers(0, 3))
    ctrl._wu_held = draw(st.sampled_from((0, 0, 1, 2, 4)))
    return ctrl


class TestIdleStepIsNoop:
    """The soa kernel skips a controller whose ``idle_step_is_noop()``
    holds and credits it one ``cycles_off`` per skipped cycle, so such a
    step must be exactly that."""

    @settings(max_examples=400, deadline=None)
    @given(ctrl=controller_states())
    def test_noop_idle_step_changes_only_cycles_off(self, ctrl):
        if not ctrl.idle_step_is_noop():
            return
        before = copy.deepcopy(vars(ctrl))
        assert ctrl.step(*IDLE) is None
        after = vars(ctrl)
        assert after.pop("cycles_off") == before.pop("cycles_off") + 1
        assert after == before

    @pytest.mark.parametrize("make", [
        lambda: ConvPGController(0, SMALL),
        lambda: NoRDController(0, SMALL, threshold=1)],
        ids=["Conv_PG", "NoRD"])
    def test_held_wu_is_not_quiescent(self, make):
        """A gated-off controller that holds WU cycles toward a slow
        wakeup is not skippable: its next idle step resets the count."""
        ctrl = make()
        ctrl.state = PowerState.OFF
        ctrl._wu_held = 2
        assert not ctrl.idle_step_is_noop()
        ctrl.step(*IDLE)
        assert ctrl._wu_held == 0 and ctrl.idle_step_is_noop()
