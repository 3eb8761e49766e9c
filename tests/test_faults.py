"""Fault injection and graceful degradation (repro.faults).

The contract under test, per design:

* an **empty plan** exercises every hook yet produces byte-identical
  results to running with no plan at all (zero behavioural drift);
* a **hard-failed router** under NoRD still delivers 100% of packets
  (the bypass ring serves the dead router's node); the conventional
  designs record dropped/failed packets instead of deadlocking;
* **link corruption** is detected end to end via sequence numbers, and
  NI retransmission recovers delivery at a latency/overhead cost;
* all of it is **deterministic**: same plan + seed -> same RunResult,
  on both cycle kernels (soa, and ref's dense scans).
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import Design
from repro.errors import CreditAccountingError, DeadlockError, SimulationHang
from repro.experiments.common import build_config
from repro.faults import (ALL_LINKS, FaultPlan, FaultState, LinkFault,
                          RouterFailure, WakeupFault)
from repro.noc.network import Network
from repro.noc.topology import NUM_PORTS, SOUTH
from repro.powergate.controller import PowerState
from repro.traffic.synthetic import uniform_random

FAILED_NODE = 5
FAIL_CYCLE = 60
TESTS = Path(__file__).resolve().parent


def faulted_run(design, plan, *, rate=0.05, seed=7, scale="smoke",
                **net_kw):
    cfg = build_config(design, scale, seed=seed)
    net = Network(cfg, fault_plan=plan, **net_kw)
    result = net.run(uniform_random(net.mesh, rate, seed=seed))
    return net, result


# ---------------------------------------------------------------------------
# plan validation & plumbing
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan().is_empty
        assert FaultPlan(retransmit=True).is_empty  # retx alone: no fault
        assert FaultPlan.single_router_failure(0, 1)
        assert FaultPlan.uniform_link_noise(corrupt_rate=0.1)

    def test_noop_link_fault_stays_empty(self):
        assert FaultPlan(link_faults=(LinkFault(),)).is_empty

    def test_rejects_bad_rates_and_cycles(self):
        with pytest.raises(ValueError):
            LinkFault(corrupt_rate=1.5)
        with pytest.raises(ValueError):
            LinkFault(drop_rate=-0.1)
        with pytest.raises(ValueError):
            RouterFailure(node=-1, cycle=0)
        with pytest.raises(ValueError):
            RouterFailure(node=0, cycle=-1)
        with pytest.raises(ValueError):
            WakeupFault(node=0, delay=-1)
        with pytest.raises(ValueError):
            FaultPlan(retransmit_timeout=0)
        with pytest.raises(ValueError):
            FaultPlan(max_retries=-1)

    def test_rejects_out_of_mesh_nodes(self):
        with pytest.raises(ValueError, match="16 nodes"):
            FaultState(FaultPlan.single_router_failure(16, 0), 16)
        with pytest.raises(ValueError, match="wakeup fault"):
            FaultState(FaultPlan(wakeup_faults=(WakeupFault(99),)), 16)
        with pytest.raises(ValueError, match="wakeup fault"):
            WakeupFault(node=-1, ignore=True)  # would hit node 15
        # Link faults naming no link of the 4x4 mesh, rejected when the
        # network is wired: half-wildcards (the wildcard half would be
        # ignored or match nothing), a node off the mesh, and a port
        # node 0 has no link on.
        cfg = build_config(Design.CONV_PG, "smoke")
        for fault in (LinkFault(src=3, corrupt_rate=.5),
                      LinkFault(port=2, corrupt_rate=.5),
                      LinkFault(src=99, port=1, corrupt_rate=.5),
                      LinkFault(src=0, port=SOUTH, corrupt_rate=.5)):
            with pytest.raises(ValueError, match="is no mesh link"):
                Network(cfg, fault_plan=FaultPlan(link_faults=(fault,)))

    def test_plan_is_picklable_and_keyable(self):
        plan = FaultPlan.single_router_failure(3, 100, retransmit=True)
        assert pickle.loads(pickle.dumps(plan)) == plan
        key = plan.to_key()
        assert key["router_failures"][0]["node"] == 3
        assert plan.to_key() == plan.to_key()

    def test_explicit_link_fault_overrides_blanket(self):
        plan = FaultPlan(link_faults=(
            LinkFault(corrupt_rate=0.5),           # blanket
            LinkFault(src=2, port=1),              # explicit no-op
            LinkFault(src=3, port=0, drop_rate=0.9)))
        state = FaultState(plan, 16)
        assert state.link_fault_for(0, 0).corrupt_rate == 0.5
        assert state.link_fault_for(2, 1) is None   # explicit wins
        assert state.link_fault_for(3, 0).drop_rate == 0.9
        assert ALL_LINKS == -1


# ---------------------------------------------------------------------------
# empty plan: zero behavioural drift
# ---------------------------------------------------------------------------
class TestEmptyPlanDrift:
    @pytest.mark.parametrize("design", Design.ALL)
    def test_empty_plan_byte_identical(self, design):
        _, bare = faulted_run(design, None)
        _, empty = faulted_run(design, FaultPlan())
        assert bare.to_dict() == empty.to_dict()

    def test_env_var_forces_empty_plan(self):
        """The drift harness's empty-plan hook: with
        tests/empty_faultplan on ``PYTHONPATH`` (which spawned workers
        inherit), every network carries an empty plan - and stays on
        the soa kernel."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(TESTS / "empty_faultplan"), str(TESTS.parent / "src")])
        code = ("from repro.config import Design\n"
                "from repro.experiments.common import build_config\n"
                "from repro.noc.network import Network\n"
                "net = Network(build_config(Design.NORD, 'smoke'))\n"
                "print(net.backend, net._faults.plan.is_empty)\n")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["soa", "True"]


# ---------------------------------------------------------------------------
# router hard-fail: NoRD survives, conventional designs degrade
# ---------------------------------------------------------------------------
class TestRouterFailure:
    def test_nord_delivers_everything(self):
        plan = FaultPlan.single_router_failure(FAILED_NODE, FAIL_CYCLE)
        net, result = faulted_run(Design.NORD, plan)
        assert result.delivered_fraction == 1.0
        assert result.packets_failed == 0
        assert net.outstanding_flits == 0
        ctrl = net.controllers[FAILED_NODE]
        assert ctrl.failed and ctrl.state == PowerState.OFF

    @pytest.mark.parametrize("design", (Design.NO_PG, Design.CONV_PG,
                                        Design.CONV_PG_OPT))
    def test_conventional_records_failures_without_raising(self, design):
        plan = FaultPlan.single_router_failure(FAILED_NODE, FAIL_CYCLE)
        net, result = faulted_run(design, plan)  # must not raise
        assert result.packets_failed > 0
        assert result.delivered_fraction < 1.0
        # every packet is accounted for: delivered or explicitly failed
        assert net.outstanding_flits == 0
        assert (result.packets_measured + result.packets_failed
                == result.packets_created)

    def test_failed_router_never_wakes(self):
        plan = FaultPlan.single_router_failure(FAILED_NODE, FAIL_CYCLE)
        net, _ = faulted_run(Design.NORD, plan)
        ctrl = net.controllers[FAILED_NODE]
        before = ctrl.wakeups
        assert not ctrl.gateable or ctrl.failed  # pinned off
        for _ in range(50):
            net.step()
        assert ctrl.state == PowerState.OFF
        assert ctrl.wakeups == before

    def test_neighbor_ports_marked_failed_conventional(self):
        plan = FaultPlan.single_router_failure(FAILED_NODE, FAIL_CYCLE)
        net, _ = faulted_run(Design.CONV_PG, plan)
        marked = [divmod(o, NUM_PORTS)
                  for o, failed in enumerate(net._failed) if failed]
        assert marked  # the dead router's neighbors know
        for node, port in marked:
            assert net.mesh.neighbor(node, port) == FAILED_NODE

    def test_nord_keeps_ports_unfailed(self):
        plan = FaultPlan.single_router_failure(FAILED_NODE, FAIL_CYCLE)
        net, _ = faulted_run(Design.NORD, plan)
        assert not any(net._failed)

    def test_fail_from_off_completes_immediately(self):
        """A router already gated off dies in place - no re-gating."""
        cfg = build_config(Design.NORD, "smoke", seed=7)
        net = Network(cfg, fault_plan=FaultPlan())
        ctrl = net.controllers[FAILED_NODE]
        for _ in range(50):  # idle network: NoRD routers gate off
            net.step()
        assert ctrl.state == PowerState.OFF and not ctrl.failed
        gate_offs = ctrl.gate_offs
        net.schedule_router_failure(FAILED_NODE)
        assert ctrl.failed  # no arming needed: it dies in place
        assert FAILED_NODE in net._faults.failed_nodes
        assert ctrl.gate_offs == gate_offs  # not a power-gating event


# ---------------------------------------------------------------------------
# link faults: corruption, drops, retransmission, duplicates
# ---------------------------------------------------------------------------
class TestLinkFaults:
    def test_corruption_without_retx_loses_packets(self):
        plan = FaultPlan.uniform_link_noise(corrupt_rate=2e-3, seed=11)
        _, result = faulted_run(Design.CONV_PG, plan)
        assert result.flits_corrupted > 0
        assert result.packets_corrupted > 0
        assert result.packets_failed == result.packets_corrupted
        assert result.delivered_fraction < 1.0

    def test_retransmission_recovers_delivery(self):
        noisy = dict(corrupt_rate=2e-3, seed=11)
        plan = FaultPlan.uniform_link_noise(**noisy)
        retx = FaultPlan.uniform_link_noise(retransmit=True,
                                            retransmit_timeout=200, **noisy)
        _, lossy = faulted_run(Design.NORD, plan)
        net, healed = faulted_run(Design.NORD, retx)
        assert lossy.delivered_fraction < 1.0
        assert healed.delivered_fraction == 1.0
        assert healed.packets_failed == 0
        assert healed.packets_retransmitted > 0
        assert not net._faults.busy  # all confirmations in
        # recovery is not free: retried packets pay their timeout
        assert healed.avg_packet_latency > lossy.avg_packet_latency

    def test_drop_faults_recovered_by_retx(self):
        plan = FaultPlan.uniform_link_noise(drop_rate=1e-3, seed=11,
                                            retransmit=True,
                                            retransmit_timeout=200)
        _, result = faulted_run(Design.NORD, plan)
        assert result.flits_dropped > 0
        assert result.delivered_fraction == 1.0

    def test_credit_loss_wedges_and_watchdog_fires_typed(self):
        """Both kernels wedge on the same lost credits: the same typed
        error at the same cycle, with the same diagnostics."""
        plan = FaultPlan.uniform_link_noise(credit_loss_rate=0.05, seed=5)
        cfg = build_config(Design.CONV_PG, "smoke", seed=7)
        seen = {}
        for backend in (None, "ref"):
            net = Network(cfg, fault_plan=plan, backend=backend)
            net.deadlock_limit = 400
            with pytest.raises(SimulationHang) as excinfo:
                net.run(uniform_random(net.mesh, 0.10, seed=7))
            err = excinfo.value
            assert isinstance(err, DeadlockError)
            assert net.stats.credits_lost > 0
            assert err.diagnostics["routers"]  # names the wedged routers
            seen[net.backend] = (type(err), net.now, str(err),
                                 err.diagnostics, net.stats.credits_lost)
        assert seen["soa"] == seen["ref"]

    #: NoRD loses a credit its ring predecessor is owed, then the owed
    #: router gates off (cycle 38, after 9 lost credits).
    NORD_CREDIT_LOSS = dict(design=Design.NORD, seed=1, rate=0.05,
                            plan=FaultPlan.uniform_link_noise(
                                credit_loss_rate=0.05, seed=1))

    def test_nord_credit_loss_stops_typed_on_both_kernels(self):
        """The gate-off clamp meets an unaccounted credit: a typed error
        naming the router, the predecessor's VC and its count, the same
        on both kernels."""
        case = self.NORD_CREDIT_LOSS
        cfg = build_config(case["design"], "smoke", seed=case["seed"])
        seen = {}
        for backend in (None, "ref"):
            net = Network(cfg, fault_plan=case["plan"], backend=backend)
            with pytest.raises(CreditAccountingError) as excinfo:
                net.run(uniform_random(net.mesh, case["rate"],
                                       seed=case["seed"]))
            err = excinfo.value
            assert isinstance(err, RuntimeError)
            diag = err.diagnostics
            assert diag["kind"] == "credit-accounting"
            assert diag["cycle"] == net.now
            assert diag["credits_lost"] == net.stats.credits_lost > 0
            assert diag["predecessor"] == net.ring.predecessor[diag["node"]]
            assert diag["credit"] < diag["max"]
            seen[net.backend] = (type(err), net.now, str(err), diag)
        assert seen["soa"] == seen["ref"]

    def test_nord_credit_loss_is_a_recorded_failure(self):
        """In a partial sweep the point fails once (deterministic: no
        retry), keeps its diagnostics and rebuilds as the typed error."""
        from repro.experiments.parallel import (DesignPoint, SweepRunner,
                                                uniform_spec)
        case = self.NORD_CREDIT_LOSS
        point = DesignPoint(
            cfg=build_config(case["design"], "smoke", seed=case["seed"]),
            traffic=uniform_spec(case["rate"], seed=case["seed"]),
            faults=case["plan"])
        runner = SweepRunner(use_cache=False, partial=True, retries=2)
        assert runner.run([point]) == [None]
        failed, = runner.failures
        assert (failed.kind, failed.attempts) == ("error", 1)
        assert runner.stats.retried == 0
        assert failed.diagnostics["kind"] == "credit-accounting"
        assert failed.diagnostics["cycle"] == 38
        err = failed.to_exception()
        assert type(err) is CreditAccountingError
        assert (str(err), err.diagnostics) == (failed.message,
                                               failed.diagnostics)


# ---------------------------------------------------------------------------
# wakeup faults
# ---------------------------------------------------------------------------
class TestWakeupFaults:
    def test_nord_survives_stuck_wakeup(self):
        plan = FaultPlan(wakeup_faults=(WakeupFault(FAILED_NODE,
                                                    ignore=True),))
        net, result = faulted_run(Design.NORD, plan)
        assert result.delivered_fraction == 1.0
        assert net.controllers[FAILED_NODE].wakeups == 0

    def test_conventional_survives_delayed_wakeup(self):
        plan = FaultPlan(wakeup_faults=(WakeupFault(FAILED_NODE,
                                                    delay=30),))
        _, result = faulted_run(Design.CONV_PG, plan)
        assert result.delivered_fraction == 1.0

    def test_delay_changes_behaviour(self):
        baseline = faulted_run(Design.CONV_PG, None)[1]
        plan = FaultPlan(wakeup_faults=(WakeupFault(FAILED_NODE,
                                                    delay=30),))
        delayed = faulted_run(Design.CONV_PG, plan)[1]
        assert delayed.avg_packet_latency != baseline.avg_packet_latency


# ---------------------------------------------------------------------------
# determinism of faulted runs
# ---------------------------------------------------------------------------
SCENARIOS = [
    FaultPlan.single_router_failure(FAILED_NODE, FAIL_CYCLE),
    FaultPlan.uniform_link_noise(corrupt_rate=2e-3, seed=11,
                                 retransmit=True, retransmit_timeout=200),
]


class TestDeterminism:
    @pytest.mark.parametrize("plan", SCENARIOS)
    @pytest.mark.parametrize("design", (Design.CONV_PG, Design.NORD))
    def test_rerun_is_byte_identical(self, design, plan):
        _, a = faulted_run(design, plan)
        _, b = faulted_run(design, plan)
        assert a.to_dict() == b.to_dict()

    @pytest.mark.parametrize("plan", SCENARIOS)
    def test_kernels_agree_under_faults(self, plan):
        """The default kernel (soa) == the dense reference, byte for
        byte, with faults live."""
        net_fast, fast = faulted_run(Design.NORD, plan)
        net_full, full = faulted_run(Design.NORD, plan, backend="ref")
        assert (net_fast.backend, net_full.backend) == ("soa", "ref")
        assert fast.to_dict() == full.to_dict()

    def test_fault_seed_matters(self):
        a = faulted_run(Design.NORD, FaultPlan.uniform_link_noise(
            corrupt_rate=2e-3, seed=11))[1]
        b = faulted_run(Design.NORD, FaultPlan.uniform_link_noise(
            corrupt_rate=2e-3, seed=12))[1]
        assert a.to_dict() != b.to_dict()
