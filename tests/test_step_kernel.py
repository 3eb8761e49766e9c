"""The quiescence-aware cycle kernel: skipping == dense scans, exactly.

The default kernel (soa) visits only the components that can make
progress each cycle; the reference kernel (``backend="ref"``) scans
every component every cycle.  These tests pin the contract that doing
so is *byte-identical*, that the skip layer's invariants hold mid-run,
and that the ``--profile`` instrumentation works.  The mutants that
break the skip bookkeeping and must fail this differential are in
tests/test_fast_mode_identity.py (``TestOracleSelfTest``).
"""

import pytest

from repro.config import Design
from repro.experiments.common import build_config
from repro.noc import activity
from repro.noc.network import Network
from repro.powergate.controller import PowerState
from repro.traffic.parsec import make_traffic
from repro.traffic.synthetic import uniform_random


def run_result(design, *, backend=None, scale="smoke", rate=0.08, seed=3,
               traffic="uniform"):
    """One run on the default (skipping) kernel, or on the dense
    reference with ``backend="ref"``."""
    cfg = build_config(design, scale, seed=seed)
    net = Network(cfg, backend=backend)
    if traffic == "uniform":
        gen = uniform_random(net.mesh, rate, seed=seed)
    else:
        gen = make_traffic(net.mesh, traffic, seed=seed)
    return net.run(gen)


class TestByteIdentity:
    @pytest.mark.parametrize("design", Design.ALL)
    def test_uniform_traffic_all_designs(self, design):
        fast = run_result(design)
        full = run_result(design, backend="ref")
        assert fast.to_dict() == full.to_dict()

    def test_blackscholes_nord(self):
        # The low-load PARSEC model (~71% idle) is where the skip layer
        # skips the most - and therefore where divergence would hide.
        fast = run_result(Design.NORD, traffic="blackscholes")
        full = run_result(Design.NORD, backend="ref",
                          traffic="blackscholes")
        assert fast.to_dict() == full.to_dict()

    def test_blackscholes_conv_pg(self):
        fast = run_result(Design.CONV_PG, traffic="blackscholes")
        full = run_result(Design.CONV_PG, backend="ref",
                          traffic="blackscholes")
        assert fast.to_dict() == full.to_dict()

    @pytest.mark.parametrize("design", [Design.NORD, Design.CONV_PG])
    def test_faulted_run_env_escape_hatch(self, design):
        """The dense reference (pinned; the name is from when an
        environment switch selected it) vs the default kernel (soa),
        with live faults: the fault RNG draws in the reference's order,
        so both kernels must consume it identically."""
        from repro.faults import FaultPlan
        plan = FaultPlan(
            router_failures=(
                FaultPlan.single_router_failure(5, 60)
                .router_failures),
            link_faults=FaultPlan.uniform_link_noise(
                corrupt_rate=2e-3, seed=11).link_faults,
            seed=11, retransmit=True, retransmit_timeout=200)

        def faulted(design, backend):
            cfg = build_config(design, "smoke", seed=3)
            net = Network(cfg, fault_plan=plan, backend=backend)
            assert net.backend == (backend or "soa")
            return net.run(uniform_random(net.mesh, 0.08, seed=3))
        fast = faulted(design, None)
        full = faulted(design, "ref")
        assert fast.to_dict() == full.to_dict()
        assert (fast.packets_failed or fast.packets_retransmitted
                or fast.flits_corrupted)  # faults actually fired


class TestActivityInvariants:
    """A component outside the soa kernel's activity sets must be
    quiescent (the reverse - stale members inside a set - is allowed:
    removal is lazy); a quiescent controller is OFF."""

    def assert_inactive_is_quiescent(self, net):
        for node in range(net.mesh.num_nodes):
            if node not in net._active_routers:
                assert net._router_empty(node)
            if node not in net._active_nis:
                ni = net.nis[node]
                assert not ni.inject_queue and ni.latches_empty
            if node in net._pg_quiescent:
                assert net.controllers[node].state == PowerState.OFF
            assert (node in net._pg_active) != (node in net._pg_quiescent)

    @pytest.mark.parametrize("design", [Design.NORD, Design.CONV_PG])
    def test_mid_run(self, design):
        cfg = build_config(design, "smoke", seed=5)
        net = Network(cfg, backend="soa")
        gen = uniform_random(net.mesh, 0.1, seed=5)
        quiescent = 0
        for cycle in range(400):
            net._inject_arrivals(gen)
            net.step()
            quiescent = max(quiescent, len(net._pg_quiescent))
            if cycle % 23 == 0:
                self.assert_inactive_is_quiescent(net)
        self.assert_inactive_is_quiescent(net)
        assert quiescent > 0  # the quiescent path was exercised


class TestProfiling:
    def test_summary_after_profiled_run(self):
        activity.reset_profile()
        activity.enable_profiling()
        try:
            cfg = build_config(Design.NORD, "smoke")
            net = Network(cfg)
            gen = uniform_random(net.mesh, 0.05, seed=1)
            for _ in range(50):
                net._inject_arrivals(gen)
                net.step()
            prof = activity.global_profile()
            assert prof.cycles == 50
            text = prof.summary()
            assert "kernel profile over 50 cycles" in text
            for phase in activity.PHASES:
                assert phase in text
        finally:
            activity.enable_profiling(False)
            activity.reset_profile()

    def test_profiled_run_is_still_byte_identical(self):
        baseline = run_result(Design.NORD)
        activity.reset_profile()
        activity.enable_profiling()
        try:
            profiled = run_result(Design.NORD)
        finally:
            activity.enable_profiling(False)
            activity.reset_profile()
        assert profiled.to_dict() == baseline.to_dict()

    def test_dense_profile_is_fully_occupied(self):
        """One phase table serves both kernels: the reference visits
        every component, so occupancy reads 100% per phase."""
        activity.reset_profile()
        activity.enable_profiling()
        try:
            run_result(Design.NORD, backend="ref")
            prof = activity.global_profile()
            assert prof.cycles > 0
            assert prof.active == prof.capacity
        finally:
            activity.enable_profiling(False)
            activity.reset_profile()

    def test_summary_without_cycles(self):
        prof = activity.KernelProfile()
        assert "no simulated cycles" in prof.summary()
