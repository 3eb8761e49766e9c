"""The quiescence-aware cycle kernel: skip layer == full kernel, exactly.

``Network.step()`` iterates per-phase activity sets by default; these
tests pin the contract that doing so is *byte-identical* to the dense
scans (``skip_inactive=False`` / ``REPRO_NO_SKIP=1``), that the skip
layer's invariants hold mid-run, and that the ``--profile``
instrumentation works.
"""

import pytest

from repro.config import Design
from repro.errors import SimulationHang
from repro.experiments.common import build_config
from repro.noc import activity
from repro.noc.network import Network
from repro.traffic.parsec import make_traffic
from repro.traffic.synthetic import uniform_random


def run_result(design, *, skip, scale="smoke", rate=0.08, seed=3,
               traffic="uniform"):
    cfg = build_config(design, scale, seed=seed)
    # The skip layer under test is the reference kernel's.
    net = Network(cfg, skip_inactive=skip, backend="ref")
    if traffic == "uniform":
        gen = uniform_random(net.mesh, rate, seed=seed)
    else:
        gen = make_traffic(net.mesh, traffic, seed=seed)
    return net.run(gen)


class TestByteIdentity:
    @pytest.mark.parametrize("design", Design.ALL)
    def test_uniform_traffic_all_designs(self, design):
        fast = run_result(design, skip=True)
        full = run_result(design, skip=False)
        assert fast.to_dict() == full.to_dict()

    def test_blackscholes_nord(self):
        # The low-load PARSEC model (~71% idle) is where the skip layer
        # skips the most - and therefore where divergence would hide.
        fast = run_result(Design.NORD, skip=True, traffic="blackscholes")
        full = run_result(Design.NORD, skip=False, traffic="blackscholes")
        assert fast.to_dict() == full.to_dict()

    def test_blackscholes_conv_pg(self):
        fast = run_result(Design.CONV_PG, skip=True,
                          traffic="blackscholes")
        full = run_result(Design.CONV_PG, skip=False,
                          traffic="blackscholes")
        assert fast.to_dict() == full.to_dict()

    @pytest.mark.parametrize("design", [Design.NORD, Design.CONV_PG])
    def test_faulted_run_env_escape_hatch(self, design, monkeypatch):
        """REPRO_NO_SKIP=1 (the dense reference) vs the default kernel
        (soa), with live faults: the fault RNG draws in the reference's
        order, so both kernels must consume it identically."""
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
            net = Network(cfg, fault_plan=plan)
            assert net.backend == backend
            return net.run(uniform_random(net.mesh, 0.08, seed=3))
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        fast = faulted(design, "soa")
        monkeypatch.setenv("REPRO_NO_SKIP", "1")
        full = faulted(design, "ref")
        assert fast.to_dict() == full.to_dict()
        assert (fast.packets_failed or fast.packets_retransmitted
                or fast.flits_corrupted)  # faults actually fired


class TestDenseOracleIndependence:
    """Dense mode shares the scan bodies with the skip layer, so it must
    not share the skip layer's bookkeeping: with an event hook that
    maintains an activity set disabled, ``skip_inactive=False`` still
    produces the reference result (it re-arms every set each cycle),
    while the skipping run - which lives off that hook - does not."""

    @pytest.mark.parametrize("hook", ["note_ni_latched",
                                      "note_router_filled"])
    def test_dense_mode_ignores_a_dead_hook(self, hook, monkeypatch):
        want = run_result(Design.NORD, skip=True).to_dict()
        monkeypatch.setattr(Network, hook, lambda self, node: None)
        assert run_result(Design.NORD, skip=False).to_dict() == want
        try:
            broken = run_result(Design.NORD, skip=True).to_dict()
        except SimulationHang:  # flits the kernel lost track of wedge it
            return
        assert broken != want


class TestSkipSwitch:
    def test_enabled_by_default(self):
        net = Network(build_config(Design.NORD, "smoke"))
        assert net.skip_inactive

    @pytest.mark.parametrize("value,expect", [
        ("1", False), ("true", False), ("YES", False), ("on", False),
        ("0", True), ("", True), ("off", True),
    ])
    def test_env_escape_hatch(self, monkeypatch, value, expect):
        monkeypatch.setenv("REPRO_NO_SKIP", value)
        net = Network(build_config(Design.NO_PG, "smoke"))
        assert net.skip_inactive is expect

    def test_kwarg_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_SKIP", "1")
        net = Network(build_config(Design.NO_PG, "smoke"),
                      skip_inactive=True)
        assert net.skip_inactive


class TestActivityInvariants:
    """A component outside its active set must be quiescent (the reverse
    - stale members inside a set - is allowed: removal is lazy)."""

    def assert_inactive_is_quiescent(self, net):
        for node in range(net.mesh.num_nodes):
            if node not in net._active_routers:
                assert net.routers[node].empty
            if node not in net._active_nis:
                ni = net.nis[node]
                assert not ni.inject_queue and ni.latches_empty
            if node not in net._active_inject:
                assert net.inject_lines[node].empty
            if node not in net._active_eject:
                assert net.eject_lines[node].empty
            if node in net._pg_quiescent:
                from repro.powergate.controller import PowerState
                assert net.controllers[node].state == PowerState.OFF
            assert (node in net._pg_active) != (node in net._pg_quiescent)
        for node, row in enumerate(net.links_out):
            for port, link in enumerate(row):
                if link is None:
                    continue
                if (node, port) not in net._active_flit_links:
                    assert link.flits.empty
                if (node, port) not in net._active_credit_links:
                    assert link.credits.empty

    @pytest.mark.parametrize("design", [Design.NORD, Design.CONV_PG])
    def test_mid_run(self, design):
        cfg = build_config(design, "smoke", seed=5)
        # the reference's activity sets (the soa kernel's mailboxes
        # bypass the link/line sets, which would make this vacuous)
        net = Network(cfg, backend="ref")
        gen = uniform_random(net.mesh, 0.1, seed=5)
        for cycle in range(400):
            net._inject_arrivals(gen)
            net.step()
            if cycle % 23 == 0:
                self.assert_inactive_is_quiescent(net)
        self.assert_inactive_is_quiescent(net)


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
        baseline = run_result(Design.NORD, skip=True)
        activity.reset_profile()
        activity.enable_profiling()
        try:
            profiled = run_result(Design.NORD, skip=True)
        finally:
            activity.enable_profiling(False)
            activity.reset_profile()
        assert profiled.to_dict() == baseline.to_dict()

    def test_dense_profile_is_fully_occupied(self):
        """One phase table serves both modes: in dense mode every set
        is full at cycle start, so occupancy reads 100% per phase."""
        activity.reset_profile()
        activity.enable_profiling()
        try:
            profiled = run_result(Design.NORD, skip=False)
            prof = activity.global_profile()
            assert prof.cycles > 0
            assert prof.active == prof.capacity
        finally:
            activity.enable_profiling(False)
            activity.reset_profile()
        assert profiled.to_dict() == run_result(Design.NORD,
                                                skip=True).to_dict()

    def test_summary_without_cycles(self):
        prof = activity.KernelProfile()
        assert "no simulated cycles" in prof.summary()
