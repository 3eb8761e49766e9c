"""Property-based integration tests: network invariants under random
traffic, designs and mesh sizes (hypothesis)."""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import Design, NoCConfig, SimConfig
from repro.noc.buffer import VCState
from repro.noc.network import Network
from repro.noc.topology import LOCAL, NUM_PORTS
from repro.traffic.synthetic import uniform_random

designs = st.sampled_from(Design.ALL)
rates = st.sampled_from([0.02, 0.08, 0.2])
sizes = st.sampled_from([(3, 4), (4, 4), (4, 2)])
seeds = st.integers(0, 10_000)

SIM_SETTINGS = settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def run_random(design, rate, wh, seed, cycles=400, *, speculative=False,
               aggressive=False, backend=None):
    cfg = SimConfig(
        design=design,
        noc=NoCConfig(width=wh[0], height=wh[1], speculative=speculative),
        warmup_cycles=0,
        measure_cycles=cycles,
        drain_cycles=4000,
        seed=seed,
    )
    if aggressive:
        cfg = cfg.replace(pg=dataclasses.replace(cfg.pg,
                                                 aggressive_bypass=True))
    net = Network(cfg, backend=backend)
    traffic = uniform_random(net.mesh, rate, seed=seed)
    result = net.run(traffic, warmup=0, measure=cycles, drain=4000)
    return net, result


def assert_final_state_clean(net):
    """Every input VC idle and empty (per kernel), and on the shared
    port boundary every VC owner released."""
    if net.backend == "soa":
        assert all(state == VCState.IDLE for state in net._st)
        assert not any(net._fifo)
    else:
        for router in net.routers:
            for port in router.in_ports:
                for vc in port.vcs:
                    assert vc.state == VCState.IDLE and vc.empty
    assert all(o is None for own in net._owner for o in own)
    for ni in net.nis:
        assert ni.latches_empty
        assert not ni.inject_queue
        assert not ni.bypass_alloc
        assert all(o is None for o in ni.local_owner)


def assert_credits_conserved(net):
    """After the last credits land, every mesh-port counter is back at
    its limit and every NI holds all its LOCAL credits."""
    for _ in range(30):  # allow pending credits to land
        net.step()
    for c, credits in enumerate(net._credit):
        o, vc = divmod(c, net._V)
        if o % NUM_PORTS != LOCAL:
            assert credits == net._maxc[c], (
                f"router {o // NUM_PORTS} port {o % NUM_PORTS} vc {vc}")
    depth = net.cfg.noc.buffer_depth
    for ni in net.nis:
        assert ni.local_credit == [depth] * net._V


class TestConservationInvariants:
    @given(designs, rates, sizes, seeds)
    @SIM_SETTINGS
    def test_no_flit_is_lost_or_duplicated(self, design, rate, wh, seed):
        """Every injected flit is eventually sunk exactly once."""
        net, result = run_random(design, rate, wh, seed)
        assert net.outstanding_flits == 0
        assert result.packets_ejected == net.stats.packets_ejected

    @given(designs, rates, sizes, seeds)
    @SIM_SETTINGS
    def test_final_state_is_clean(self, design, rate, wh, seed):
        """After draining, no buffers, latches, owners or debts remain."""
        net, _ = run_random(design, rate, wh, seed, backend="ref")
        assert_final_state_clean(net)

    @given(designs, rates, sizes, seeds)
    @SIM_SETTINGS
    def test_final_state_is_clean_on_soa(self, design, rate, wh, seed):
        net, _ = run_random(design, rate, wh, seed, backend="soa")
        assert_final_state_clean(net)

    @given(designs, rates, sizes, seeds)
    @SIM_SETTINGS
    def test_credits_conserved(self, design, rate, wh, seed):
        """All credit counters return to their limits after draining
        (lingering NoRD clamps restore once packets finish)."""
        net, _ = run_random(design, rate, wh, seed)
        assert_credits_conserved(net)

    @given(designs, rates, sizes, seeds)
    @SIM_SETTINGS
    def test_credits_conserved_on_ref(self, design, rate, wh, seed):
        net, _ = run_random(design, rate, wh, seed, backend="ref")
        assert_credits_conserved(net)

    @given(designs, rates, seeds)
    @SIM_SETTINGS
    def test_latency_at_least_physical_minimum(self, design, rate, seed):
        """No packet can be faster than injection + per-hop pipeline."""
        net, result = run_random(design, rate, (4, 4), seed)
        if result.packets_measured:
            # cheapest possible: all-bypass hops at 3 cycles
            assert result.avg_packet_latency >= 3.0

    @given(rates, seeds)
    @SIM_SETTINGS
    def test_hop_counts_at_least_manhattan(self, rate, seed):
        cfg = SimConfig(design=Design.NORD, warmup_cycles=0,
                        measure_cycles=300, drain_cycles=3000, seed=seed)
        net = Network(cfg)
        pkts = []
        orig = net.stats.on_packet_ejected
        net.stats.on_packet_ejected = lambda p: (pkts.append(p), orig(p))
        traffic = uniform_random(net.mesh, rate, seed=seed)
        net.run(traffic, warmup=0, measure=300, drain=3000)
        for p in pkts:
            assert p.hops >= net.mesh.hop_distance(p.src, p.dst)


class TestPowerStateInvariants:
    @given(st.sampled_from(Design.GATED), rates, seeds)
    @SIM_SETTINGS
    def test_state_cycle_accounting_is_complete(self, design, rate, seed):
        net, result = run_random(design, rate, (4, 4), seed, cycles=300)
        for activity in result.routers:
            assert activity.total_cycles == 300

    @given(rates, seeds)
    @SIM_SETTINGS
    def test_no_pg_never_gates(self, rate, seed):
        _, result = run_random(Design.NO_PG, rate, (4, 4), seed, cycles=200)
        assert result.total_wakeups == 0
        assert result.avg_off_fraction == 0.0


class TestOptimizedVariants:
    """The Section 6.8 options must preserve every conservation invariant."""

    @given(designs, rates, seeds)
    @SIM_SETTINGS
    def test_speculative_pipeline_conserves_flits(self, design, rate, seed):
        net, _ = run_random(design, rate, (4, 4), seed, speculative=True)
        assert net.outstanding_flits == 0

    @given(rates, seeds)
    @SIM_SETTINGS
    def test_aggressive_bypass_conserves_flits(self, rate, seed):
        net, _ = run_random(Design.NORD, rate, (4, 4), seed,
                            aggressive=True)
        assert net.outstanding_flits == 0
        for ni in net.nis:
            assert ni.latches_empty

    @given(rates, seeds)
    @SIM_SETTINGS
    def test_both_optimizations_together(self, rate, seed):
        net, result = run_random(Design.NORD, rate, (4, 4), seed,
                                 speculative=True, aggressive=True)
        assert net.outstanding_flits == 0
        if result.packets_measured:
            assert result.avg_packet_latency >= 2.0


class TestBackendDifferential:
    """Differential property: the SoA kernel must be field-identical to
    the reference on random (design, traffic kind, rate, mesh, seed)
    draws — the hypothesis arm of tests/test_backend_identity.py."""

    kinds = st.sampled_from(["uniform", "tornado", "transpose", "hotspot"])

    @staticmethod
    def _run_backend(backend, design, kind, rate, wh, seed, *,
                     speculative=False):
        from repro.traffic import synthetic

        cfg = SimConfig(
            design=design,
            noc=NoCConfig(width=wh[0], height=wh[1],
                          speculative=speculative),
            warmup_cycles=0,
            measure_cycles=400,
            drain_cycles=4000,
            seed=seed,
        )
        net = Network(cfg, backend=backend)
        maker = getattr(synthetic, kind if kind != "uniform"
                        else "uniform_random")
        traffic = maker(net.mesh, rate, seed=seed)
        result = net.run(traffic, warmup=0, measure=400, drain=4000)
        return net, result

    @given(designs, kinds, rates, sizes, seeds)
    @SIM_SETTINGS
    def test_backends_field_identical(self, design, kind, rate, wh, seed):
        if kind == "transpose":
            wh = (4, 4)  # transpose is defined on square meshes only
        _, res_ref = self._run_backend("ref", design, kind, rate, wh, seed)
        net, res_soa = self._run_backend("soa", design, kind, rate, wh,
                                         seed)
        from repro.noc.soa import SoANetwork
        assert isinstance(net, SoANetwork)
        assert res_ref == res_soa

    @given(designs, rates, seeds)
    @SIM_SETTINGS
    def test_backends_identical_speculative(self, design, rate, seed):
        _, res_ref = self._run_backend("ref", design, "uniform", rate,
                                       (4, 4), seed, speculative=True)
        _, res_soa = self._run_backend("soa", design, "uniform", rate,
                                       (4, 4), seed, speculative=True)
        assert res_ref == res_soa

    @given(designs, rates, sizes, seeds)
    @SIM_SETTINGS
    def test_soa_conserves_flits(self, design, rate, wh, seed):
        """The conservation invariants hold under the SoA kernel too."""
        net, result = self._run_backend("soa", design, "uniform", rate,
                                        wh, seed)
        assert net.outstanding_flits == 0
        assert result.packets_ejected == net.stats.packets_ejected
        for node in range(net.mesh.num_nodes):
            base = node * net._fpn
            for off in range(net._fpn):
                assert net._st[base + off] == 0
                assert not net._fifo[base + off]
        for o in range(net.mesh.num_nodes * 5):
            assert all(owner is None for owner in net._owner[o])
