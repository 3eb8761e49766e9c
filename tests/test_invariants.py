"""Property-based conservation invariants at smoke scale.

Randomized ``SimConfig``s (design, mesh shape, VC count, buffer depth,
injection rate, seed) driven through a full warmup-free run must
preserve, for every one of the four designs:

* packet conservation - every injected packet is ejected exactly once;
* flit conservation - no flit is lost or duplicated anywhere in the
  fabric (zero outstanding after drain, all buffers/latches empty);
* power-state accounting - each router's on/off/waking cycle counters
  partition the measurement window exactly.
"""

import dataclasses
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import Design, NoCConfig, SimConfig
from repro.experiments.common import build_config, get_scale
from repro.experiments.parallel import parsec_spec
from repro.noc.network import Network, RunProgress
from repro.powergate.controller import PowerState
from repro.traffic.parsec import make_traffic
from repro.traffic.synthetic import uniform_random

designs = st.sampled_from(Design.ALL)
rates = st.sampled_from([0.02, 0.05, 0.12])
sizes = st.sampled_from([(3, 4), (4, 4), (4, 2)])
vcs = st.sampled_from([3, 4])
depths = st.sampled_from([3, 5])
seeds = st.integers(0, 10_000)

SIM_SETTINGS = settings(
    max_examples=10, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Measured cycles per example; smoke-scale drain bounds the tail.
MEASURE = 400
DRAIN = get_scale("smoke").drain


def run_random_config(design, rate, wh, n_vcs, depth, seed, backend=None):
    """One warmup-free run of a randomized configuration.

    No warmup means the measurement window sees every created packet,
    so the conservation invariants are exact equalities.
    """
    cfg = SimConfig(
        design=design,
        noc=NoCConfig(width=wh[0], height=wh[1], vcs_per_port=n_vcs,
                      buffer_depth=depth),
        warmup_cycles=0,
        measure_cycles=MEASURE,
        drain_cycles=DRAIN,
        seed=seed,
    )
    net = Network(cfg, backend=backend)
    result = net.run(uniform_random(net.mesh, rate, seed=seed))
    return net, result


class TestPacketConservation:
    @given(designs, rates, sizes, vcs, depths, seeds)
    @SIM_SETTINGS
    def test_every_packet_ejected_exactly_once(self, design, rate, wh,
                                               n_vcs, depth, seed):
        net, result = run_random_config(design, rate, wh, n_vcs, depth, seed)
        assert result.packets_created == result.packets_ejected
        assert result.packets_measured <= result.packets_created

    @given(designs, rates, sizes, vcs, depths, seeds)
    @SIM_SETTINGS
    def test_no_flit_lost_or_duplicated(self, design, rate, wh, n_vcs,
                                        depth, seed):
        """A lost flit leaves ``outstanding`` positive; a duplicated one
        drives it negative or leaves residue in a buffer or latch."""
        # walks the reference router objects
        net, _ = run_random_config(design, rate, wh, n_vcs, depth, seed,
                                   backend="ref")
        assert net.outstanding_flits == 0
        for router in net.routers:
            for port in router.in_ports:
                assert all(vc.empty for vc in port.vcs)
        for ni in net.nis:
            assert ni.latches_empty
            assert not ni.inject_queue


class TestPowerStateAccounting:
    @given(designs, rates, sizes, vcs, depths, seeds)
    @SIM_SETTINGS
    def test_state_cycles_partition_window(self, design, rate, wh, n_vcs,
                                           depth, seed):
        """cycles_on + cycles_off + cycles_waking == measured cycles, per
        router - a router is in exactly one power state each cycle."""
        _, result = run_random_config(design, rate, wh, n_vcs, depth, seed)
        for node, activity in enumerate(result.routers):
            assert activity.total_cycles == result.cycles, (
                f"router {node}: on={activity.cycles_on} "
                f"off={activity.cycles_off} "
                f"waking={activity.cycles_waking} != {result.cycles}")

    @given(designs, rates, sizes, vcs, depths, seeds)
    @SIM_SETTINGS
    def test_ungated_designs_never_sleep(self, design, rate, wh, n_vcs,
                                         depth, seed):
        _, result = run_random_config(design, rate, wh, n_vcs, depth, seed)
        if design not in Design.GATED:
            for activity in result.routers:
                assert activity.cycles_off == 0
                assert activity.wakeups == 0


def gated_off(net) -> int:
    """Controllers whose duty accrues without a step: the soa kernel's
    quiescent ones; the reference steps every controller, and counts
    its OFF ones here."""
    if net.backend == "soa":
        return len(net._pg_quiescent)
    return sum(c.state == PowerState.OFF for c in net.controllers)


class TestSettledDutyCounters:
    """Duty that accrues without a step - a quiescent controller's
    ``cycles_off``, the No_PG blanket's ``cycles_on`` - is settled on
    read, so a read through ``settle_duty_counters`` is exact at every
    cycle: on the soa kernel, and on the reference, which steps every
    controller every cycle and has nothing to settle."""

    @pytest.mark.parametrize("design", Design.ALL)
    @pytest.mark.parametrize("mode", ["soa", "ref"])
    def test_partition_holds_every_cycle(self, design, mode):
        cfg = build_config(design, "smoke", seed=2)
        net = Network(cfg, backend=mode)
        traffic = make_traffic(net.mesh, "blackscholes", seed=2)
        most_gated = 0
        for _ in range(600):
            net._inject_arrivals(traffic)
            net.step()
            most_gated = max(most_gated, gated_off(net))
            net.settle_duty_counters()
            for node, c in enumerate(net.controllers):
                assert (c.cycles_on + c.cycles_off + c.cycles_waking
                        == net.now), f"controller {node} at {net.now}"
        if design in Design.GATED:
            assert most_gated > 0  # the lazy path was exercised

    @pytest.mark.parametrize("design", Design.GATED)
    @pytest.mark.parametrize("backend", ["ref", "soa"])
    def test_split_with_most_controllers_quiescent(self, design, backend):
        """A snapshot taken while at least half the controllers are
        quiescent (OFF, on the reference) - before the warmup boundary
        reads their counters - restores to the straight run's result."""
        cfg = dataclasses.replace(build_config(design, "smoke", seed=2),
                                  warmup_cycles=150, measure_cycles=300,
                                  drain_cycles=500)
        spec = parsec_spec("blackscholes", seed=2)
        net = Network(cfg, backend=backend)
        want = net.run(spec.build(net.mesh))
        net = Network(cfg, backend=backend)
        traffic = spec.build(net.mesh)
        progress = RunProgress(150, 300, 500)
        while 2 * gated_off(net) < net.mesh.num_nodes:
            assert net.run_segment(traffic, progress, max_cycles=1) is None
        assert progress.phase == "warmup"
        snap, traffic, progress = pickle.loads(
            pickle.dumps((net.snapshot(), traffic, progress)))
        got = Network.restore(snap).run_segment(traffic, progress)
        assert got.to_dict() == want.to_dict()


class TestBackendInvariants:
    """Randomized-config differential: VC count and buffer depth vary
    too, so the SoA kernel's flat credit/buffer layout is exercised at
    shapes the fixed-config tests never reach."""

    @given(designs, rates, sizes, vcs, depths, seeds)
    @SIM_SETTINGS
    def test_backends_agree_on_random_configs(self, design, rate, wh,
                                              n_vcs, depth, seed):

        net_ref, res_ref = run_random_config(design, rate, wh, n_vcs,
                                             depth, seed)
        cfg = net_ref.cfg
        net_soa = Network(cfg, backend="soa")
        res_soa = net_soa.run(uniform_random(net_soa.mesh, rate,
                                             seed=seed))
        assert res_ref == res_soa
        assert net_soa.outstanding_flits == 0
        for _ in range(30):  # allow pending credits to land
            net_soa.step()
        from repro.noc.topology import LOCAL, NUM_PORTS
        for o in range(net_soa.mesh.num_nodes * NUM_PORTS):
            if o % NUM_PORTS == LOCAL:
                continue
            base = o * cfg.noc.vcs_per_port
            for v in range(cfg.noc.vcs_per_port):
                assert net_soa._credit[base + v] == net_soa._maxc[base + v]
