"""Network integration: delivery, exact pipeline timing, flow control."""

import pytest

from repro.config import Design, small_config
from repro.noc.buffer import VCState
from repro.noc.network import Network
from repro.noc.topology import LOCAL, NUM_PORTS
from repro.traffic.base import NullTraffic, ScriptedTraffic


def run_scripted(design, events, cycles=400, backend=None, **cfg_kw):
    cfg = small_config(design, **cfg_kw)
    net = Network(cfg, backend=backend)
    traffic = ScriptedTraffic(events, num_nodes=net.mesh.num_nodes)
    pkts = []
    orig = net.stats.on_packet_ejected
    net.stats.on_packet_ejected = lambda p: (pkts.append(p), orig(p))
    net.run(traffic, warmup=0, measure=cycles, drain=500)
    return net, pkts


class TestExactTiming:
    """Head-flit hop: RC+VA+SA+ST+LT = 5 cycles; injection costs 2.

    Total single-flit latency = 2 + 5 * (hops + 1); each extra flit adds
    one cycle (wormhole pipelining).
    """

    @pytest.mark.parametrize("dst,hops", [(1, 1), (5, 2), (15, 6), (3, 3)])
    def test_single_flit_latency_formula(self, dst, hops):
        net, pkts = run_scripted(Design.NO_PG, [(5, 0, dst, 1)])
        assert len(pkts) == 1
        assert pkts[0].latency == 2 + 5 * (hops + 1)
        assert pkts[0].hops == hops

    @pytest.mark.parametrize("length", [1, 2, 5])
    def test_multi_flit_adds_one_cycle_per_flit(self, length):
        net, pkts = run_scripted(Design.NO_PG, [(5, 0, 1, length)])
        assert pkts[0].latency == 2 + 5 * 2 + (length - 1)

    def test_conv_pg_wakeups_add_latency(self):
        """Under Conv_PG the packet must wake every router on its path."""
        _, no_pg = run_scripted(Design.NO_PG, [(50, 0, 15, 1)])
        _, conv = run_scripted(Design.CONV_PG, [(50, 0, 15, 1)])
        assert conv[0].latency > no_pg[0].latency
        assert conv[0].wakeup_stall_cycles > 0

    def test_nord_single_packet_rides_bypass(self):
        """With all routers asleep, a NoRD packet still arrives, entirely
        over the Bypass Ring (3-cycle hops), without waking anything."""
        net, pkts = run_scripted(Design.NORD, [(100, 0, 4, 1)])
        pkt = pkts[0]
        assert pkt.bypass_hops > 0
        assert net.ring is not None


class TestDeliveryCorrectness:
    def test_every_packet_delivered_exactly_once(self):
        events = [(c, src, (src + 3) % 16, 1 + 4 * (c % 2))
                  for c in range(10, 110, 5) for src in range(16)]
        net, pkts = run_scripted(Design.NO_PG, events, cycles=300)
        assert len(pkts) == len(events)
        assert net.outstanding_flits == 0
        pids = [p.pid for p in pkts]
        assert len(set(pids)) == len(pids)

    def test_packets_to_self_are_not_generated_but_adjacent_work(self):
        net, pkts = run_scripted(Design.NO_PG, [(5, i, (i + 1) % 16, 2)
                                                for i in range(16)])
        assert len(pkts) == 16

    def test_network_fully_drains(self):
        events = [(c, c % 16, (c * 7 + 3) % 16, 5) for c in range(10, 60)]
        events = [(c, s, d, l) for c, s, d, l in events if s != d]
        net, pkts = run_scripted(Design.NO_PG, events, cycles=200)
        assert net.outstanding_flits == 0
        for node in range(16):
            assert not list(net.buffered_vcs(node))
        assert not (net._flit_box or net._flit_mid or net._flit_due)

    def test_vc_owners_released_after_drain(self):
        events = [(c, c % 16, (c + 5) % 16, 5) for c in range(10, 80)]
        net, _ = run_scripted(Design.NO_PG, events, cycles=300)
        assert all(owner is None for own in net._owner for owner in own)
        for ni in net.nis:
            assert all(owner is None for owner in ni.local_owner)

    def test_credits_restored_after_drain(self):
        events = [(c, c % 16, (c + 5) % 16, 5) for c in range(10, 80)]
        net, _ = run_scripted(Design.NO_PG, events, cycles=300)
        for c, credits in enumerate(net._credit):
            if (c // net._V) % NUM_PORTS != LOCAL:
                assert credits == net._maxc[c]

    def test_all_vcs_idle_after_drain(self):
        events = [(c, (c * 3) % 16, (c * 5 + 1) % 16, 3) for c in range(10, 90)]
        events = [(c, s, d, l) for c, s, d, l in events if s != d]
        # walks the reference router objects
        net, _ = run_scripted(Design.NO_PG, events, cycles=300,
                              backend="ref")
        for router in net.routers:
            for port in router.in_ports:
                for vc in port.vcs:
                    assert vc.state == VCState.IDLE
                    assert vc.empty


class TestDeterminism:
    def test_same_seed_same_result(self):
        from repro.traffic.synthetic import uniform_random
        results = []
        for _ in range(2):
            cfg = small_config(Design.NORD, warmup=100, measure=600)
            net = Network(cfg)
            res = net.run(uniform_random(net.mesh, 0.1, seed=7))
            results.append((res.packets_measured, res.total_latency,
                            res.total_hops, res.total_wakeups))
        assert results[0] == results[1]

    def test_different_seed_different_traffic(self):
        from repro.traffic.synthetic import uniform_random
        outcomes = set()
        for seed in (1, 2):
            cfg = small_config(Design.NO_PG, warmup=100, measure=600)
            net = Network(cfg)
            res = net.run(uniform_random(net.mesh, 0.1, seed=seed))
            outcomes.add((res.packets_measured, res.total_latency))
        assert len(outcomes) == 2


class TestIdleNetwork:
    def test_no_traffic_no_activity(self):
        cfg = small_config(Design.NO_PG, warmup=0, measure=100)
        net = Network(cfg)
        res = net.run(NullTraffic(), warmup=0, measure=100, drain=0)
        assert res.packets_measured == 0
        assert res.flits_ejected == 0
        assert res.avg_idle_fraction == pytest.approx(1.0)

    def test_gated_designs_sleep_whole_idle_network(self):
        for design in (Design.CONV_PG, Design.NORD):
            cfg = small_config(design, warmup=0, measure=200)
            net = Network(cfg)
            res = net.run(NullTraffic(), warmup=0, measure=200, drain=0)
            assert res.avg_off_fraction > 0.85, design
            assert res.total_wakeups == 0
