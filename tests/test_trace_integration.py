"""Trace record/replay against the real simulator: identical inputs must
produce identical results across designs and runs."""

from repro.config import Design, small_config
from repro.noc.network import Network
from repro.traffic.base import ScriptedTraffic
from repro.traffic.synthetic import uniform_random


def summarize(res):
    return (res.packets_measured, res.total_latency, res.total_hops,
            res.flits_ejected, res.total_wakeups)


def recorded(gen, cfg):
    """The arrivals a run of ``cfg`` draws from ``gen``, as events."""
    return [(c, s, d, l)
            for c in range(cfg.warmup_cycles + cfg.measure_cycles)
            for s, d, l in gen.arrivals(c)]


class TestTraceWithNetwork:
    def test_replay_reproduces_run_exactly(self):
        cfg = small_config(Design.NORD, warmup=100, measure=800)
        net1 = Network(cfg)
        res1 = net1.run(uniform_random(net1.mesh, 0.1, seed=9))
        events = recorded(uniform_random(net1.mesh, 0.1, seed=9), cfg)

        net2 = Network(cfg)
        res2 = net2.run(ScriptedTraffic(events, 16))
        assert summarize(res1) == summarize(res2)

    def test_same_trace_across_designs_same_packets(self):
        """Replaying one trace through every design delivers the same
        packet population (latencies differ, delivery must not)."""
        cfg = small_config(Design.NO_PG, warmup=50, measure=500)
        base = Network(cfg)
        base_res = base.run(uniform_random(base.mesh, 0.08, seed=12))
        events = recorded(uniform_random(base.mesh, 0.08, seed=12), cfg)
        for design in (Design.CONV_PG, Design.CONV_PG_OPT, Design.NORD):
            net = Network(small_config(design, warmup=50, measure=500))
            res = net.run(ScriptedTraffic(events, 16))
            assert res.packets_measured == base_res.packets_measured, design
            assert net.outstanding_flits == 0, design
