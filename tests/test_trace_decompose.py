"""The latency decomposition sums *exactly* to measured latency.

The central contract of :mod:`repro.trace.decompose`: for every
delivered packet, ``queueing + pipeline + wakeup + bypass + link +
serialization`` equals the packet's end-to-end latency (what the stats
collector adds to ``total_latency``) - across designs, loads and seeds
(hypothesis), and on hand-built scenarios with known shapes.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import Design, small_config
from repro.noc.network import Network
from repro.trace import EventTrace, decompose_packet, decompose_trace, summarize
from repro.traffic.base import ScriptedTraffic
from repro.traffic.synthetic import tornado, uniform_random

COMPONENTS = ("queueing", "pipeline", "wakeup", "bypass", "link",
              "serialization")


def run_traced(design, rate, seed, *, measure=500, kind="uniform"):
    cfg = small_config(design, warmup=100, measure=measure)
    trace = EventTrace()
    net = Network(cfg, trace=trace)
    pkts = []
    orig = net.stats.on_packet_ejected
    net.stats.on_packet_ejected = lambda p: (pkts.append(p), orig(p))
    factory = uniform_random if kind == "uniform" else tornado
    result = net.run(factory(net.mesh, rate, seed=seed))
    return net, trace, pkts, result


class TestExactSumProperty:
    @given(design=st.sampled_from(Design.ALL),
           rate=st.sampled_from([0.03, 0.08, 0.15]),
           seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_components_sum_to_collector_latency(self, design, rate, seed):
        net, trace, pkts, _ = run_traced(design, rate, seed)
        assert pkts, "scenario delivered no packets"
        decomps = decompose_trace(trace)
        for p in pkts:
            d = decomps[p.pid]
            assert d.latency == p.latency
            assert d.total == p.latency, (design, d)
            for name in COMPONENTS:
                assert getattr(d, name) >= 0, (design, d)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_aggregate_matches_total_latency(self, seed):
        """Summing decomposed latencies over in-window packets
        reproduces the collector's ``total_latency`` exactly."""
        net, trace, pkts, result = run_traced(Design.NORD, 0.1, seed,
                                              kind="tornado")
        decomps = decompose_trace(trace)
        in_window = [p for p in pkts if net.stats.in_window(p.created_cycle)]
        assert len(in_window) == result.packets_measured
        assert sum(decomps[p.pid].total
                   for p in in_window) == result.total_latency


class TestKnownShapes:
    def run_single(self, design, dst=15, cycle=50):
        cfg = small_config(design)
        trace = EventTrace()
        net = Network(cfg, trace=trace)
        pkts = []
        orig = net.stats.on_packet_ejected
        net.stats.on_packet_ejected = lambda p: (pkts.append(p), orig(p))
        net.run(ScriptedTraffic([(cycle, 0, dst, 1)],
                                num_nodes=net.mesh.num_nodes),
                warmup=0, measure=400, drain=500)
        assert len(pkts) == 1
        return decompose_trace(trace)[pkts[0].pid], pkts[0]

    def test_no_pg_has_no_wakeup_or_bypass(self):
        d, pkt = self.run_single(Design.NO_PG)
        assert d.total == pkt.latency
        assert d.wakeup == 0
        assert d.bypass == 0
        assert d.serialization == 0  # single-flit: head == tail
        assert d.queueing > 0 and d.pipeline > 0 and d.link > 0

    def test_conv_pg_attributes_wakeup_stalls(self):
        d, pkt = self.run_single(Design.CONV_PG)
        assert d.total == pkt.latency
        assert d.wakeup == pkt.wakeup_stall_cycles > 0

    def test_nord_all_asleep_rides_the_bypass(self):
        d, pkt = self.run_single(Design.NORD, dst=4, cycle=100)
        assert d.total == pkt.latency
        assert pkt.bypass_hops > 0
        assert d.bypass > 0
        assert d.wakeup == 0

    def test_serialization_counts_body_flits(self):
        cfg = small_config(Design.NO_PG)
        trace = EventTrace()
        net = Network(cfg, trace=trace)
        pkts = []
        orig = net.stats.on_packet_ejected
        net.stats.on_packet_ejected = lambda p: (pkts.append(p), orig(p))
        net.run(ScriptedTraffic([(10, 0, 1, 5)],
                                num_nodes=net.mesh.num_nodes),
                warmup=0, measure=300, drain=400)
        d = decompose_trace(trace)[pkts[0].pid]
        assert d.length == 5
        assert d.serialization == 4  # one cycle per flit behind the head
        assert d.total == pkts[0].latency


class TestIncompleteTimelines:
    def test_undelivered_packet_decomposes_to_none(self):
        assert decompose_packet([]) is None

    def test_evicted_prefix_yields_none_not_garbage(self):
        """With a tiny ring buffer, early packets lose their NEW/INJ
        events and must be reported as undecomposable."""
        cfg = small_config(Design.NO_PG, warmup=100, measure=500)
        trace = EventTrace(limit=64)
        net = Network(cfg, trace=trace)
        net.run(uniform_random(net.mesh, 0.1, seed=4))
        assert trace.dropped > 0
        decomps = decompose_trace(trace)  # must not raise
        for d in decomps.values():
            assert d.total == d.latency

    def test_summarize_means(self):
        net, trace, pkts, _ = run_traced(Design.NO_PG, 0.05, 11)
        stats = summarize(decompose_trace(trace).values())
        assert set(stats) == set(COMPONENTS)
        assert stats["pipeline"] > 0
        assert summarize([]) == {name: 0.0 for name in COMPONENTS}
