"""Statistics: collector windows, idle periods, report formatting."""

import pytest

from repro.noc.flit import Packet
from repro.stats.collector import RouterActivity, RunResult, StatsCollector
from repro.stats.idle import IdlePeriodStats, histogram_buckets
from repro.stats.report import format_series, format_table, normalized, percent


class TestStatsCollector:
    def test_only_measured_window_counts(self):
        col = StatsCollector("No_PG", 4)
        early = Packet(0, 1, 1, created_cycle=5)
        early.ejected_cycle = 20
        col.on_packet_ejected(early)  # before measurement: drained only
        assert col.packets_measured == 0
        col.start_measurement(10)
        pkt = Packet(0, 1, 1, created_cycle=15)
        col.on_packet_created(pkt)
        pkt.ejected_cycle = 40
        col.on_packet_ejected(pkt)
        assert col.packets_measured == 1
        assert col.total_latency == 25

    def test_packets_created_before_window_excluded(self):
        col = StatsCollector("No_PG", 4)
        col.start_measurement(100)
        pkt = Packet(0, 1, 1, created_cycle=50)
        pkt.ejected_cycle = 120
        col.on_packet_ejected(pkt)
        assert col.packets_measured == 0
        assert col.packets_ejected == 1

    def test_packets_created_after_stop_excluded(self):
        col = StatsCollector("No_PG", 4)
        col.start_measurement(0)
        col.stop_measurement(100)
        pkt = Packet(0, 1, 1, created_cycle=150)
        pkt.ejected_cycle = 170
        col.on_packet_ejected(pkt)
        assert col.packets_measured == 0

    def test_in_window_edge_semantics(self):
        col = StatsCollector("No_PG", 4)
        col.start_measurement(100)
        col.stop_measurement(200)
        assert col.in_window(100)       # created at measure_start counts
        assert col.in_window(199)
        assert not col.in_window(200)   # created at measure_end does not
        assert not col.in_window(99)
        assert not col.in_window(None)

    def test_in_window_open_ended_until_stop(self):
        col = StatsCollector("No_PG", 4)
        col.start_measurement(100)
        assert col.in_window(10 ** 9)   # no end yet: everything after start
        col.stop_measurement(200)
        assert not col.in_window(10 ** 9)

    def test_ejection_after_stop_attributes_in_window_packets(self):
        # Drain correctness: a packet created in-window but ejected after
        # stop_measurement still contributes its latency.
        col = StatsCollector("No_PG", 4)
        col.start_measurement(100)
        pkt = Packet(0, 1, 1, created_cycle=150)
        col.on_packet_created(pkt)
        col.stop_measurement(200)
        pkt.ejected_cycle = 250
        col.on_packet_ejected(pkt)
        assert col.packets_measured == 1
        assert col.total_latency == 100

    @staticmethod
    def feed(col, node, pattern):
        # Drive the edge API the way a datapath does: the router starts
        # empty at cycle 0, and pattern[i] is its idleness after cycle
        # i + 1; only changes are reported.
        col.note_idle(node, 0)
        state = True
        for cycle, idle in enumerate(pattern, 1):
            if idle != state:
                state = idle
                (col.note_idle if idle else col.note_busy)(node, cycle)

    def test_idle_period_tracking(self):
        col = StatsCollector("No_PG", 1)
        col.start_measurement(0)
        pattern = [True] * 3 + [False] + [True] * 7 + [False, False]
        self.feed(col, 0, pattern)
        col.stop_measurement(len(pattern))
        assert col.idle_periods == {3: 1, 7: 1}
        assert col.idle_cycles[0] == 10

    def test_open_idle_run_censored_at_stop(self):
        # The trailing run is still open when the window closes: its true
        # length is unknown, so it must not be recorded as completed.
        col = StatsCollector("No_PG", 1)
        col.start_measurement(0)
        self.feed(col, 0, [True] * 5)
        col.stop_measurement(5)
        assert col.idle_periods == {}
        assert col.censored_idle_periods == {5: 1}
        assert col.idle_cycles[0] == 5

    def test_edge_api_matches_per_cycle_api(self):
        # The edges of test_idle_period_tracking's pattern, written out:
        # idle at cycles 1-3, busy at 4, idle 5-11, busy 12-13.
        col = StatsCollector("No_PG", 1)
        col.note_idle(0, 0)
        col.start_measurement(0)
        col.note_busy(0, 4)
        col.note_idle(0, 5)
        col.note_busy(0, 12)
        col.stop_measurement(13)
        assert col.idle_periods == {3: 1, 7: 1}
        assert col.censored_idle_periods == {}
        assert col.idle_cycles[0] == 10

    def test_edge_api_full_window_idle_censored(self):
        # A router idle across the entire window is one censored period
        # of window length - never a completed one (the Fig. 3 bias bug).
        col = StatsCollector("No_PG", 2)
        col.note_idle(0, 0)
        col.note_idle(1, 0)
        col.start_measurement(10)
        col.note_busy(1, 25)  # node 1 wakes mid-window; node 0 never does
        col.stop_measurement(30)
        assert col.idle_periods == {14: 1}       # node 1: cycles 11-24
        assert col.censored_idle_periods == {20: 1}  # node 0: cycles 11-30
        assert col.idle_cycles[0] == 20
        assert col.idle_cycles[1] == 14

    def test_edge_api_prewindow_history_clipped(self):
        # Idle since cycle 3, window starts at 100: only in-window idle
        # cycles (101 onward) may count.
        col = StatsCollector("No_PG", 1)
        col.note_idle(0, 3)
        col.start_measurement(100)
        col.note_busy(0, 105)
        col.stop_measurement(200)
        assert col.idle_periods == {4: 1}  # cycles 101-104
        assert col.idle_cycles[0] == 4


class TestRunResult:
    def test_aggregates(self):
        res = RunResult("No_PG", cycles=100, num_nodes=4,
                        packets_measured=10, total_latency=250,
                        total_hops=30, flits_ejected=40)
        assert res.avg_packet_latency == 25.0
        assert res.avg_hops == 3.0
        assert res.throughput_flits_per_node_cycle == pytest.approx(0.1)

    def test_empty_result_nan_latency(self):
        import math
        res = RunResult("No_PG", cycles=100, num_nodes=4)
        assert math.isnan(res.avg_packet_latency)

    def test_router_aggregation(self):
        res = RunResult("Conv_PG", cycles=100, num_nodes=2)
        res.routers = [RouterActivity(cycles_on=60, cycles_off=40, wakeups=3),
                       RouterActivity(cycles_on=100, wakeups=1)]
        assert res.total_wakeups == 4
        assert res.avg_off_fraction == pytest.approx((0.4 + 0.0) / 2)

    def test_idle_period_stats_glue(self):
        res = RunResult("No_PG", cycles=100, num_nodes=1,
                        idle_periods={5: 3, 20: 1})
        stats = res.idle_period_stats(bet=10)
        assert stats.short_fraction == pytest.approx(0.75)


class TestIdlePeriodStats:
    def test_from_histogram(self):
        stats = IdlePeriodStats.from_histogram({2: 5, 10: 2, 50: 1}, bet=10)
        assert stats.num_periods == 8
        assert stats.total_idle_cycles == 2 * 5 + 10 * 2 + 50
        assert stats.short_periods == 7
        assert stats.short_fraction == pytest.approx(7 / 8)

    def test_gateable_fraction(self):
        stats = IdlePeriodStats.from_histogram({5: 2, 100: 1}, bet=10)
        assert stats.gateable_fraction == pytest.approx(100 / 110)

    def test_empty_histogram(self):
        stats = IdlePeriodStats.from_histogram({}, bet=10)
        assert stats.short_fraction == 0.0
        assert stats.gateable_fraction == 0.0
        assert stats.mean_length == 0.0

    def test_buckets(self):
        buckets = histogram_buckets({3: 2, 7: 1, 15: 1, 200: 1},
                                    edges=(5, 10, 100))
        assert buckets == [("1-5", 2), ("6-10", 1), ("11-100", 1),
                           (">100", 1)]


class TestReport:
    def test_format_table_aligns(self):
        text = format_table(("a", "bbb"), [(1, 2.5), ("x", None)],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bbb" in lines[2]
        assert set(lines[3].replace(" ", "")) == {"-"}
        assert "2.500" in lines[4]

    def test_format_series(self):
        text = format_series("s", [1, 2], [3.0, 4.0], "x", "y")
        assert "x" in text and "y" in text

    def test_percent(self):
        assert percent(0.123) == "12.3%"

    def test_normalized_guards_zero(self):
        import math
        assert normalized(5, 2) == 2.5
        assert math.isnan(normalized(5, 0))
