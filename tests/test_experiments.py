"""Experiment harness integration tests (smoke scale).

These exercise each paper-figure experiment end to end and assert the
qualitative properties the figures demonstrate, at a scale small enough
for CI.  The PARSEC sweep is shared through the experiments' cache, so the
whole module costs one sweep.
"""

import json
import math

import pytest

from repro.config import Design
from repro.core.placement import PlacementAnalysis
from repro.experiments import (area_overhead, fig1_static_power,
                               fig3_idle_periods, fig6_placement,
                               fig7_threshold, fig8_static_energy,
                               fig9_overhead, fig10_energy_breakdown,
                               fig11_latency, fig12_execution_time,
                               fig13_wakeup_latency, fig14_load_sweep,
                               parallel, table1_config)
from repro.experiments import runner as runner_module
from repro.experiments.common import (SCALES, build_config, get_scale,
                                      geomean, mean, parsec_sweep)
from repro.experiments.parallel import ResultCache, SweepRunner
from repro.experiments.runner import EXPERIMENTS, run_experiment

SCALE = "smoke"
SEED = 1


class TestCommon:
    def test_scales_defined(self):
        assert set(SCALES) == {"smoke", "bench", "full"}
        with pytest.raises(ValueError):
            get_scale("huge")

    def test_build_config(self):
        cfg = build_config(Design.NORD, "smoke", width=4, height=4, seed=3)
        assert cfg.design == Design.NORD
        assert cfg.measure_cycles == SCALES["smoke"].measure
        assert cfg.seed == 3

    def test_parsec_sweep_caches(self):
        s1 = parsec_sweep(SCALE, SEED, designs=(Design.NO_PG,),
                          benchmarks=("blackscholes",))
        s2 = parsec_sweep(SCALE, SEED, designs=(Design.NO_PG,),
                          benchmarks=("blackscholes",))
        assert s1["blackscholes"][Design.NO_PG] is \
            s2["blackscholes"][Design.NO_PG]

    def test_helpers(self):
        assert mean([1, 2, 3]) == 2
        assert geomean([1, 4]) == pytest.approx(2.0)
        assert math.isnan(mean([]))


class TestFig1:
    def test_anchor_rows_present(self):
        res = fig1_static_power.run()
        shares = {(nm, v): s for nm, v, s in res.shares}
        assert shares[(45, 1.1)] == pytest.approx(0.354, abs=0.002)
        assert "Figure 1(a)" in fig1_static_power.report(res)


class TestFig3:
    def test_idleness_range_and_fragmentation(self):
        res = fig3_idle_periods.run(SCALE, SEED)
        assert len(res.rows) == 10
        by_name = {r.benchmark: r for r in res.rows}
        # paper Section 3.1: blackscholes lightest, x264 busiest
        assert by_name["blackscholes"].idle_fraction > \
            by_name["x264"].idle_fraction
        assert 0.2 < res.avg_idle < 0.8
        # paper Section 3.2: most idle periods are short
        assert res.avg_short_fraction > 0.5


class TestFig6:
    def test_monotone_endpoints(self):
        res = fig6_placement.run()
        dists = [d for _, d, _ in res.curve]
        lats = [l for _, _, l in res.curve]
        assert dists[0] == pytest.approx(8.0)
        assert lats[0] == pytest.approx(3.0)
        assert dists[-1] == pytest.approx(8 / 3)
        assert lats[-1] == pytest.approx(5.0)
        assert "Figure 6" in fig6_placement.report(res)


class TestFig6Cache:
    """The placement curve is a checksummed record in the result cache:
    a cached run does no search, a ``--no-cache`` one does nothing else."""

    @pytest.fixture
    def searches(self, monkeypatch):
        """Counts ``PlacementAnalysis.greedy_selection`` calls."""
        calls = []
        search = PlacementAnalysis.greedy_selection

        def counted(self, *args, **kwargs):
            calls.append(1)
            return search(self, *args, **kwargs)
        monkeypatch.setattr(PlacementAnalysis, "greedy_selection", counted)
        return calls

    @pytest.fixture
    def install(self, monkeypatch, tmp_path):
        """Installs a runner over an empty cache under ``tmp_path``."""
        def install(**settings):
            runner = SweepRunner(cache=ResultCache(tmp_path / "cache"),
                                 **settings)
            monkeypatch.setattr(parallel, "_default_runner", runner)
            return runner
        return install

    @staticmethod
    def record(runner):
        files = list(runner.cache.directory.glob("*.json"))
        assert len(files) == 1
        return files[0]

    def test_cached_run_does_no_search(self, searches, install):
        install()
        computed = fig6_placement.run()
        assert len(searches) == 1
        cached = fig6_placement.run()
        assert len(searches) == 1
        # Exact: floats compare with ==, the curve and metrics as tuples.
        assert cached == computed and cached is not computed
        assert len(cached.curve) == 17
        assert all(type(s) is frozenset for s, _, _ in cached.curve)
        assert type(cached.knee_set) is frozenset

    def test_no_cache_computes_every_time_and_writes_nothing(
            self, searches, install):
        runner = install(use_cache=False)
        assert fig6_placement.run() == fig6_placement.run()
        assert len(searches) == 2
        assert not runner.cache.directory.exists()

    @pytest.mark.parametrize("damage", ["tampered", "truncated"])
    def test_damaged_record_is_quarantined_and_recomputed(
            self, searches, install, damage):
        runner = install()
        computed = fig6_placement.run()
        path = self.record(runner)
        if damage == "tampered":  # still valid JSON, checksum left as is
            data = json.loads(path.read_text())
            data["analysis"]["curve"][6][1] += 0.5
            path.write_text(json.dumps(data))
        else:
            path.write_text(path.read_text()[:100])
        assert fig6_placement.run() == computed
        assert len(searches) == 2
        assert runner.cache.quarantined == 1
        assert path.with_suffix(".corrupt").exists()
        # ... and the recomputed curve was filed again.
        assert fig6_placement.run() == computed
        assert len(searches) == 2

    def test_stale_format_is_an_honest_miss(self, searches, install):
        runner = install()
        computed = fig6_placement.run()
        path = self.record(runner)
        data = json.loads(path.read_text())
        data["format"] = parallel.CACHE_FORMAT - 1
        path.write_text(json.dumps(data))
        assert fig6_placement.run() == computed
        assert len(searches) == 2
        assert runner.cache.quarantined == 0
        assert json.loads(path.read_text())["format"] == parallel.CACHE_FORMAT

    def test_run_all_footer_counts_no_design_point(self, searches, install,
                                                   monkeypatch):
        monkeypatch.setattr(runner_module, "EXPERIMENTS",
                            {"fig6": EXPERIMENTS["fig6"]})
        install()
        for _ in ("cold", "served from the cache"):
            lines = []
            runner_module.run_all("smoke", SEED, echo=lines.append)
            assert len(searches) == 1
            assert lines[2].startswith("[fig6 took ")
            assert lines[2].endswith("; cache: 0 hits, 0 misses]")
            assert lines[-1].endswith("; cache: 0 hits, 0 misses]")


class TestFig7:
    def test_ring_only_saturates_early(self):
        res = fig7_threshold.run(SCALE, SEED,
                                 rates=(0.01, 0.03, 0.06, 0.09))
        lat = {p.rate: p.latency for p in res.points}
        assert lat[0.09] > 2 * lat[0.01]
        assert res.rate_for_requests(1) is not None


class TestParsecFigures:
    """Figures 8-12 share the smoke-scale sweep."""

    @pytest.fixture(scope="class", autouse=True)
    def warm_cache(self):
        parsec_sweep(SCALE, SEED)

    def test_fig8_gating_saves_static_energy(self):
        res = fig8_static_energy.run(SCALE, SEED)
        for design in Design.GATED:
            assert res.average(design) < 1.0
        assert res.average(Design.NO_PG) == pytest.approx(1.0)

    def test_fig9_nord_cuts_wakeups_massively(self):
        res = fig9_overhead.run(SCALE, SEED)
        assert res.wakeup_reduction(Design.NORD, Design.CONV_PG) > 0.5
        assert res.overhead_reduction(Design.NORD, Design.CONV_PG) > 0.5

    def test_fig10_components_sum(self):
        res = fig10_energy_breakdown.run(SCALE, SEED)
        total = res.total("bodytrack", Design.NO_PG)
        assert total == pytest.approx(1.0)

    def test_fig11_ordering(self):
        res = fig11_latency.run(SCALE, SEED)
        assert res.average(Design.NO_PG) < res.average(Design.CONV_PG)
        assert res.degradation(Design.CONV_PG_OPT) < \
            res.degradation(Design.CONV_PG)

    def test_fig12_execution_time_follows_latency(self):
        res = fig12_execution_time.run(SCALE, SEED)
        assert 0.0 < res.average_increase(Design.CONV_PG) < 0.5
        for bench in res.exec_time:
            assert res.exec_time[bench][Design.NO_PG] == pytest.approx(1.0)


class TestFig13:
    def test_nord_flat_conv_grows(self):
        res = fig13_wakeup_latency.run(SCALE, SEED,
                                       wakeup_latencies=(9, 18))
        assert res.slope(Design.NORD) < res.slope(Design.CONV_PG)
        assert res.slope(Design.CONV_PG) > 1.05


class TestFig14:
    def test_three_regions(self):
        res = fig14_load_sweep.run(SCALE, SEED, rates=(0.02, 0.3))
        low, high = res.points[0.02], res.points[0.3]
        # at low load PG designs pay latency; at high load they converge
        assert low[Design.CONV_PG_OPT].latency > low[Design.NO_PG].latency
        gap_low = low[Design.CONV_PG_OPT].latency - low[Design.NO_PG].latency
        gap_high = high[Design.CONV_PG_OPT].latency - high[Design.NO_PG].latency
        assert gap_high < gap_low
        # in the low-load region NoRD both sleeps more and responds faster
        # than conventional power-gating (the paper's region-1 claim)
        assert low[Design.NORD].power_w < low[Design.NO_PG].power_w
        assert low[Design.NORD].latency < low[Design.CONV_PG_OPT].latency
        assert low[Design.NORD].off_fraction > \
            low[Design.CONV_PG_OPT].off_fraction


class TestResilienceSweep:
    @pytest.fixture(scope="class")
    def res(self):
        from repro.experiments import resilience_sweep
        return resilience_sweep.run(scale=SCALE, seed=SEED)

    def test_baseline_is_clean(self, res):
        for design in Design.ALL:
            r = res.results["fault-free"][design]
            assert r.delivered_fraction == 1.0
            assert r.packets_failed == 0 and r.packets_corrupted == 0

    def test_nord_survives_router_failure(self, res):
        assert res.results["router-fail"][Design.NORD] \
            .delivered_fraction == 1.0

    def test_conventional_designs_shed_traffic(self, res):
        for design in (Design.NO_PG, Design.CONV_PG, Design.CONV_PG_OPT):
            r = res.results["router-fail"][design]
            assert r.packets_failed > 0
            assert r.delivered_fraction < 1.0

    def test_retransmission_heals_link_noise(self, res):
        for design in Design.ALL:
            r = res.results["link-noise"][design]
            assert r.delivered_fraction == 1.0
            assert r.packets_retransmitted >= r.packets_corrupted > 0

    def test_report_contents(self, res):
        from repro.experiments import resilience_sweep
        text = resilience_sweep.report(res)
        assert "delivered" in text and "inflation" in text
        assert "router-fail" in text and "link-noise" in text
        assert "bypass ring" in text


class TestAreaAndTable:
    def test_area_overhead(self):
        res = area_overhead.run()
        assert res.nord_overhead == pytest.approx(0.031, abs=0.01)
        assert "3.1%" in area_overhead.report(res)

    def test_table1(self):
        res = table1_config.run()
        assert len(res.rows) == 12
        text = table1_config.report(res)
        assert "128 bits/cycle" in text


class TestRunner:
    def test_registry_covers_all_figures(self):
        expected = {"table1", "fig1", "fig3", "fig6", "fig7", "fig8",
                    "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
                    "fig15", "area", "discussion", "bufferless",
                    "resilience"}
        assert set(EXPERIMENTS) == expected

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            run_experiment("fig99")

    def test_run_experiment_returns_report(self):
        text = run_experiment("fig1", SCALE, SEED)
        assert "static power share" in text
