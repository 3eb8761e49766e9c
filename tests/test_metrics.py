"""The ``repro.metrics`` subsystem: registry, sampler, exporters.

Covers the instrument semantics (histogram ``le`` bucket edges, counter
monotonicity), strict-regex parsing of the Prometheus text exposition,
the timeline sampler on real runs, artifact exporters, the
``MetricsSpec`` cache policy (excluded from the key, runner-wide
inheritance, skip-cache-read-but-write-back), and the HTML report's
self-containment contract.
"""

import dataclasses
import json
import re

import pytest

from repro.config import Design, small_config
from repro.experiments.parallel import (DesignPoint, ResultCache,
                                        SweepRunner, execute_point,
                                        point_basename, uniform_spec)
from repro.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                           MetricsSpec, TimelineSampler,
                           idle_bucket_bounds)
from repro.metrics.report import load_run, write_report
from repro.metrics.sampler import NET_SERIES
from repro.noc.network import Network


def small_cfg(design=Design.NORD, **kw):
    return small_config(design, warmup=50, measure=300, **kw)


def run_instrumented(design=Design.NORD, interval=50, rate=0.05):
    cfg = dataclasses.replace(small_cfg(design), drain_cycles=200)
    spec = MetricsSpec(directory="unused", interval=interval)
    metrics = spec.build()
    net = Network(cfg, metrics=metrics)
    net.run(uniform_spec(rate).build(net.mesh))
    metrics.finalize(net)
    return metrics, net


# ---------------------------------------------------------------------------
# instruments
# ---------------------------------------------------------------------------
class TestInstruments:
    def test_counter_monotone(self):
        c = Counter("c_total")
        c.inc()
        c.inc(5)
        assert c.value == 6
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1)

    def test_gauge_last_write_wins(self):
        g = Gauge("g")
        g.set(3)
        g.set(1.5)
        assert g.value == 1.5

    def test_histogram_value_on_bucket_edge_lands_in_that_bucket(self):
        h = Histogram("h", bounds=(5, 10, 20))
        h.observe(5)    # == first edge -> bucket le=5
        h.observe(10)   # == second edge -> bucket le=10
        h.observe(6)    # between -> le=10
        h.observe(20)   # == last edge -> le=20
        h.observe(21)   # above -> +Inf overflow
        assert h.counts == [1, 2, 1, 1]
        assert h.total == 5
        assert h.sum == 5 + 10 + 6 + 20 + 21
        # cumulative view is monotone and ends at the total
        cum = h.cumulative()
        assert [b for b, _ in cum] == [5, 10, 20, float("inf")]
        assert [c for _, c in cum] == [1, 3, 4, 5]

    def test_histogram_bounds_deduped_and_sorted(self):
        h = Histogram("h", bounds=(20, 5, 5, 10))
        assert h.bounds == (5, 10, 20)

    def test_histogram_requires_bounds(self):
        with pytest.raises(ValueError, match="at least one bucket"):
            Histogram("h", bounds=())


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a_total") is reg.counter("a_total")
        assert reg.counter("a_total", k="x") is not reg.counter("a_total")

    def test_kind_conflicts_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x", label="other")

    def test_histogram_bounds_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("h", bounds=(1, 2))
        with pytest.raises(ValueError, match="different bounds"):
            reg.histogram("h", bounds=(1, 3))

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            reg.counter("9starts_with_digit")
        with pytest.raises(ValueError, match="invalid label name"):
            reg.counter("ok", **{"bad-label": "v"})

    def test_to_dict_shape(self):
        reg = MetricsRegistry()
        reg.counter("c_total", path="ring").inc(2)
        reg.gauge("g").set(0.5)
        reg.histogram("h", bounds=(1,)).observe(1)
        d = reg.to_dict()
        assert d["counters"] == {'c_total{path="ring"}': 2}
        assert d["gauges"] == {"g": 0.5}
        assert d["histograms"]["h"] == {"bounds": [1], "counts": [1, 0],
                                        "sum": 1.0, "total": 1}


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------
#: One exposition line: either a # TYPE header or `name{labels} value`.
TYPE_RE = re.compile(r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) "
                     r"(counter|gauge|histogram)$")
SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{([a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
    r"(?:,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*)\})?"
    r" (-?\d+(?:\.\d+)?(?:e-?\d+)?)$")


def parse_exposition(text):
    """Strict line-by-line parse -> (types, {sample: float})."""
    assert text.endswith("\n")
    types, samples = {}, {}
    for line in text.splitlines():
        m = TYPE_RE.match(line)
        if m:
            assert m.group(1) not in types, "duplicate # TYPE header"
            types[m.group(1)] = m.group(2)
            continue
        m = SAMPLE_RE.match(line)
        assert m, f"unparseable exposition line: {line!r}"
        name = m.group(1) + (f"{{{m.group(2)}}}" if m.group(2) else "")
        assert name not in samples, f"duplicate sample {name}"
        samples[name] = float(m.group(3))
    return types, samples


class TestPrometheusExposition:
    def test_every_line_parses_strictly(self):
        metrics, _ = run_instrumented()
        types, samples = parse_exposition(
            metrics.registry.prometheus_text())
        assert types["ni_injected_flits_total"] == "counter"
        assert types["router_off_duty"] == "gauge"
        assert types["idle_period_cycles"] == "histogram"
        # histogram expands into _bucket/_sum/_count series
        assert 'packet_latency_cycles_bucket{le="+Inf"}' in samples
        assert "packet_latency_cycles_sum" in samples
        assert "packet_latency_cycles_count" in samples

    def test_histogram_buckets_are_cumulative_and_capped(self):
        metrics, _ = run_instrumented()
        _, samples = parse_exposition(metrics.registry.prometheus_text())
        buckets = sorted(
            ((float(re.search(r'le="([^"]+)"', k).group(1).replace(
                "+Inf", "inf")), v)
             for k, v in samples.items()
             if k.startswith('packet_latency_cycles_bucket')))
        values = [v for _, v in buckets]
        assert values == sorted(values), "buckets must be cumulative"
        assert values[-1] == samples["packet_latency_cycles_count"]

    def test_counters_monotone_across_snapshots(self):
        cfg = dataclasses.replace(small_cfg(), drain_cycles=200)
        metrics = MetricsSpec(directory="unused", interval=25).build()
        net = Network(cfg, metrics=metrics)
        traffic = uniform_spec(0.05).build(net.mesh)
        last = {}
        for _ in range(10):
            for _ in range(40):
                net._inject_arrivals(traffic)
                net.step()
            _, samples = parse_exposition(
                metrics.registry.prometheus_text())
            for key, value in samples.items():
                if key.endswith("_total") or "_bucket" in key \
                        or key.endswith("_count"):
                    assert value >= last.get(key, 0.0), \
                        f"{key} went backwards"
            last.update(samples)
        assert last.get("ni_injected_flits_total{path=\"router\"}", 0) \
            + last.get("ni_injected_flits_total{path=\"ring\"}", 0) > 0


# ---------------------------------------------------------------------------
# timeline sampler
# ---------------------------------------------------------------------------
class TestTimelineSampler:
    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError, match="interval"):
            TimelineSampler(0)

    def test_windows_and_series_align(self):
        metrics, net = run_instrumented(interval=50)
        tl = metrics.timeline
        n = len(tl.cycles)
        assert n >= 5
        assert len(tl.windows) == n
        assert all(len(tl.net[k]) == n for k in NET_SERIES)
        assert len(tl.node_off) == n
        # windows tile the run exactly: cycle deltas match window sizes
        cycles = [0] + tl.cycles
        assert tl.windows == [b - a for a, b in zip(cycles, cycles[1:])]
        assert tl.cycles[-1] == net.now

    def test_fractions_bounded(self):
        metrics, _ = run_instrumented(interval=50)
        tl = metrics.timeline
        for key in ("off_fraction", "waking_fraction", "inject_rate",
                    "link_utilization", "escape_vc_occupancy",
                    "adaptive_vc_occupancy"):
            assert all(0.0 <= v <= 1.0 for v in tl.net[key]), key

    def test_no_pg_never_gates(self):
        metrics, _ = run_instrumented(design=Design.NO_PG)
        tl = metrics.timeline
        assert all(v == 0.0 for v in tl.net["off_fraction"])
        assert metrics.registry.counter("pg_wakeups_total").value == 0

    def test_nord_gates_and_bypasses(self):
        metrics, _ = run_instrumented(design=Design.NORD)
        assert max(metrics.timeline.net["off_fraction"]) > 0
        assert max(metrics.timeline.net["bypass_rate"]) > 0
        reg = metrics.registry.to_dict()
        assert reg["counters"]["ni_bypass_forwards_total"] > 0

    def test_mean_node_off_fraction(self):
        metrics, net = run_instrumented(design=Design.NORD)
        offs = metrics.timeline.mean_node_off_fraction()
        assert len(offs) == net.mesh.num_nodes
        assert all(0.0 <= v <= 1.0 for v in offs)
        assert max(offs) > 0

    def test_finalize_idempotent(self):
        metrics, net = run_instrumented()
        metrics.finalize(net)
        d1 = metrics.registry.to_dict()
        metrics.finalize(net)
        assert metrics.registry.to_dict() == d1

    def test_idle_bucket_bounds_anchor_on_bet(self):
        bounds = idle_bucket_bounds(10)
        assert 10 in bounds
        assert bounds == tuple(sorted(set(bounds)))
        assert idle_bucket_bounds(1)[0] == 1


# ---------------------------------------------------------------------------
# exporters + design-point integration
# ---------------------------------------------------------------------------
class TestExportAndCachePolicy:
    def point(self, tmp_path, **kw):
        return DesignPoint(
            cfg=dataclasses.replace(small_cfg(), drain_cycles=200),
            traffic=uniform_spec(0.05),
            metrics=MetricsSpec(directory=str(tmp_path), interval=50,
                                **kw))

    def test_execute_point_writes_all_artifacts(self, tmp_path):
        point = self.point(tmp_path)
        execute_point(point)
        base = point_basename(point, point.metrics)
        jsonl = tmp_path / f"{base}.metrics.jsonl"
        assert jsonl.is_file()
        assert (tmp_path / f"{base}.metrics.csv").is_file()
        assert (tmp_path / f"{base}.prom").is_file()
        lines = [json.loads(l) for l in jsonl.read_text().splitlines()]
        assert "meta" in lines[0] and lines[0]["meta"]["design"] == "NoRD"
        assert "summary" in lines[-1]
        for snap in lines[1:-1]:
            assert set(snap) == {"cycle", "window", "net", "node_off",
                                 "node_waking", "node_occ"}
        # CSV rows align with JSONL snapshots
        csv_lines = (tmp_path / f"{base}.metrics.csv").read_text() \
            .splitlines()
        assert csv_lines[0] == "cycle,window," + ",".join(NET_SERIES)
        assert len(csv_lines) - 1 == len(lines) - 2

    def test_metrics_spec_not_in_cache_key(self, tmp_path):
        point = self.point(tmp_path)
        bare = dataclasses.replace(point, metrics=None)
        assert point.cache_key() == bare.cache_key()

    def test_instrumented_point_skips_cache_read_but_writes_back(
            self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = SweepRunner(jobs=1, cache=cache)
        point = self.point(tmp_path / "m1")
        [first] = runner.run([point])
        assert runner.stats.hits == 0 and runner.stats.misses == 1
        # second instrumented run: still a miss (artifacts must exist)
        point2 = self.point(tmp_path / "m2")
        [second] = runner.run([point2])
        assert runner.stats.misses == 2
        assert list((tmp_path / "m2").glob("*.metrics.jsonl"))
        # but the result was written back: a bare point hits
        bare = dataclasses.replace(point, metrics=None)
        [third] = runner.run([bare])
        assert runner.stats.hits == 1
        assert first[0] == second[0] == third[0]

    def test_runner_wide_inheritance(self, tmp_path):
        spec = MetricsSpec(directory=str(tmp_path / "m"), interval=50)
        runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path / "c"),
                             metrics=spec)
        bare = dataclasses.replace(self.point(tmp_path), metrics=None)
        runner.run([bare])
        assert list((tmp_path / "m").glob("*.metrics.jsonl"))

    def test_wall_clock_stamped_but_never_serialized(self, tmp_path):
        point = self.point(tmp_path)
        result, _ = execute_point(point)
        assert result.wall_clock_s > 0
        assert result.simulated_cycles_per_sec > 0
        d = result.to_dict()
        assert "wall_clock_s" not in d
        assert "simulated_cycles_per_sec" not in d


# ---------------------------------------------------------------------------
# HTML report
# ---------------------------------------------------------------------------
class TestReport:
    def test_report_is_self_contained(self, tmp_path):
        for design in (Design.NO_PG, Design.NORD):
            point = DesignPoint(
                cfg=dataclasses.replace(small_cfg(design),
                                        drain_cycles=200),
                traffic=uniform_spec(0.05),
                metrics=MetricsSpec(directory=str(tmp_path),
                                    interval=50))
            execute_point(point)
        out = write_report(tmp_path)
        assert out == tmp_path / "report.html"
        text = out.read_text()
        assert text.count("<svg") >= 2
        assert "NoRD" in text and "No_PG" in text
        # single file, zero external requests
        for pattern in ("<script", "<link", "src=", "url(", "@import",
                        "http://", "https://"):
            assert pattern not in text, f"external reference: {pattern}"

    def test_load_run_round_trip(self, tmp_path):
        point = DesignPoint(
            cfg=dataclasses.replace(small_cfg(), drain_cycles=200),
            traffic=uniform_spec(0.05),
            metrics=MetricsSpec(directory=str(tmp_path), interval=50))
        execute_point(point)
        [jsonl] = tmp_path.glob("*.metrics.jsonl")
        run = load_run(jsonl)
        assert run.meta["design"] == "NoRD"
        assert len(run.cycles) == len(run.windows) > 0
        assert run.summary["counters"]
        offs = run.mean_off_by_node()
        assert len(offs) == 16

    def test_report_cli_main(self, tmp_path, capsys):
        from repro.metrics import report
        point = DesignPoint(
            cfg=dataclasses.replace(small_cfg(), drain_cycles=200),
            traffic=uniform_spec(0.05),
            metrics=MetricsSpec(directory=str(tmp_path), interval=50))
        execute_point(point)
        assert report.main([str(tmp_path)]) == 0
        assert "report.html" in capsys.readouterr().out
        assert (tmp_path / "report.html").is_file()

    def test_report_main_rejects_missing_dir(self, tmp_path):
        from repro.metrics import report
        with pytest.raises(SystemExit):
            report.main([str(tmp_path / "nope")])
