"""Tracing is a pure observer.

* a traced run's ``RunResult`` is identical (field for field, via
  ``to_dict``) to an untraced run of the same design point;
* digests are deterministic across fresh runs and identical between
  serial (``jobs=1``) and parallel (``jobs=2``) execution;
* the trace spec never enters the result-cache key, traced points skip
  the cache *read* but still write their result back.
"""

import json

import pytest

from repro.config import Design, small_config
from repro.experiments.parallel import (DesignPoint, ResultCache,
                                        SweepRunner, TrafficSpec,
                                        point_basename)
from repro.noc.network import Network
from repro.trace import EventTrace, TraceSpec
from repro.traffic.synthetic import uniform_random


def run_result(design, trace=None, seed=5):
    cfg = small_config(design, warmup=100, measure=600)
    net = Network(cfg, trace=trace)
    return net.run(uniform_random(net.mesh, 0.1, seed=seed))


def make_point(design=Design.NORD, rate=0.1, trace=None):
    cfg = small_config(design, warmup=100, measure=400)
    return DesignPoint(cfg=cfg, traffic=TrafficSpec(kind="uniform",
                                                    rate=rate, seed=2),
                       trace=trace)


class TestPureObserver:
    @pytest.mark.parametrize("design", Design.ALL)
    def test_traced_run_result_identical(self, design):
        base = run_result(design)
        traced = run_result(design, trace=EventTrace())
        assert base.to_dict() == traced.to_dict()

    def test_digest_deterministic_across_fresh_runs(self):
        digests = []
        for _ in range(2):
            trace = EventTrace()
            run_result(Design.NORD, trace=trace)
            digests.append(trace.digest())
        assert digests[0] == digests[1]


class TestCacheInterplay:
    def test_trace_spec_never_enters_the_cache_key(self, tmp_path):
        plain = make_point()
        traced = make_point(trace=TraceSpec(directory=str(tmp_path)))
        assert plain.cache_key() == traced.cache_key()

    def test_traced_point_skips_cache_read_but_still_writes(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = SweepRunner(cache=cache)
        plain = make_point()
        runner.run_one(plain)  # populate the cache
        assert runner.stats.misses == 1

        traced = make_point(trace=TraceSpec(directory=str(tmp_path / "tr")))
        result, _ = runner.run_one(traced)
        # Executed despite the warm cache (hits unchanged) ...
        assert runner.stats.hits == 0
        assert runner.stats.executed == 2
        # ... producing artifacts and the identical result.
        basename = point_basename(traced, traced.trace)
        assert (tmp_path / "tr" / f"{basename}.jsonl").is_file()
        assert (tmp_path / "tr" / f"{basename}.digest.json").is_file()
        cached = cache.get(plain.cache_key())
        assert cached is not None
        assert cached[0].to_dict() == result.to_dict()

        # An untraced re-run now hits the shared entry.
        runner.run_one(make_point())
        assert runner.stats.hits == 1

    def test_runner_level_trace_reaches_every_point(self, tmp_path):
        runner = SweepRunner(use_cache=False,
                             trace=TraceSpec(directory=str(tmp_path)))
        points = [make_point(design) for design in (Design.NO_PG,
                                                    Design.NORD)]
        runner.run(points)
        digests = sorted(tmp_path.glob("*.digest.json"))
        assert len(digests) == 2


class TestJobsInvariance:
    def _digest_files(self, tmp_path, jobs):
        directory = tmp_path / f"jobs{jobs}"
        points = [make_point(design,
                             trace=TraceSpec(directory=str(directory),
                                             basename=design.lower()))
                  for design in (Design.CONV_PG, Design.NORD)]
        SweepRunner(jobs=jobs, use_cache=False).run(points)
        return {p.name: p.read_bytes()
                for p in sorted(directory.glob("*"))}

    def test_serial_and_parallel_artifacts_byte_identical(self, tmp_path):
        serial = self._digest_files(tmp_path, 1)
        parallel = self._digest_files(tmp_path, 2)
        assert list(serial) == list(parallel)
        for name in serial:
            assert serial[name] == parallel[name], name


class TestRingBufferBounds:
    def test_limit_bounds_retention_not_counting(self):
        cfg = small_config(Design.NO_PG, warmup=100, measure=400)
        trace = EventTrace(limit=100)
        net = Network(cfg, trace=trace)
        net.run(uniform_random(net.mesh, 0.1, seed=8))
        assert len(trace) == 100
        assert trace.recorded > 100
        assert trace.dropped == trace.recorded - 100
        assert sum(trace.counts) == trace.recorded

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            EventTrace(limit=0)


class TestExportFormats:
    def test_jsonl_and_chrome_roundtrip(self, tmp_path):
        trace = EventTrace()
        run_result(Design.NORD, trace=trace)
        jsonl = trace.write_jsonl(tmp_path / "t.jsonl")
        lines = jsonl.read_text().splitlines()
        assert len(lines) == len(trace)
        first = json.loads(lines[0])
        assert set(first) == {"cycle", "kind", "node", "port", "vc",
                              "pid", "flit", "info"}
        chrome = trace.write_chrome(tmp_path / "t.chrome.json")
        payload = json.loads(chrome.read_text())
        events = payload["traceEvents"]
        assert len(events) > len(trace)  # instants + spans + metadata
        assert {e["ph"] for e in events} == {"i", "b", "e", "M"}
        spans = [e for e in events if e["ph"] in ("b", "e")]
        assert len(spans) % 2 == 0

    def test_pids_are_normalized_dense_by_first_appearance(self):
        trace = EventTrace()
        run_result(Design.NO_PG, trace=trace)
        mapping = trace.pid_map()
        assert sorted(mapping.values()) == list(range(len(mapping)))
        seen = []
        for line in trace.canonical_lines():
            pid = int(line.split(" pid")[1].split(" ")[0])
            if pid >= 0 and pid not in seen:
                seen.append(pid)
        assert seen == sorted(seen)
