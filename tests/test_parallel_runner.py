"""The parallel sweep runner and its on-disk result cache.

Covers the determinism contract (serial == parallel == cached), the
cache key (stable, sensitive to every ingredient), serialization
round-trips, and the CLI/run-all plumbing.
"""

import dataclasses
import json
import os

import pytest

from repro.config import Design, SimConfig, stable_hash
from repro.experiments import parallel
from repro.experiments.common import build_config
from repro.experiments.parallel import (RETRYABLE_KINDS, DesignPoint,
                                        ResultCache, SweepRunner, TrafficSpec,
                                        bitcomp_spec, code_version,
                                        execute_point, parsec_spec,
                                        point_basename, uniform_spec)
from repro.power.model import EnergyReport
from repro.stats.collector import RouterActivity, RunResult
from repro.traffic.spec import TRAFFIC_KINDS


def smoke_points(designs=(Design.NO_PG, Design.NORD), rate=0.05, seed=1):
    return [DesignPoint(cfg=build_config(d, "smoke", seed=seed),
                        traffic=uniform_spec(rate, seed=seed))
            for d in designs]


def result_blob(outcome):
    """Canonical bytes of one (RunResult, EnergyReport) outcome."""
    result, energy = outcome
    return json.dumps([result.to_dict(), energy.to_dict()],
                      sort_keys=True).encode()


# ---------------------------------------------------------------------------
# specs and design points
# ---------------------------------------------------------------------------
class TestTrafficSpec:
    def test_builds_each_kind(self):
        from repro.noc.topology import Mesh
        mesh = Mesh(4, 4)
        assert uniform_spec(0.1).build(mesh).rate == 0.1
        assert bitcomp_spec(0.2).build(mesh).rate == 0.2
        assert parsec_spec("x264").build(mesh).profile.name == "x264"
        assert list(TrafficSpec(kind="null").build(mesh).arrivals(0)) == []

    def test_rejects_unknown_kind(self):
        from repro.noc.topology import Mesh
        with pytest.raises(ValueError, match="unknown traffic kind"):
            TrafficSpec(kind="chaos").build(Mesh(4, 4))

    def test_unknown_kind_fails_where_it_is_written(self):
        """Not after a worker round trip, as a contained ``error``."""
        with pytest.raises(ValueError, match="unknown traffic kind"):
            TrafficSpec(kind="unifrom", rate=0.1)
        for kind in TRAFFIC_KINDS:  # the table build() reads
            assert TrafficSpec(kind=kind).kind == kind

    def test_specs_are_picklable(self):
        import pickle
        spec = parsec_spec("canneal", seed=7)
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestDesignPoint:
    def test_rejects_unknown_prepare_hook(self):
        with pytest.raises(ValueError, match="unknown prepare hook"):
            DesignPoint(cfg=SimConfig(), traffic=uniform_spec(0.1),
                        prepare="definitely_not_registered")

    def test_cache_key_stable_and_sensitive(self):
        p = smoke_points()[0]
        assert p.cache_key() == p.cache_key()
        # every ingredient must perturb the key
        variants = [
            dataclasses.replace(p, cfg=p.cfg.replace(seed=2)),
            dataclasses.replace(p, traffic=uniform_spec(0.06)),
            dataclasses.replace(p, prepare="force_all_off"),
            dataclasses.replace(
                p, cfg=p.cfg.replace(design=Design.BUFFERLESS)),
        ]
        keys = {p.cache_key()} | {v.cache_key() for v in variants}
        assert len(keys) == len(variants) + 1

    def test_cache_key_tracks_code_version(self, monkeypatch):
        p = smoke_points()[0]
        before = p.cache_key()
        monkeypatch.setattr(parallel, "_CODE_VERSION", "something-else")
        assert p.cache_key() != before


class TestFingerprints:
    def test_stable_hash_ignores_key_order(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_code_version_is_memoized_hex(self):
        v = code_version()
        assert v == code_version()
        assert len(v) == 64 and int(v, 16) >= 0


# ---------------------------------------------------------------------------
# serialization round-trips
# ---------------------------------------------------------------------------
class TestSerialization:
    def test_run_result_roundtrip(self):
        """A stored result is rows and pairs, and loads back equal: 4x4
        No_PG and NoRD, 8x8 NoRD, and the bufferless datapath."""
        points = smoke_points() + [
            DesignPoint(cfg=build_config(Design.NORD, "smoke", width=8,
                                         height=8),
                        traffic=uniform_spec(0.05, seed=1)),
            DesignPoint(cfg=build_config(Design.BUFFERLESS, "smoke"),
                        traffic=uniform_spec(0.05, seed=1))]
        width = len(dataclasses.fields(RouterActivity))
        for point in points:
            result, _ = execute_point(point)
            encoded = json.loads(json.dumps(result.to_dict()))
            assert len(encoded["routers"]) == result.num_nodes
            for row in encoded["routers"]:
                assert isinstance(row, list) and len(row) == width
                assert all(type(v) is int for v in row)
            assert encoded["idle_periods"]
            for name in ("idle_periods", "censored_idle_periods"):
                assert all(len(pair) == 2 for pair in encoded[name])
                lengths = [length for length, _ in encoded[name]]
                assert lengths == sorted(set(lengths))
            clone = RunResult.from_dict(encoded)
            assert clone == result
            assert all(isinstance(k, int) for k in clone.idle_periods)
            assert isinstance(clone.routers[0], RouterActivity)

    def test_energy_report_roundtrip(self):
        _, energy = execute_point(smoke_points()[0])
        clone = EnergyReport.from_dict(
            json.loads(json.dumps(energy.to_dict())))
        assert clone == energy
        assert clone.total_j == energy.total_j


# ---------------------------------------------------------------------------
# the result cache
# ---------------------------------------------------------------------------
class TestResultCache:
    def test_miss_then_hit_byte_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = smoke_points()[0]
        key = point.cache_key()
        assert cache.get(key) is None
        outcome = execute_point(point)
        cache.put(key, outcome)
        loaded = cache.get(key)
        assert loaded is not None
        assert result_blob(loaded) == result_blob(outcome)

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path_for("bad").parent.mkdir(parents=True, exist_ok=True)
        cache.path_for("bad").write_text("{not json")
        assert cache.get("bad") is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = smoke_points()[0]
        cache.put(point.cache_key(), execute_point(point))
        assert cache.clear() == 1
        assert cache.get(point.cache_key()) is None

    def test_env_var_overrides_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert ResultCache().directory == tmp_path / "elsewhere"

    def test_explicit_directory_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert ResultCache(tmp_path / "mine").directory == tmp_path / "mine"


# ---------------------------------------------------------------------------
# determinism: serial == parallel == cached
# ---------------------------------------------------------------------------
class TestDeterminism:
    def test_serial_and_parallel_identical(self, tmp_path):
        """--jobs 1, --jobs 4 and a generous --timeout (the deadline
        checked every cycle) produce identical RunResults."""
        points = smoke_points(designs=(Design.CONV_PG, Design.NORD))
        serial = SweepRunner(jobs=1, use_cache=False).run(points)
        parallel_out = SweepRunner(jobs=4, use_cache=False).run(points)
        timed = SweepRunner(jobs=1, use_cache=False, timeout=600).run(points)
        for a, b, c in zip(serial, parallel_out, timed):
            assert result_blob(a) == result_blob(b) == result_blob(c)

    def test_cache_hit_equals_cache_miss(self, tmp_path):
        points = smoke_points(designs=(Design.CONV_PG_OPT,))
        runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path))
        first = runner.run(points)
        assert runner.stats.snapshot() == (0, 1)
        second = runner.run(points)
        assert runner.stats.snapshot() == (1, 1)
        assert result_blob(first[0]) == result_blob(second[0])

    def test_results_in_submission_order(self, tmp_path):
        points = smoke_points(designs=(Design.NO_PG, Design.CONV_PG,
                                       Design.NORD))
        out = SweepRunner(jobs=1, cache=ResultCache(tmp_path)).run(points)
        assert [r.design for r, _ in out] == [Design.NO_PG, Design.CONV_PG,
                                              Design.NORD]

    def test_prepare_hook_survives_the_runner(self, tmp_path):
        """force_all_off must apply in the worker, not just in-process."""
        point = DesignPoint(cfg=build_config(Design.NORD, "smoke"),
                            traffic=uniform_spec(0.02),
                            prepare="force_all_off")
        result, _ = SweepRunner(jobs=1, use_cache=False).run_one(point)
        assert result.avg_off_fraction > 0.9


class TestSweepRunner:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)

    def test_no_cache_mode_skips_disk(self, tmp_path):
        runner = SweepRunner(jobs=1, use_cache=False,
                             cache=ResultCache(tmp_path))
        runner.run(smoke_points(designs=(Design.NO_PG,)))
        assert not list(tmp_path.glob("*.json"))

    def test_empty_batch(self):
        assert SweepRunner(jobs=1).run([]) == []

    def test_install_replaces_the_runner_and_closes_its_pool(
            self, monkeypatch):
        old = SweepRunner(jobs=2, use_cache=False)
        monkeypatch.setattr(parallel, "_default_runner", old)
        assert all(parallel.submit(smoke_points()))
        assert old.supervisor is not None  # a pooled sweep ran
        new = SweepRunner()
        assert parallel.install(new) is new
        assert parallel.get_runner() is new
        assert old.supervisor is None

    def test_bufferless_network_kind(self, tmp_path):
        point = DesignPoint(cfg=build_config(Design.BUFFERLESS, "smoke"),
                            traffic=uniform_spec(0.05))
        result, energy = SweepRunner(
            jobs=1, cache=ResultCache(tmp_path)).run_one(point)
        assert result.design == energy.design == "Bufferless"
        assert result.kernel == "bufferless"


# ---------------------------------------------------------------------------
# fault plans in design points
# ---------------------------------------------------------------------------
class TestInheritedSettings:
    """``INHERITED``: runner settings that ride on the points."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_runner_backend_is_the_point_pinned(self, tmp_path, jobs):
        points = smoke_points()
        pinned = [dataclasses.replace(p, backend="ref") for p in points]
        assert pinned[0].cache_key() != points[0].cache_key()
        with SweepRunner(jobs=jobs, backend="ref",
                         cache=ResultCache(tmp_path)) as runner:
            outcomes = runner.run(points)
        assert [r.kernel for r, _ in outcomes] == ["ref", "ref"]
        assert {path.stem for path in tmp_path.glob("*.json")} \
            == {p.cache_key() for p in pinned}
        # ... and nothing was written to the environment to get there.
        assert "REPRO_BACKEND" not in os.environ

    def test_a_points_own_setting_wins(self, tmp_path):
        from repro.trace.spec import TraceSpec
        own, plain = smoke_points()
        outcomes = SweepRunner(use_cache=False, backend="ref").run(
            [dataclasses.replace(own, backend="soa"), plain])
        assert [r.kernel for r, _ in outcomes] == ["soa", "ref"]
        SweepRunner(use_cache=False,
                    trace=TraceSpec(str(tmp_path / "runner"))).run(
            [dataclasses.replace(own, trace=TraceSpec(str(tmp_path / "own"))),
             plain])
        for directory in ("own", "runner"):
            assert len(list((tmp_path / directory).glob("*.digest.json"))) \
                == 1


    def test_bufferless_point_left_unsampled_by_name(self, tmp_path,
                                                     capsys):
        """The sampler reads power-gate controllers and NIs: runner-wide
        metrics skip the bufferless point with a ``[metrics]`` line
        naming it, and sample the others.  A trace reaches it."""
        from repro.metrics.spec import MetricsSpec
        from repro.trace.spec import TraceSpec
        plain, = smoke_points((Design.NO_PG,))
        deflect, = smoke_points((Design.BUFFERLESS,))
        SweepRunner(use_cache=False,
                    metrics=MetricsSpec(str(tmp_path / "m")),
                    trace=TraceSpec(str(tmp_path / "t"))).run(
            [plain, deflect])
        out = capsys.readouterr().out
        assert out == (f"[metrics] {point_basename(deflect)} not sampled: "
                       f"the bufferless network has no power-gate "
                       f"controllers or NIs\n")
        assert [p.name for p in (tmp_path / "m").glob("*.jsonl")] == [
            point_basename(plain) + ".metrics.jsonl"]
        assert sorted(p.name for p in (tmp_path / "t").glob("*.digest.json")) \
            == sorted(point_basename(p) + ".digest.json"
                      for p in (plain, deflect))
        with pytest.raises(ValueError, match="bufferless"):
            dataclasses.replace(deflect, metrics=MetricsSpec(str(tmp_path)))


class TestFaultPoints:
    def test_fault_plan_perturbs_cache_key(self):
        from repro.faults import FaultPlan
        p = smoke_points()[0]
        faulted = dataclasses.replace(
            p, faults=FaultPlan.single_router_failure(5, 60))
        reseeded = dataclasses.replace(
            p, faults=FaultPlan.single_router_failure(5, 60, seed=2))
        keys = {p.cache_key(), faulted.cache_key(), reseeded.cache_key()}
        assert len(keys) == 3

    def test_empty_plan_shares_the_fault_free_entry(self):
        """FaultPlan() is proven byte-identical to no plan, so both must
        hit the same cache entry."""
        from repro.faults import FaultPlan
        p = smoke_points()[0]
        empty = dataclasses.replace(p, faults=FaultPlan())
        assert empty.cache_key() == p.cache_key()

    def test_faulted_outcome_cached_and_identical(self, tmp_path):
        from repro.faults import FaultPlan
        point = DesignPoint(
            cfg=build_config(Design.NORD, "smoke", seed=7),
            traffic=uniform_spec(0.05, seed=7),
            faults=FaultPlan.single_router_failure(5, 60))
        runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path))
        first = runner.run_one(point)
        second = runner.run_one(point)
        assert runner.stats.snapshot() == (1, 1)
        assert result_blob(first) == result_blob(second)
        assert first[0].delivered_fraction == 1.0  # NoRD survives

    def test_bufferless_rejects_faults(self):
        from repro.faults import FaultPlan
        with pytest.raises(ValueError, match="bufferless"):
            DesignPoint(cfg=build_config(Design.BUFFERLESS, "smoke"),
                        traffic=uniform_spec(0.05),
                        faults=FaultPlan.single_router_failure(0, 1))


# ---------------------------------------------------------------------------
# cache quarantine
# ---------------------------------------------------------------------------
class TestQuarantine:
    def test_truncated_json_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.path_for("broken")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"key":')
        assert cache.get("broken") is None
        assert cache.quarantined == 1
        assert not path.exists()
        corrupt = path.with_suffix(".corrupt")
        assert corrupt.exists()
        assert corrupt.read_text() == '{"key":'  # kept for post-mortem

    def test_wrong_shape_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.directory.mkdir(parents=True, exist_ok=True)
        cache.path_for("shape").write_text(json.dumps(
            {"key": "shape", "result": {"nope": 1}, "energy": {}}))
        cache.path_for("list").write_text(json.dumps([1, 2, 3]))
        assert cache.get("shape") is None
        assert cache.get("list") is None
        assert cache.quarantined == 2

    def test_missing_file_is_not_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("never-written") is None
        assert cache.quarantined == 0

    def test_quarantined_entry_refills_on_next_run(self, tmp_path):
        """After quarantine the next sweep recomputes and re-caches."""
        cache = ResultCache(tmp_path)
        runner = SweepRunner(jobs=1, cache=cache)
        point = smoke_points(designs=(Design.NO_PG,))[0]
        first = runner.run_one(point)
        cache.path_for(point.cache_key()).write_text("garbage")
        second = runner.run_one(point)
        assert cache.quarantined == 1
        assert runner.stats.snapshot() == (0, 2)
        assert result_blob(first) == result_blob(second)
        # the refreshed entry is valid again
        assert cache.get(point.cache_key()) is not None


# ---------------------------------------------------------------------------
# timeouts, retries, partial-results mode
# ---------------------------------------------------------------------------
def wedged_point(seed=7):
    """A design point that deterministically hangs (credit loss wedges a
    VC; the tightened deadlock limit makes the watchdog fire fast)."""
    from repro.faults import FaultPlan
    return DesignPoint(
        cfg=build_config(Design.CONV_PG, "smoke", seed=seed),
        traffic=uniform_spec(0.10, seed=seed),
        prepare="tight_deadlock_limit",
        faults=FaultPlan.uniform_link_noise(credit_loss_rate=0.05, seed=5))


@parallel.register_prepare("tight_deadlock_limit")
def _tight_deadlock_limit(net):
    net.deadlock_limit = 300


def slow_point():
    """A run far too long to finish inside a ~1s timeout."""
    return DesignPoint(
        cfg=build_config(Design.NORD, "smoke", seed=3,
                         warmup_cycles=1_000, measure_cycles=500_000),
        traffic=uniform_spec(0.10, seed=3))


class TestResilientRunner:
    def test_hang_raises_typed_error_in_strict_mode(self, tmp_path):
        from repro.errors import DeadlockError, SimulationHang
        runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path))
        with pytest.raises(SimulationHang) as excinfo:
            runner.run([wedged_point()])
        err = excinfo.value
        assert isinstance(err, DeadlockError)
        assert err.diagnostics["routers"]  # crossed the guard intact

    def test_hang_is_retried_then_recorded_in_partial_mode(self, tmp_path,
                                                           monkeypatch):
        monkeypatch.setattr(parallel, "RETRY_BACKOFF", 0.0)
        runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path),
                             retries=2, partial=True)
        good = smoke_points(designs=(Design.NORD,))[0]
        outcomes = runner.run([wedged_point(), good])
        assert outcomes[0] is None
        assert outcomes[1] is not None  # the sweep survived
        assert runner.stats.retried == 2
        assert runner.stats.failures == 1
        failed = runner.failures[0]
        assert failed.kind == "hang" and failed.kind in RETRYABLE_KINDS
        assert failed.attempts == 3
        assert failed.diagnostics["kind"] == "deadlock"

    def test_failed_runs_are_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(jobs=1, cache=cache, partial=True)
        point = wedged_point()
        runner.run([point])
        assert cache.get(point.cache_key()) is None
        assert not list(tmp_path.glob("*.json"))

    def test_timeout_in_process(self, tmp_path):
        import time
        runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path),
                             timeout=1.0, partial=True)
        start = time.monotonic()
        outcomes = runner.run([slow_point()])
        assert time.monotonic() - start < 30
        assert outcomes == [None]
        assert runner.failures[0].kind == "timeout"
        assert "timeout" in runner.failures[0].message

    def test_timeout_in_worker_pool(self, tmp_path):
        runner = SweepRunner(jobs=2, cache=ResultCache(tmp_path),
                             timeout=1.0, partial=True)
        good = smoke_points(designs=(Design.NO_PG,))[0]
        outcomes = runner.run([slow_point(), good])
        assert outcomes[0] is None and outcomes[1] is not None
        assert runner.failures[0].kind == "timeout"

    def test_timeout_raises_in_strict_mode(self, tmp_path):
        from repro.errors import RunTimeout
        runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path),
                             timeout=1.0)
        with pytest.raises(RunTimeout):
            runner.run([slow_point()])

    def test_error_failures_are_not_retried(self, tmp_path, monkeypatch):
        """Deterministic (non-hang) errors fail fast: no retry rounds."""
        calls = {"n": 0}

        def boom(point, timeout):
            calls["n"] += 1
            return ("error", "ValueError: bad config", {})
        monkeypatch.setattr(parallel, "_guarded_execute", boom)
        monkeypatch.setattr(parallel, "RETRY_BACKOFF", 0.0)
        runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path),
                             retries=5, partial=True)
        outcomes = runner.run(smoke_points(designs=(Design.NO_PG,)))
        assert outcomes == [None]
        assert calls["n"] == 1
        assert runner.stats.retried == 0
        assert runner.failures[0].kind == "error"
        assert runner.failures[0].kind not in RETRYABLE_KINDS

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            SweepRunner(timeout=0)
        with pytest.raises(ValueError):
            SweepRunner(retries=-1)
        with pytest.raises(ValueError, match="unknown simulation backend"):
            SweepRunner(backend="fast")


# ---------------------------------------------------------------------------
# one worker pool per runner, not per sweep
# ---------------------------------------------------------------------------
class TestPoolLifetime:
    def leased_pids(self, runner):
        return {e["pid"] for e in runner.supervisor.events
                if e["ev"] == "leased"}

    def test_cached_sweep_spawns_no_pool(self, tmp_path):
        points = smoke_points()
        with SweepRunner(jobs=2, cache=ResultCache(tmp_path)) as runner:
            first = runner.run(points)
            assert runner.stats.workers_spawned == 2
        with SweepRunner(jobs=2, cache=ResultCache(tmp_path)) as rerun:
            assert rerun.run(points) == first
            assert rerun.supervisor is None
            assert rerun.stats.workers_spawned == 0

    def test_timeout_change_between_sweeps_is_honoured(self, monkeypatch):
        """The timeout travels with each task; it is not baked into the
        workers a first sweep spawned."""
        runner = SweepRunner(jobs=2, use_cache=False, partial=True)
        monkeypatch.setattr(parallel, "_default_runner", runner)
        with runner:
            assert all(parallel.submit(smoke_points()))
            # Both workers, including one that came up too late to be
            # leased anything in this short first sweep.
            pids = {e["pid"] for e in runner.supervisor.events
                    if e["ev"] == "spawned"}
            runner.timeout = 1.0
            good = smoke_points(designs=(Design.NO_PG,))[0]
            outcomes = parallel.submit([slow_point(), good])
            assert outcomes[0] is None and outcomes[1] is not None
            assert runner.failures[0].kind == "timeout"
            # The same two workers served both sweeps.
            assert self.leased_pids(runner) <= pids
            assert runner.stats.workers_spawned == 2

    def test_jobs_change_between_sweeps_resizes_the_pool(self):
        with SweepRunner(jobs=2, use_cache=False) as runner:
            runner.run(smoke_points())
            runner.jobs = 1
            runner.run(smoke_points())  # serial: needs no pool
            runner.jobs = 3
            runner.run(smoke_points(designs=Design.ALL))
            assert runner.supervisor.workers == 3
            assert runner.stats.workers_spawned == 2 + 3

    def test_close_is_idempotent_and_runner_stays_usable(self):
        import multiprocessing
        runner = SweepRunner(jobs=2, use_cache=False)
        want = runner.run(smoke_points())
        assert len(multiprocessing.active_children()) == 2
        runner.close()
        runner.close()
        assert multiprocessing.active_children() == []
        assert runner.run(smoke_points()) == want
        runner.close()
        assert multiprocessing.active_children() == []

    def test_interrupted_sweep_leaves_no_workers(self, tmp_path):
        import multiprocessing
        import os
        import signal
        import threading
        from repro.errors import SweepInterrupted
        from repro.experiments.journal import load_journal
        journal = tmp_path / "j.jsonl"
        runner = SweepRunner(jobs=2, use_cache=False, journal_path=journal)
        timer = threading.Timer(
            1.5, os.kill, (os.getpid(), signal.SIGTERM))
        timer.start()
        try:
            with pytest.raises(SweepInterrupted):
                runner.run([slow_point(), slow_point()])
        finally:
            timer.cancel()
        assert load_journal(journal)[-1]["ev"] == "interrupted"
        assert multiprocessing.active_children() == []

    def test_run_all_footer_reports_the_pool(self, tmp_path, monkeypatch):
        from repro.experiments import runner as runner_mod
        monkeypatch.setattr(runner_mod, "EXPERIMENTS", {
            "fig7": runner_mod.EXPERIMENTS["fig7"]})
        for expect_pool in (True, False):  # cold, then fully cached
            monkeypatch.setattr(parallel, "_default_runner", SweepRunner(
                jobs=2, cache=ResultCache(tmp_path)))
            lines = []
            runner_mod.run_all("smoke", 1, echo=lines.append)
            footer = lines[-1]
            assert " took " in footer  # CI byte-diffs drop the line
            assert ("; pool: 2 workers spawned, 0 lost, 0 requeued]"
                    in footer) == expect_pool
            assert ("pool:" in footer) == expect_pool
            assert parallel.get_runner().supervisor is None  # released
