"""Direct-call probes for the traced pass: one public function of the
program timed from outside, per layer metric.

Each probe returns ``{metric name: summary}``.  They run only with
``--trace 1``; nothing here feeds an end-to-end metric.
"""

from __future__ import annotations

import pickle
import shutil
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List

import harness
from checks import Tally, result_mismatches
from harness import HostClock, Spans, exact, scaled, summarize

Summary = Dict[str, float]


def timed(fn: Callable[[], object], repeats: int) -> List[float]:
    """Wall seconds of ``fn()``, ``repeats`` times."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return samples


def timing(fn: Callable[[], object], repeats: int, scale: float) -> Summary:
    """Summary of ``fn()``'s wall time, in seconds times ``scale``."""
    return scaled(summarize(timed(fn, repeats)), scale)


def reps(quick: bool, normal: int) -> int:
    return 2 if quick else normal


# ---------------------------------------------------------------------------
# kernel-side layers
# ---------------------------------------------------------------------------
def observer_overheads(points, seed: int, quick: bool, plain_samples,
                       clock: HostClock, tally: Tally) -> Dict[str, Summary]:
    """One NoRD point with an ``EventTrace`` / ``MetricsRun`` attached
    against the same point without.  Both observers run on the default
    kernel here; under ``--fast`` the program's fallback table would move
    a traced run to plain ``soa`` and a metered one to ``ref``."""
    from kernel import timed_run
    from repro.metrics import MetricsSpec
    from repro.trace import EventTrace
    point = next(p for p in points if p.design == "NoRD")
    plain = statistics.median(r.norm_s for r in plain_samples[point.label])
    reference = plain_samples[point.label][0].result
    out = {}
    for name, kwargs in (
            ("trace.on_overhead_frac", lambda: {"trace": EventTrace()}),
            ("metrics.on_overhead_frac",
             lambda: {"metrics": MetricsSpec(directory="unused").build()})):
        run = timed_run(point, seed, quick, clock, **kwargs())
        # Observers must not change the result.
        tally.record(1, result_mismatches(f"{point.label} with {name}",
                                          reference, run.result))
        out[name] = exact(run.norm_s / plain - 1.0)
    return out


def core_probes(quick: bool) -> Dict[str, Summary]:
    """What a ``Network`` constructor pays the ``core`` package for."""
    from repro.config import PowerGateConfig
    from repro.core.ring import build_ring
    from repro.core.thresholds import ThresholdPolicy
    from repro.noc.topology import Mesh
    mesh = Mesh(8, 8)
    ring = build_ring(mesh)
    n = reps(quick, 20)
    return {
        "core.build_ring_ms": timing(lambda: build_ring(Mesh(8, 8)), n, 1e3),
        "core.threshold_policy_ms": timing(
            lambda: ThresholdPolicy(mesh, ring, PowerGateConfig()), n, 1e3),
    }


def placement_probe(quick: bool) -> Dict[str, Summary]:
    """The offline placement analysis exactly as ``fig6`` calls it - the
    largest single cost left in a fully cached ``run-all``."""
    from repro.experiments import fig6_placement
    return {"core.placement_ms": timing(fig6_placement.run, reps(quick, 5),
                                        1e3)}


def traffic_probes(seed: int, quick: bool) -> Dict[str, Summary]:
    """Traffic generators drained without a network."""
    from repro.experiments import parallel
    from repro.noc.topology import Mesh
    cycles = 500 if quick else 5_000
    out = {}
    for name, spec, side in (
            ("parsec", parallel.parsec_spec("blackscholes", seed=seed), 4),
            ("uniform", parallel.uniform_spec(0.10, seed=seed), 8)):
        def drain(spec=spec, side=side):
            source = spec.build(Mesh(side, side))
            for cycle in range(cycles):
                for _ in source.arrivals(cycle):
                    pass
        out[f"traffic.arrivals_us_per_cycle.{name}"] = timing(
            drain, reps(quick, 5), 1e6 / cycles)
    return out


def host_probes(clock: HostClock, spans: Spans) -> Dict[str, Summary]:
    """Machine state and the interpreter + import cost every CLI
    invocation and pool worker pays."""
    with harness.scratch_dir() as tmp, clock.sampling():
        imports = []
        for _ in range(3):
            child = harness.python_child(["-c", "import repro.cli"], tmp,
                                         clock)
            if child.returncode != 0:
                raise RuntimeError(f"import repro.cli failed:\n{child.stderr}")
            end = time.time()
            spans.add("cli.import", end - child.wall_s, end)
            imports.append(child.norm_s)
    return {"cli.import_s": summarize(imports),
            "host.calib_ms": summarize(clock.samples_ms),
            "host.loadavg1": exact(harness.loadavg1())}


# ---------------------------------------------------------------------------
# harness-side layers (experiments.parallel / journal / checkpoint)
# ---------------------------------------------------------------------------
def _sample_point(seed: int, quick: bool, design: str = "NoRD", side: int = 4):
    from kernel import QUICK_WINDOWS
    from repro.experiments import parallel
    from repro.experiments.common import build_config
    cfg = build_config(design, "smoke", width=side, height=side, seed=seed,
                       **(QUICK_WINDOWS if quick else {}))
    return parallel.DesignPoint(cfg=cfg,
                                traffic=parallel.uniform_spec(0.05, seed=seed))


def write_side_probes(seed: int, quick: bool, tmp: Path) -> Dict[str, Summary]:
    """What a cold sweep pays per executed point beside simulating it:
    pickling across the pool boundary, ``execute_point``'s wrapper, the
    cache write, the journal's fsync, the serial runner's bookkeeping."""
    from repro.experiments import parallel
    from repro.experiments.journal import SweepJournal
    point = _sample_point(seed, quick)
    outcomes, overheads = [], []
    for _ in range(reps(quick, 3)):
        t0 = time.perf_counter()
        outcome = parallel.execute_point(point)
        overheads.append(time.perf_counter() - t0 - outcome[0].wall_clock_s)
        outcomes.append(outcome)
    outcome = outcomes[0]
    n = reps(quick, 50)
    cache = parallel.ResultCache(tmp / "probe-cache")
    key = point.cache_key()
    record = {"ev": "done", "key": key, "result": outcome[0].to_dict(),
              "energy": outcome[1].to_dict()}
    with SweepJournal(tmp / "probe-journal.jsonl") as journal:
        appends = timed(lambda: journal.append(record), n)

    # The serial runner over a small grid: wall minus time inside net.run.
    grid = [_sample_point(seed, quick, design)
            for design in ("No_PG", "Conv_PG", "Conv_PG_OPT", "NoRD")]
    runner = parallel.SweepRunner(jobs=1, use_cache=False)
    t0 = time.perf_counter()
    results = runner.run(grid)
    serial_wall = time.perf_counter() - t0
    simulated = sum(r.wall_clock_s for r, _ in results)
    return {
        "parallel.point_pickle_us": timing(
            lambda: pickle.loads(pickle.dumps(point)), n, 1e6),
        "parallel.outcome_pickle_us": timing(
            lambda: pickle.loads(pickle.dumps(outcome)), n, 1e6),
        "parallel.cache_put_ms": timing(
            lambda: cache.put(key, outcome), n, 1e3),
        "parallel.execute_point_overhead_ms": scaled(
            summarize(overheads), 1e3),
        "parallel.serial_overhead_ms_per_point": exact(
            (serial_wall - simulated) / len(grid) * 1e3),
        "journal.append_ms": scaled(summarize(appends), 1e3),
    }


def read_side_probes(seed: int, quick: bool, tmp: Path,
                     journal: Path) -> Dict[str, Summary]:
    """What a fully cached sweep pays per point: the code fingerprint
    (once per process), key hashing, the cache read with its checksum,
    result (de)serialisation and the power model each report re-runs."""
    from repro.experiments import parallel
    from repro.experiments.journal import load_journal
    from repro.power.model import PowerModel
    from repro.stats.collector import RunResult
    point = _sample_point(seed, quick)
    outcome = parallel.execute_point(point)
    result = outcome[0]
    cache = parallel.ResultCache(tmp / "probe-cache")
    key = point.cache_key()
    cache.put(key, outcome)
    n = reps(quick, 50)

    # The fingerprint is memoised per process, so time it in fresh ones.
    fingerprints = []
    for _ in range(reps(quick, 3)):
        child = harness.python_child(
            ["-c", "import time; from repro.experiments import parallel; "
                   "t = time.perf_counter(); parallel.code_version(); "
                   "print(time.perf_counter() - t)"], tmp / "unused-cache")
        if child.returncode != 0:
            raise RuntimeError(f"code_version probe failed:\n{child.stderr}")
        fingerprints.append(float(child.stdout))
    model = PowerModel(point.cfg)
    return {
        "parallel.code_version_ms": scaled(summarize(fingerprints), 1e3),
        "parallel.cache_key_us": timing(point.cache_key, n, 1e6),
        "parallel.cache_get_ms": timing(lambda: cache.get(key), n, 1e3),
        "stats.result_roundtrip_us": timing(
            lambda: RunResult.from_dict(result.to_dict()), n, 1e6),
        "power.evaluate_us": timing(lambda: model.evaluate(result), n, 1e6),
        "journal.load_ms": timing(lambda: load_journal(journal),
                                  reps(quick, 5), 1e3),
    }


def checkpoint_probes(seed: int, quick: bool, tmp: Path,
                      tally: Tally) -> Dict[str, Summary]:
    """Snapshot/restore of an 8x8 NoRD network in mid-run, and a point
    executed with periodic checkpoints against the same point without."""
    from dataclasses import replace
    from repro.checkpoint import CheckpointSpec
    from repro.experiments import parallel
    from repro.noc.network import Network, RunProgress
    point = _sample_point(seed, quick, side=8)
    cfg = point.cfg
    net = Network(cfg)
    traffic = point.traffic.build(net.mesh)
    progress = RunProgress(cfg.warmup_cycles, cfg.measure_cycles,
                           cfg.drain_cycles)
    net.run_segment(traffic, progress, max_cycles=150 if quick else 600)
    n = reps(quick, 5)
    snaps: list = []
    snap_s = timed(lambda: snaps.append(net.snapshot()), n)
    restore_s = timed(lambda: Network.restore(snaps[0]), n)

    plain = parallel.execute_point(point)
    spec = CheckpointSpec(directory=str(tmp / "probe-ckpt"), interval=200)
    checkpointed = parallel.execute_point(replace(point, checkpoint=spec))
    tally.record(1, result_mismatches("checkpointed point", plain[0],
                                      checkpointed[0]))
    shutil.rmtree(spec.directory, ignore_errors=True)
    return {
        "checkpoint.snapshot_ms": scaled(summarize(snap_s), 1e3),
        "checkpoint.restore_ms": scaled(summarize(restore_s), 1e3),
        "checkpoint.blob_kb": exact(len(snaps[0].blob) / 1024.0),
        "checkpoint.on_overhead_frac": exact(
            checkpointed[0].wall_clock_s / plain[0].wall_clock_s - 1.0),
    }
