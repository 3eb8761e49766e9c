"""The two run-all workloads: the CLI in a subprocess, timed from outside.

``runall_smoke_cold`` runs ``run-all --scale smoke`` against an empty
result cache: the only workload where the harness does real work (one
spawn pool per sweep, point/outcome pickling, cache writes, tail
imbalance).  ``runall_smoke_warm`` repeats the same command against the
cache a cold run just filled: reads only, zero simulation - interpreter
start, imports, ``fig6``'s placement analysis, key hashing and cache
reads are what is left.  A store redesign that speeds one side at the
other's cost shows in the pair.

Both run every experiment except ``fig15`` (see ``repro_subset.py``).
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import harness
from checks import (Footers, Tally, footer_problems, parse_footers,
                    stdout_mismatches)
from harness import (ChildResult, HostClock, Spans, exact, inverted,
                     summarize)

WORKLOADS = ("runall_smoke_cold", "runall_smoke_warm")

EXPERIMENTS = ("table1", "fig1", "fig3", "fig6", "fig7", "fig8", "fig9",
               "fig10", "fig11", "fig12", "fig13", "fig14", "area",
               "discussion", "bufferless", "resilience")
QUICK_EXPERIMENTS = ("table1", "fig3", "fig6")
#: Experiments that submit design points (or, fig6, do real work): the
#: ones with a per-layer wall metric.
SWEEPS = ("fig3", "fig6", "fig7", "fig8", "fig13", "fig14", "discussion",
          "bufferless", "resilience")

RESUME_LEGS = 3


class Cli:
    """Invocations of the run-all command with their checks."""

    def __init__(self, seed: int, quick: bool, tmp: Path, tally: Tally,
                 spans: Spans) -> None:
        self.seed, self.quick, self.tmp = seed, quick, tmp
        self.tally, self.spans = tally, spans
        self.clock = HostClock()
        self.names = QUICK_EXPERIMENTS if quick else EXPERIMENTS
        #: Footers of the first invocation: the point and simulated-cycle
        #: counts every later invocation of this seed must reproduce.
        self.first: Optional[Footers] = None

    def invoke(self, label: str, cache: Path, *extra: str,
               expect_misses: Optional[int] = None,
               same_report_as: Optional[ChildResult] = None,
               check_footers: bool = True
               ) -> Tuple[ChildResult, Optional[Footers]]:
        child = harness.python_child(
            [str(harness.BENCH_DIR / "repro_subset.py"), ",".join(self.names),
             "run-all", "--scale", "smoke", "--jobs", str(harness.jobs()),
             "--seed", str(self.seed), *extra], cache, self.clock)
        end = time.time()
        self.spans.add("cli.process", end - child.wall_s, end, point=label)
        footers = parse_footers(child.stdout)
        problems = []
        if child.timed_out:
            problems.append(f"{label}: timed out and was killed")
        elif child.returncode != 0:
            problems.append(f"{label}: exit code {child.returncode}: "
                            f"{child.stderr.strip()[-300:]}")
        if check_footers:
            problems += footer_problems(label, footers,
                                        expect_names=self.names,
                                        expect_misses=expect_misses)
        if footers is not None and check_footers:
            if self.first is None:
                self.first = footers
            elif footers.points != self.first.points:
                problems.append(f"{label}: settled {footers.points} design "
                                f"points, first invocation "
                                f"{self.first.points}")
            elif footers.misses and footers.sim_cycles != self.first.sim_cycles:
                problems.append(f"{label}: simulated {footers.sim_cycles} "
                                f"cycles, first invocation "
                                f"{self.first.sim_cycles}")
        if same_report_as is not None:
            problems += stdout_mismatches(label, same_report_as.stdout,
                                          child.stdout)
        settled = next((f.points for f in (self.first, footers)
                        if f is not None and f.points), 1)
        self.tally.record(settled, problems)
        return child, footers

    def setup_samples(self) -> List[float]:
        """The CLI's own set-up cannot be split off from outside, so time
        the cheapest subcommand: interpreter + imports + argument parsing."""
        return harness.setup_samples(["-m", "repro", "list"], self.tmp,
                                     self.clock, self.spans, self.quick)

    def counts(self) -> Dict[str, float]:
        first = self.first
        if first is None:
            return {}
        return {"experiments.points_settled": first.points,
                "experiments.sim_cycles": first.sim_cycles}


def run(workload: str, seed: int, seconds: float, traced: bool,
        quick: bool) -> Dict[str, object]:
    harness.require_program()
    tally, spans = Tally(), Spans()
    with harness.scratch_dir() as tmp, spans.span("bench.workload"):
        cli = Cli(seed, quick, tmp, tally, spans)
        body = {("runall_smoke_cold", False): _cold,
                ("runall_smoke_cold", True): _cold_traced,
                ("runall_smoke_warm", False): _warm,
                ("runall_smoke_warm", True): _warm_traced}[workload, traced]
        metrics = body(cli, seconds)
        if traced and metrics:
            metrics.update({k: exact(v) for k, v in cli.counts().items()})
    return {"metrics": metrics, "deterministic": cli.counts(),
            "tally": tally, "spans": spans.records,
            "calib_ms": cli.clock.samples_ms}


def _end_to_end(setup: List[float], children: List[ChildResult],
                first: Optional[Footers]) -> Dict[str, Dict[str, float]]:
    if first is None or not first.points or not first.sim_cycles:
        return {}
    walls = summarize([c.norm_s for c in children])
    return {
        "setup_s": summarize(setup),
        "wall_s": walls,
        "sim_cycles_per_s": inverted(walls, first.sim_cycles),
        "points_per_s": inverted(walls, first.points),
        "peak_rss_mb": summarize([c.peak_rss_mb for c in children]),
    }


def _cold(cli: Cli, seconds: float):
    with cli.clock.sampling():
        setup = cli.setup_samples()
        children = [cli.invoke(f"cold#{i}", cli.tmp / f"cache-{i}")[0]
                    for i in harness.budget_loop(seconds, cli.quick)]
    return _end_to_end(setup, children, cli.first)


def _warm(cli: Cli, seconds: float):
    cache = cli.tmp / "cache"
    with cli.clock.sampling():
        setup = cli.setup_samples()
        fill, _ = cli.invoke("fill", cache)  # unmeasured
        children = [cli.invoke(f"warm#{i}", cache, expect_misses=0,
                               same_report_as=fill)[0]
                    for i in harness.budget_loop(seconds, cli.quick)]
    return _end_to_end(setup, children, cli.first)


# ---------------------------------------------------------------------------
# traced passes
# ---------------------------------------------------------------------------
def _experiment_walls(footers: List[Footers]) -> Dict[str, Dict[str, float]]:
    out = {}
    for name in SWEEPS:
        walls = [f.experiments[name]["wall_s"] for f in footers
                 if name in f.experiments]
        if walls:
            out[f"experiments.{name}.wall_s"] = summarize(walls)
    return out


def _experiment_spans(spans: Spans, footers: Footers, end: float) -> None:
    """Lay the per-experiment footers out back from the process end."""
    parent = max(r["id"] for r in spans.records if r["name"] == "cli.process")
    cursor = end - footers.wall_s
    for name, exp in footers.experiments.items():
        spans.add(f"experiments.{name}", cursor, cursor + exp["wall_s"],
                  parent=parent)
        cursor += exp["wall_s"]


def journal_metrics(path: Path, wall_s: float, spans: Spans
                    ) -> Dict[str, Dict[str, float]]:
    """Pool spawn, per-point spans, worker idle time and requeues, read
    off the ``ts`` fields of the journal the traced cold run wrote."""
    records = [json.loads(line) for line in path.read_text().splitlines()
               if line.strip()]
    spawn, point_walls, requeues, sweeps = [], [], 0, 0
    idle = window = 0.0
    sweep_start = 0.0
    leased: Dict[str, Tuple[float, int]] = {}
    by_worker: Dict[int, List[Tuple[float, float]]] = {}

    def close_sweep() -> None:
        nonlocal idle, window
        for worker_spans in by_worker.values():
            busy = sum(e - s for s, e in worker_spans)
            span = (max(e for _, e in worker_spans)
                    - min(s for s, _ in worker_spans))
            idle += max(span - busy, 0.0)
            window += span
        by_worker.clear()
        leased.clear()

    experiments = [r for r in spans.records
                   if str(r["name"]).startswith("experiments.")]
    for rec in records:
        ev, ts = rec.get("ev"), rec.get("ts", 0.0)
        if ev == "sweep":
            close_sweep()
            sweeps += 1
            sweep_start = ts
            first_lease = True
        elif ev == "leased":
            if first_lease and rec.get("worker", -1) >= 0:
                spawn.append(ts - sweep_start)
                spans.add("supervisor.pool_spawn", sweep_start, ts,
                          parent=_enclosing(experiments, sweep_start))
            first_lease = False
            leased[rec["key"]] = (ts, rec.get("worker", -1))
        elif ev == "requeued":
            requeues += 1
        elif ev == "done" and rec["key"] in leased:
            start, worker = leased.pop(rec["key"])
            point_walls.append(ts - start)
            by_worker.setdefault(worker, []).append((start, ts))
            spans.add("parallel.point", start, ts, point=rec["key"][:12],
                      parent=_enclosing(experiments, start))
    close_sweep()
    if not point_walls:
        return {}
    deciles = statistics.quantiles(point_walls, n=10) \
        if len(point_walls) >= 2 else point_walls * 9
    return {
        "supervisor.pool_spawn_s": summarize(spawn) if spawn else exact(0.0),
        "supervisor.worker_idle_frac": exact(idle / window if window else 0.0),
        "supervisor.requeues": exact(requeues),
        "supervisor.sweeps": exact(sweeps),
        "parallel.point_wall_p50_s": exact(statistics.median(point_walls)),
        "parallel.point_wall_p90_s": exact(deciles[8]),
        "parallel.overhead_frac": exact(
            1.0 - sum(point_walls) / (harness.jobs() * wall_s)),
    }


def _enclosing(experiments: List[dict], ts: float) -> Optional[int]:
    for rec in experiments:
        if rec["start"] <= ts <= rec["end"]:
            return rec["id"]
    return None


def _cold_traced(cli: Cli, seconds: float):
    harness.enter_program()  # the direct-call probes run in-process
    import layers
    journal = cli.tmp / "cold.journal.jsonl"
    with cli.clock.sampling():
        plain, plain_footers = cli.invoke("cold", cli.tmp / "cache-plain")
        traced, footers = cli.invoke(
            "cold+journal", cli.tmp / "cache-journal", "--journal",
            str(journal), same_report_as=plain)
        end = time.time()
    if plain_footers is None or footers is None or not journal.exists():
        return {}
    metrics = _experiment_walls([plain_footers])
    metrics["experiments.fig14.share"] = exact(
        plain_footers.experiments.get("fig14", {}).get("wall_s", 0.0)
        / plain_footers.wall_s if plain_footers.wall_s else 0.0)
    _experiment_spans(cli.spans, footers, end)
    metrics.update(journal_metrics(journal, traced.wall_s, cli.spans))
    # The journal is the only observer the traced cold run switches on,
    # so this ratio is the tracing overhead of the run-all workloads.
    metrics["journal.overhead_frac"] = exact(traced.norm_s / plain.norm_s
                                             - 1.0)
    metrics.update(layers.write_side_probes(cli.seed, cli.quick, cli.tmp))
    metrics.update(layers.checkpoint_probes(cli.seed, cli.quick, cli.tmp,
                                            cli.tally))
    metrics.update(layers.host_probes(cli.clock, cli.spans))
    return metrics


def _warm_traced(cli: Cli, seconds: float):
    harness.enter_program()  # the direct-call probes run in-process
    import layers
    cache = cli.tmp / "cache"
    journal = cli.tmp / "fill.journal.jsonl"
    resumes = []
    with cli.clock.sampling():
        fill, _ = cli.invoke("fill", cache, "--journal", str(journal))
        warm = [cli.invoke(f"warm#{i}", cache, expect_misses=0,
                           same_report_as=fill)
                for i in range(1 if cli.quick else 5)]
        # The second read path: the same report rebuilt from the
        # journal's embedded results with the cache off.  --resume
        # appends, so every leg works on a fresh copy.
        for i in range(1 if cli.quick else RESUME_LEGS):
            copy = cli.tmp / f"resume-{i}.jsonl"
            shutil.copyfile(journal, copy)
            child, _ = cli.invoke(f"resume#{i}", cli.tmp / "unused-cache",
                                  "--no-cache", "--journal", str(copy),
                                  "--resume", same_report_as=fill,
                                  # resumed points: neither hits nor misses
                                  check_footers=False)
            resumes.append(child.norm_s)
    metrics = _experiment_walls([f for _, f in warm if f is not None])
    metrics["journal.resume_wall_s"] = summarize(resumes)
    metrics.update(layers.read_side_probes(cli.seed, cli.quick, cli.tmp,
                                           journal))
    metrics.update(layers.placement_probe(cli.quick))
    metrics.update(layers.host_probes(cli.clock, cli.spans))
    return metrics
