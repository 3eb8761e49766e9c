"""Chaos harness: prove sweeps survive SIGKILL (ISSUE 8 acceptance).

Two scenarios, both byte-diffed against an uninterrupted serial run of
the same design points:

* **worker-kill** - a supervised pool is running the sweep; the harness
  SIGKILLs a worker right after it leases a point.  The supervisor must
  re-enqueue only the lost point and the final outcomes must be
  byte-identical to the serial baseline.
* **parent-kill** - the sweep runs in a child process (journal +
  checkpoints on); once the journal shows progress the harness SIGKILLs
  the child's whole process group, then re-runs it with ``--resume``.
  The resumed sweep must produce byte-identical results, and the
  journal must show that *only* the points without ``done`` records
  re-ran.

Run as ``python -m repro.experiments.chaos`` (the ``chaos-resume`` CI
job does).  Exit code 0 = both scenarios green.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..config import Design, NoCConfig, SimConfig
from .journal import encode_outcome, executed_keys, load_journal
from .parallel import (DesignPoint, ResultCache, SweepRunner, tornado_spec,
                       uniform_spec)

#: Sized so a 2-worker sweep takes several seconds: long enough to kill
#: mid-flight deterministically, short enough for CI.
WARMUP, MEASURE, DRAIN = 200, 2_500, 3_000


def chaos_points() -> List[DesignPoint]:
    def mk(design: str, rate: float, spec=uniform_spec) -> DesignPoint:
        cfg = SimConfig(design=design, noc=NoCConfig(width=4, height=4),
                        warmup_cycles=WARMUP, measure_cycles=MEASURE,
                        drain_cycles=DRAIN)
        return DesignPoint(cfg=cfg, traffic=spec(rate))

    return [
        mk(Design.NORD, 0.10), mk(Design.NO_PG, 0.10),
        mk(Design.CONV_PG, 0.10), mk(Design.CONV_PG_OPT, 0.10),
        mk(Design.NORD, 0.12, tornado_spec), mk(Design.NO_PG, 0.12,
                                                tornado_spec),
    ]


def canonical_results(outcomes) -> str:
    """Byte-stable JSON rendering of a sweep's outcomes."""
    payload = [None if outcome is None else encode_outcome(outcome)
               for outcome in outcomes]
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def serial_baseline(workdir: Path) -> str:
    runner = SweepRunner(jobs=1, use_cache=False)
    return canonical_results(runner.run(chaos_points()))


# ---------------------------------------------------------------------------
# scenario 1: SIGKILL a worker mid-sweep
# ---------------------------------------------------------------------------
def scenario_worker_kill(workdir: Path, baseline: str) -> Optional[str]:
    """Returns None on success, else a failure description."""
    from .supervisor import PoolSupervisor

    killed: Dict[str, int] = {}

    def on_event(record: Dict) -> None:
        # SIGKILL the worker that takes the second lease - a point is
        # then in flight on a worker that abruptly dies.
        if record["ev"] == "leased" and not killed \
                and record["index"] >= 1:
            killed["pid"] = record["pid"]
            os.kill(record["pid"], signal.SIGKILL)

    with PoolSupervisor(2, None, on_event=on_event) as supervisor:
        tagged = supervisor.run(chaos_points())
    if not killed:
        return "worker-kill: chaos hook never fired"
    if supervisor.workers_lost < 1:
        return "worker-kill: supervisor never noticed the dead worker"
    requeued = [e for e in supervisor.events if e["ev"] == "requeued"]
    if not requeued:
        return "worker-kill: lost lease was not re-enqueued"
    bad = [tag for tag in tagged if tag[0] != "ok"]
    if bad:
        return f"worker-kill: {len(bad)} point(s) failed: {bad[0][:2]}"
    got = canonical_results([tag[1] for tag in tagged])
    if got != baseline:
        return "worker-kill: results differ from the serial baseline"
    return None


# ---------------------------------------------------------------------------
# scenario 2: SIGKILL the parent mid-sweep, then --resume
# ---------------------------------------------------------------------------
def _child_cmd(workdir: Path, resume: bool) -> List[str]:
    cmd = [sys.executable, "-m", "repro.experiments.chaos", "--child",
           "--workdir", str(workdir)]
    if resume:
        cmd.append("--resume")
    return cmd


def run_child(workdir: Path, *, resume: bool) -> None:
    """Execute the sweep (child mode): journal + checkpoints on."""
    from ..checkpoint import CheckpointSpec
    with SweepRunner(
        jobs=2,
        use_cache=True,
        cache=ResultCache(workdir / "cache"),
        journal_path=workdir / "sweep.journal.jsonl",
        resume=resume,
        checkpoint=CheckpointSpec(directory=str(workdir / "ckpt"),
                                  interval=500),
    ) as runner:
        outcomes = runner.run(chaos_points())
    (workdir / "results.json").write_text(canonical_results(outcomes))


def scenario_parent_kill(workdir: Path, baseline: str) -> Optional[str]:
    journal = workdir / "sweep.journal.jsonl"
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[2]
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    child = subprocess.Popen(_child_cmd(workdir, resume=False), env=env,
                             start_new_session=True,
                             stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + 180
    try:
        while time.monotonic() < deadline:
            done = sum(1 for r in load_journal(journal)
                       if r.get("ev") == "done")
            if done >= 2:
                break
            if child.poll() is not None:
                return ("parent-kill: sweep finished before the kill "
                        "landed - enlarge the chaos points")
            time.sleep(0.05)
        else:
            return "parent-kill: journal never showed progress"
        # SIGKILL the whole group: the parent AND its workers die with
        # no chance to flush anything beyond what is already fsynced.
        os.killpg(child.pid, signal.SIGKILL)
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except (OSError, ProcessLookupError):
            pass
        child.wait()

    pre_records = load_journal(journal)
    done_before = {r["key"] for r in pre_records if r.get("ev") == "done"}
    all_keys = {p.cache_key() for p in chaos_points()}
    if not done_before or done_before == all_keys:
        return "parent-kill: kill did not land mid-sweep"

    resumed = subprocess.run(_child_cmd(workdir, resume=True), env=env,
                             stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL, timeout=600)
    if resumed.returncode != 0:
        return f"parent-kill: resume exited {resumed.returncode}"

    got = (workdir / "results.json").read_text()
    if got != baseline:
        return "parent-kill: resumed results differ from the baseline"

    # Only the lost points may have re-run: the resumed section of the
    # journal starts at its own "sweep" header.
    records = load_journal(journal)
    sweep_starts = [i for i, r in enumerate(records)
                    if r.get("ev") == "sweep"]
    post = records[sweep_starts[-1]:]
    reran = set(executed_keys(post))
    if reran & done_before:
        return ("parent-kill: resume re-ran "
                f"{len(reran & done_before)} already-completed point(s)")
    missing = (all_keys - done_before) - reran
    for key in missing:
        # A kill between a point's cache write and its journal fsync
        # leaves it cached-but-not-journaled; the resume legitimately
        # serves it from the cache instead of re-running.
        if not (workdir / "cache" / f"{key}.json").exists():
            return ("parent-kill: resume skipped "
                    f"{len(missing)} lost point(s)")
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", type=Path, default=None,
                        help="scratch directory (default: a fresh tempdir)")
    parser.add_argument("--child", action="store_true",
                        help="internal: run the sweep as the victim child")
    parser.add_argument("--resume", action="store_true",
                        help="internal: child resumes from its journal")
    args = parser.parse_args(argv)

    if args.child:
        if args.workdir is None:
            print("--child requires --workdir", file=sys.stderr)
            return 2
        run_child(args.workdir, resume=args.resume)
        return 0

    workdir = args.workdir
    if workdir is None:
        workdir = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    workdir.mkdir(parents=True, exist_ok=True)
    print(f"chaos workdir: {workdir}")

    print("computing serial baseline ...")
    baseline = serial_baseline(workdir)

    print("scenario 1: SIGKILL a worker mid-sweep ...")
    failure = scenario_worker_kill(workdir, baseline)
    if failure:
        print(f"FAIL: {failure}")
        return 1
    print("  ok: lost point re-enqueued, results byte-identical")

    print("scenario 2: SIGKILL the parent mid-sweep, then --resume ...")
    failure = scenario_parent_kill(workdir, baseline)
    if failure:
        print(f"FAIL: {failure}")
        return 1
    print("  ok: resumed results byte-identical; only lost points re-ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
