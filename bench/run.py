#!/usr/bin/env python3
"""The benchmark's one command.

    python3 bench/run.py                      # all four workloads, untraced
    python3 bench/run.py --trace 1            # ... the per-layer pass
    python3 bench/run.py --workload kernel_busy --seed 3 --seconds 20 --trace 0

With ``--workload`` it runs that workload in this process, prints every
metric by name with its unit, and ends with one JSON result line
(``correct``, ``attempted``, ``failed``, ``metrics``).  Without, it runs
each workload in a subprocess of its own, so peak RSS and the program's
process-global packet-id counter do not leak between workloads.  Either
way the full record - quartiles, sample counts, deterministic counts,
failures, spans, host stamp - is written as JSON (``--json``, default
under ``bench/out/``) for ``bench/compare.py``.  Exit code 1 when any
correctness check failed.

``BENCHMARK.json`` at the checkout root is the metric catalogue: names,
units, directions and bounds are read from it, never repeated here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

import harness


def load_spec() -> dict:
    path = harness.ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        sys.stderr.write(f"bench: cannot read {path}: {exc}\n")
        raise SystemExit(2)


def host_stamp(seed: int) -> Dict[str, object]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=harness.ROOT, text=True,
            capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    nproc = os.cpu_count() or 1
    load = harness.loadavg1()
    if load > nproc:
        sys.stderr.write(f"bench: warning: load average {load:.2f} exceeds "
                         f"{nproc} CPUs; timings will be noisy\n")
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy, "nproc": nproc, "jobs": harness.jobs(),
            "seed": seed, "host.loadavg1": load,
            "time": time.strftime("%Y-%m-%dT%H:%M:%S%z")}


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 quick: bool, spec: dict) -> Dict[str, object]:
    """Run one workload here and shape its record against the catalogue."""
    import kernel
    import runall
    module = kernel if name in kernel.WORKLOADS else runall
    raw = module.run(name, seed, seconds, traced, quick)
    tally = raw["tally"]
    declared = {m["name"]: m for m in
                spec["per_layer" if traced else "end_to_end"]}
    measured = raw["metrics"]
    stray = sorted(set(measured) - set(declared))
    if stray:
        raise RuntimeError(f"metrics not in BENCHMARK.json: {stray}")
    metrics = {}
    for metric, entry in declared.items():
        if metric in measured:
            summary = measured[metric]
        elif traced:
            # A layer this workload does not exercise reads 0.
            summary = {**harness.exact(0.0), "n": 0}
        else:
            tally.failures.append(f"{name}: {metric} was not measured")
            tally.failed = max(tally.failed, 1)
            continue
        metrics[metric] = {**summary, "unit": entry["unit"]}
    return {"correct": tally.correct, "attempted": max(tally.attempted, 1),
            "failed": tally.failed, "failures": tally.failures,
            "metrics": metrics, "deterministic": raw["deterministic"],
            "samples": raw.get("samples", {}), "calib_ms": raw["calib_ms"],
            "spans": raw["spans"]}


def print_record(name: str, record: dict, spec: dict, traced: bool,
                 quick: bool) -> None:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    mode = "traced (per-layer)" if traced else "untraced (end-to-end)"
    test_only = "  [--quick: TEST ONLY, never compare these]" * quick
    print(f"== {name}: {mode}{test_only}")
    print(f"{'metric':44s} {'median':>14s} {'unit':8s} {'q1':>12s} "
          f"{'q3':>12s} {'n':>3s}  bound")
    for metric, m in record["metrics"].items():
        if traced and m["n"] == 0:
            continue  # layer not exercised by this workload
        entry = bounds.get(metric)
        bound = "" if entry is None else (
            f"{'+' if entry['better'] == 'lower' else '-'}"
            f"{entry['bound']:.0%}")
        print(f"{metric:44s} {m['value']:14.6g} {m['unit']:8s} "
              f"{m['q1']:12.6g} {m['q3']:12.6g} {m['n']:3d}  {bound}")
    if not traced:  # the traced pass lists them among its metrics
        for key, value in record["deterministic"].items():
            print(f"{key:44s} {value:14.6g} (simulated, repeats exactly)")
    print(f"failed_frac {record['failed']}/{record['attempted']} operations")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    sys.stdout.flush()


def write_doc(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, default=None,
                        help="run one workload (default: all, each in its "
                             "own subprocess)")
    parser.add_argument("--seed", type=int, default=1,
                        help="feeds TrafficSpec.seed, build_config(seed=) "
                             "and run-all --seed")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="how long one workload measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer pass with the observers on")
    parser.add_argument("--json", type=Path, default=None, metavar="OUT",
                        help="where to write the full record")
    parser.add_argument("--quick", action="store_true",
                        help="test-only: one round, 200-cycle windows, three "
                             "experiments; numbers are not comparable")
    args = parser.parse_args(argv)
    harness.require_program()
    traced = bool(args.trace)
    out = args.json or harness.OUT_DIR / (
        f"{args.workload or 'all'}-seed{args.seed}-trace{args.trace}"
        f"{'-quick' * args.quick}.json")
    doc = {"meta": host_stamp(args.seed), "quick": args.quick,
           "trace": args.trace, "seconds": args.seconds, "workloads": {}}

    if args.workload is not None:
        record = run_workload(args.workload, args.seed, args.seconds, traced,
                              args.quick, spec)
        print_record(args.workload, record, spec, traced, args.quick)
        doc["workloads"][args.workload] = record
        write_doc(out, doc)
        print(json.dumps({
            "correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                        for k, m in record["metrics"].items()}}))
        return 0 if record["correct"] else 1

    ok = True
    with harness.scratch_dir() as tmp:
        for name in names:
            part = tmp / f"{name}.json"
            child = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--trace",
                 str(args.trace), "--json", str(part)]
                + ["--quick"] * args.quick, text=True, stdout=subprocess.PIPE)
            # The child's last line is the machine-readable result; the
            # table above it is what a person wants to see here.
            print("\n".join(child.stdout.splitlines()[:-1]))
            ok = ok and child.returncode == 0 and part.exists()
            if part.exists():
                doc["workloads"].update(
                    json.loads(part.read_text())["workloads"])
    write_doc(out, doc)
    print(f"full record: {out}")
    print("all correctness checks passed" if ok
          else "FAILED: see the FAILED lines above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
