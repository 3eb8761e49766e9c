"""Perf-regression benchmark ledger for the cycle kernel.

``python -m repro.metrics.bench`` runs a pinned matrix of design points
(4 designs x uniform/tornado x 4x4/8x8), measures simulated-cycles/sec
and peak RSS for each, and writes ``BENCH_<host>.json`` at the repo
root with per-point medians-of-N.  ``--check --against OLD.json``
compares throughput point-by-point and exits non-zero when any pinned
point regressed by more than the threshold (default 15%); check a
second run against a fresh baseline from the same host, cross-host
comparisons are noise.

Points run the real :class:`~repro.noc.network.Network` directly (no
result cache, no metrics attached) on the kernel an untagged run gets,
so the number is that kernel's own throughput.  Peak RSS comes from
``getrusage`` and is process-monotone (a high-water mark), so it is
recorded per point but reported as informational only - the regression
gate is on cycles/sec.

Superseded by the repository benchmark (``python3 bench/run.py`` /
``bench/compare.py``, see ``bench/README.md``), which measures the same
kernel end to end with a host-speed normalisation this ledger lacks.
The committed ``BENCH_vm.json`` predates the kernel merge (it was
recorded on the reference kernel) and is not re-recorded.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from ..config import Design, small_config
from ..noc.network import Network
from ..experiments.parallel import TrafficSpec

SCHEMA = 1

#: Throughput regression gate (fractional slowdown vs the baseline).
DEFAULT_THRESHOLD = 0.15

#: The pinned matrix: every (design, traffic, mesh) tuple gets a ledger
#: key ``"{design}/{traffic}/{w}x{h}"``.  Changing this set invalidates
#: ledger comparability - treat it as part of the schema.
DESIGNS = (Design.NO_PG, Design.CONV_PG, Design.CONV_PG_OPT, Design.NORD)
TRAFFICS = ("uniform", "tornado")
MESHES = ((4, 4), (8, 8))
PINNED_RATE = 0.05

#: Per-run cycle counts (warmup, measure, drain).  Fixed so cycles/sec
#: is comparable across ledgers; ``--quick`` shrinks them for CI.
FULL_CYCLES = (200, 1500, 800)
QUICK_CYCLES = (50, 300, 150)


def matrix_keys() -> List[str]:
    return [f"{d}/{t}/{w}x{h}" for d in DESIGNS for t in TRAFFICS
            for (w, h) in MESHES]


def normalize_host(name: Optional[str] = None) -> str:
    """Hostname -> a stable, filename-safe ledger suffix."""
    raw = (name if name is not None else platform.node()) or "unknown"
    norm = re.sub(r"[^a-z0-9]+", "-", raw.lower()).strip("-")
    return norm or "unknown"


def ledger_path(root=".", host: Optional[str] = None) -> Path:
    """Per-host ledger file."""
    return Path(root) / f"BENCH_{normalize_host(host)}.json"


def _peak_rss_kb() -> int:
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def measure_point(design: str, traffic: str, width: int, height: int,
                  cycles: Tuple[int, int, int] = FULL_CYCLES
                  ) -> Tuple[float, int]:
    """One timed run -> (simulated cycles/sec, peak RSS in KB)."""
    warmup, measure, drain = cycles
    cfg = replace(small_config(design, width=width, height=height,
                               warmup=warmup, measure=measure),
                  drain_cycles=drain)
    net = Network(cfg)
    gen = TrafficSpec(kind=traffic, rate=PINNED_RATE).build(net.mesh)
    t0 = time.perf_counter()
    net.run(gen)
    elapsed = time.perf_counter() - t0
    cps = net.now / elapsed if elapsed > 0 else 0.0
    return cps, _peak_rss_kb()


def run_matrix(repeats: int = 5, quick: bool = False,
               only: Optional[Iterable[str]] = None,
               echo=print) -> Dict[str, object]:
    """Run the pinned matrix and return the ledger dict."""
    cycles = QUICK_CYCLES if quick else FULL_CYCLES
    wanted = set(only) if only else None
    points: Dict[str, dict] = {}
    for design in DESIGNS:
        for traffic in TRAFFICS:
            for (w, h) in MESHES:
                key = f"{design}/{traffic}/{w}x{h}"
                if wanted is not None and key not in wanted:
                    continue
                samples, rss = [], 0
                for _ in range(max(1, repeats)):
                    cps, peak = measure_point(design, traffic, w, h,
                                              cycles=cycles)
                    samples.append(round(cps, 1))
                    rss = max(rss, peak)
                median = statistics.median(samples)
                points[key] = {"cycles_per_sec": median,
                               "peak_rss_kb": rss,
                               "samples": samples}
                echo(f"[bench] {key}: {median:,.0f} cyc/s "
                     f"(n={len(samples)}, rss {rss} KB)")
    return {"schema": SCHEMA, "host": normalize_host(),
            "python": platform.python_version(),
            "repeats": max(1, repeats), "quick": quick,
            "cycles": list(cycles), "points": points}


def compare(current: Dict[str, object], baseline: Dict[str, object],
            threshold: float = DEFAULT_THRESHOLD
            ) -> Tuple[List[str], List[str]]:
    """Compare ledgers -> (failures, notes).

    A point fails when its current throughput falls more than
    ``threshold`` below the baseline, or when a baselined point is
    missing from the current run.  Speedups and RSS changes are notes.
    """
    failures: List[str] = []
    notes: List[str] = []
    base_points = baseline.get("points", {})
    cur_points = current.get("points", {})
    for key, base in sorted(base_points.items()):
        cur = cur_points.get(key)
        if cur is None:
            failures.append(f"{key}: missing from current ledger")
            continue
        base_cps = float(base["cycles_per_sec"])
        cur_cps = float(cur["cycles_per_sec"])
        if base_cps <= 0:
            continue
        delta = (cur_cps - base_cps) / base_cps
        if delta < -threshold:
            failures.append(
                f"{key}: {cur_cps:,.0f} cyc/s is {-delta:.1%} below "
                f"baseline {base_cps:,.0f} (gate {threshold:.0%})")
        elif abs(delta) > threshold:
            notes.append(f"{key}: {delta:+.1%} cyc/s vs baseline")
        base_rss = int(base.get("peak_rss_kb", 0))
        cur_rss = int(cur.get("peak_rss_kb", 0))
        if base_rss and cur_rss > base_rss * 1.5:
            notes.append(f"{key}: peak RSS {cur_rss} KB vs baseline "
                         f"{base_rss} KB (informational)")
    return failures, notes


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.metrics.bench",
        description="run the pinned perf matrix and maintain the "
                    "BENCH_<host>.json regression ledger")
    parser.add_argument("--repeats", type=int, default=5, metavar="N",
                        help="timed runs per point; the ledger records "
                             "the median (default: 5)")
    parser.add_argument("--quick", action="store_true",
                        help="shrink per-run cycle counts and default "
                             "repeats to 3 (CI mode)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="ledger output path (default: "
                             "./BENCH_<host>.json)")
    parser.add_argument("--against", default=None, metavar="PATH",
                        help="baseline ledger to compare with (default "
                             "with --check: the output path's previous "
                             "contents)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if any pinned point regressed "
                             "past the threshold")
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_THRESHOLD, metavar="F",
                        help="fractional regression gate "
                             f"(default: {DEFAULT_THRESHOLD})")
    parser.add_argument("--only", action="append", metavar="KEY",
                        help="restrict to matrix key(s) like "
                             "NoRD/uniform/4x4 (repeatable)")
    args = parser.parse_args(argv)
    if args.only:
        known = set(matrix_keys())
        for key in args.only:
            if key not in known:
                parser.error(f"unknown matrix key {key!r}; choose from "
                             + ", ".join(sorted(known)))
    repeats = args.repeats if args.repeats != 5 or not args.quick \
        else 3
    out = Path(args.out) if args.out else ledger_path()
    baseline = None
    baseline_path = Path(args.against) if args.against else out
    if (args.check or args.against) and baseline_path.is_file():
        baseline = json.loads(baseline_path.read_text())
    elif args.check:
        print(f"[bench] no baseline at {baseline_path}; writing a "
              f"fresh ledger instead of checking")
    ledger = run_matrix(repeats=repeats, quick=args.quick,
                        only=args.only)
    out.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
    print(f"[bench] ledger written to {out}")
    if baseline is None:
        return 0
    if args.only:
        # A restricted run only vouches for the points it measured.
        baseline = dict(baseline)
        baseline["points"] = {k: v
                              for k, v in baseline["points"].items()
                              if k in set(args.only)}
    failures, notes = compare(ledger, baseline,
                              threshold=args.threshold)
    for note in notes:
        print(f"[bench] note: {note}")
    for failure in failures:
        print(f"[bench] REGRESSION: {failure}")
    if failures and args.check:
        return 1
    if not failures:
        print(f"[bench] ok: no point regressed more than "
              f"{args.threshold:.0%} vs {baseline_path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
