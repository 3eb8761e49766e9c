"""Golden-trace regression harness.

Sixteen pinned scenarios - every design (``No_PG``, ``Conv_PG``,
``Conv_PG_OPT``, ``NoRD``) crossed with uniform, tornado, transpose and
hotspot traffic on the 4x4 mesh - each produce a deterministic
event-stream digest
(per-kind counts + a SHA-256 over the canonical, pid-normalized event
stream).  The digests are committed under ``tests/goldens/`` and diffed
in CI: *any* behavioural drift in the pipeline, the bypass datapath or
the power-gate FSM changes at least one digest, turning silent timing
regressions into loud, reviewable diffs.

Usage::

    python -m repro.trace.golden --check            # diff against fixtures
    python -m repro.trace.golden --check --jobs 4   # same digests, parallel
    python -m repro.trace.golden --update           # regenerate fixtures

(or ``pytest tests/test_goldens.py [--update-goldens]``).

Digest stability across ``--jobs`` settings is by construction: packet
ids are normalized at export time, and every scenario is an independent
seeded design point, so worker scheduling cannot reorder a scenario's
event stream.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

from ..config import Design, small_config
from ..experiments.parallel import DesignPoint, SweepRunner, TrafficSpec
from .recorder import TraceSpec

#: Where fixtures live (``tests/goldens/`` at the repo root).
GOLDEN_DIR = Path(__file__).resolve().parents[3] / "tests" / "goldens"

#: Scenario pinning: change any of these and every fixture must be
#: regenerated with ``--update``.
RATE = 0.1
SEED = 3
WARMUP = 100
MEASURE = 600
TRAFFICS = ("uniform", "tornado", "transpose", "hotspot")

#: Fields compared between a fresh digest and its fixture.
_COMPARED = ("events", "recorded", "dropped", "counts", "sha256")


def scenario_name(design: str, kind: str) -> str:
    return f"{design.lower()}_{kind}"


def scenarios() -> List[Tuple[str, str, str]]:
    """``(name, design, traffic kind)`` for all pinned scenarios."""
    return [(scenario_name(design, kind), design, kind)
            for design in Design.ALL for kind in TRAFFICS]


def build_points(directory: Path) -> List[Tuple[str, DesignPoint]]:
    """The named design points, traced into ``directory``."""
    out = []
    for name, design, kind in scenarios():
        cfg = small_config(design, warmup=WARMUP, measure=MEASURE)
        traffic = TrafficSpec(kind=kind, rate=RATE, seed=SEED)
        trace = TraceSpec(directory=str(directory), basename=name)
        out.append((name, DesignPoint(cfg=cfg, traffic=traffic,
                                      trace=trace)))
    return out


def compute_digests(jobs: int = 1) -> Dict[str, Dict[str, object]]:
    """Run all scenarios and return ``name -> digest``."""
    with tempfile.TemporaryDirectory(prefix="repro-goldens-") as tmp:
        named = build_points(Path(tmp))
        with SweepRunner(jobs=jobs, use_cache=False) as runner:
            runner.run([point for _, point in named])
        digests = {}
        for name, _ in named:
            path = Path(tmp) / f"{name}.digest.json"
            digests[name] = json.loads(path.read_text())
        return digests


def fixture_path(name: str, directory: Path = GOLDEN_DIR) -> Path:
    return Path(directory) / f"{name}.json"


def update(jobs: int = 1, directory: Path = GOLDEN_DIR) -> List[str]:
    """Regenerate every fixture; returns the scenario names written."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    digests = compute_digests(jobs=jobs)
    for name, digest in sorted(digests.items()):
        fixture_path(name, directory).write_text(
            json.dumps(digest, sort_keys=True, indent=1) + "\n")
    return sorted(digests)


def check(jobs: int = 1, directory: Path = GOLDEN_DIR) -> List[str]:
    """Diff fresh digests against the fixtures; returns mismatch lines
    (empty = clean)."""
    digests = compute_digests(jobs=jobs)
    problems: List[str] = []
    for name in sorted(digests):
        path = fixture_path(name, directory)
        if not path.is_file():
            problems.append(f"{name}: missing fixture {path} "
                            "(run --update)")
            continue
        want = json.loads(path.read_text())
        got = digests[name]
        for field in _COMPARED:
            if got.get(field) != want.get(field):
                problems.append(
                    f"{name}: {field} changed: fixture "
                    f"{want.get(field)!r} != fresh {got.get(field)!r}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace.golden",
        description="golden-trace digest regression harness")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="recompute digests and diff against fixtures")
    mode.add_argument("--update", action="store_true",
                      help="regenerate the fixtures in place")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (digests are identical "
                             "for any N)")
    parser.add_argument("--dir", default=str(GOLDEN_DIR), metavar="DIR",
                        help="fixture directory (default: tests/goldens)")
    args = parser.parse_args(argv)
    directory = Path(args.dir)
    if args.update:
        names = update(jobs=args.jobs, directory=directory)
        print(f"updated {len(names)} golden digests in {directory}/")
        return 0
    problems = check(jobs=args.jobs, directory=directory)
    if problems:
        print(f"golden-trace check FAILED ({len(problems)} mismatches):")
        for line in problems:
            print(f"  {line}")
        print("If the behaviour change is intentional, regenerate with "
              "`python -m repro.trace.golden --update` and review the "
              "fixture diff.")
        return 1
    print(f"golden-trace check passed ({len(scenarios())} scenarios)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
