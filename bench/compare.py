#!/usr/bin/env python3
"""Compare two records written by ``bench/run.py``.

    python3 bench/compare.py A.json B.json      # A is the base

One row per (workload, end-to-end metric): both medians with their
quartiles, the ratio B/A, the bound from ``BENCHMARK.json`` and a
verdict:

* ``ok`` - B's median is no worse than A's by more than the bound;
* ``regressed`` - it is;
* ``unresolved`` - the spread of either side (q3 - q1 over the median)
  is wider than the bound and the two interquartile ranges overlap, so
  the runs cannot tell.  Lengthen the run; do not read it as unchanged.

Simulated counts (``deterministic`` in the record, and the active-set
occupancies of a traced record) must be exactly equal between two runs
of one seed: a change that only speeds the simulator up may not move
them.  Exit code 1 on any ``regressed`` row, any unequal count, or a
rise in the failed fraction; 2 when the records cannot be compared.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from harness import ROOT


def verdict(a: Dict[str, float], b: Dict[str, float], better: str,
            bound: float) -> Tuple[str, float]:
    """(verdict, fraction by which B is worse than A)."""
    worse = (b["value"] - a["value"]) / a["value"]
    if better == "higher":
        worse = -worse
    spread = max((m["q3"] - m["q1"]) / m["value"] for m in (a, b))
    overlap = a["q1"] <= b["q3"] and b["q1"] <= a["q3"]
    if spread > bound and overlap:
        return "unresolved", worse
    return ("regressed" if worse > bound else "ok"), worse


def compare(a: dict, b: dict, spec: dict) -> Tuple[List[str], bool]:
    """Report lines and whether B is acceptable against A."""
    lines, good = [], True
    same_seed = a["meta"]["seed"] == b["meta"]["seed"]
    lines.append(f"{'workload':18s} {'metric':18s} {'A median [q1, q3]':>36s} "
                 f"{'B median [q1, q3]':>36s} {'B/A':>7s} {'bound':>6s}  "
                 f"verdict")
    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is None:
            lines.append(f"{workload}: missing from B")
            good = False
            continue
        for entry in spec["end_to_end"]:
            name = entry["name"]
            if name not in wa["metrics"] or name not in wb["metrics"]:
                continue  # a traced record carries no end-to-end metric
            ma, mb = wa["metrics"][name], wb["metrics"][name]
            what, worse = verdict(ma, mb, entry["better"], entry["bound"])
            good = good and what != "regressed"
            sign = "+" if entry["better"] == "lower" else "-"
            bound = f"{sign}{entry['bound']:.0%}"
            detail = f" ({worse:+.1%} worse)" if what == "regressed" else ""
            lines.append(
                f"{workload:18s} {name:18s} "
                f"{_cell(ma):>36s} {_cell(mb):>36s} "
                f"{mb['value'] / ma['value']:7.3f} {bound:>6s}  "
                f"{what}{detail}")
        fa = wa["failed"] / wa["attempted"]
        fb = wb["failed"] / wb["attempted"]
        if fb > fa:
            lines.append(f"{workload}: failed_frac rose from {wa['failed']}/"
                         f"{wa['attempted']} to {wb['failed']}/"
                         f"{wb['attempted']}")
            good = False
        if not same_seed:
            continue
        counts_a = dict(wa["deterministic"])
        counts_b = dict(wb["deterministic"])
        for side, w in ((counts_a, wa), (counts_b, wb)):
            side.update({k: m["value"] for k, m in w["metrics"].items()
                         if k.startswith("noc.occupancy.")})
        for key in sorted(set(counts_a) | set(counts_b)):
            if counts_a.get(key) != counts_b.get(key):
                lines.append(f"{workload}: {key} differs: "
                             f"{counts_a.get(key)} != {counts_b.get(key)} "
                             f"(simulated, must repeat exactly)")
                good = False
    if same_seed:
        lines.append("simulated counts: compared exactly (same seed)")
    else:
        lines.append("simulated counts: not compared (different seeds)")
    return lines, good


def _cell(m: Dict[str, float]) -> str:
    return (f"{m['value']:.5g} [{m['q1']:.5g}, {m['q3']:.5g}] "
            f"n={m['n']}")


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if a.get("quick") or b.get("quick"):
        sys.stderr.write("compare: a --quick record is test-only and is "
                         "never compared\n")
        return 2
    if a["trace"] != b["trace"] or a["seconds"] != b["seconds"]:
        sys.stderr.write("compare: records differ in --trace or --seconds\n")
        return 2
    lines, good = compare(a, b, spec)
    print("\n".join(lines))
    print("verdict: " + ("ok" if good else "NOT ok"))
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
