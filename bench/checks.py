"""Correctness checks the benchmark applies to the program's outputs.

Each check returns the list of problems it found (empty = passed); a
:class:`Tally` turns problems into the ``attempted`` / ``failed`` counts
of the result line.  Nothing here is pinned to a digest, so a deliberate
model change needs no benchmark edit - the checks compare the program
with itself (kernel vs kernel, round vs round, cold vs warm).
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

_FIG_FOOTER = re.compile(
    r"^\[(?P<name>[\w-]+) took (?P<wall>[\d.]+)s; cache: (?P<hits>\d+) hits, "
    r"(?P<misses>\d+) misses")
_TOTAL_FOOTER = re.compile(
    r"^\[run-all took (?P<wall>[\d.]+)s with jobs=(?P<jobs>\d+); cache: "
    r"(?P<hits>\d+) hits, (?P<misses>\d+) misses"
    r"(?:, (?P<quarantined>\d+) quarantined)?"
    r"(?:; simulated (?P<cycles>[\d,]+) cycles)?")
_FAILED_NOTE = re.compile(r"^\[run-all took note: (?P<n>\d+) design points "
                          r"failed")


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def record(self, operations: int, problems: Sequence[str]) -> None:
        """Count ``operations``; any problem fails all of them (a failed
        check on a batch cannot be pinned on one of its members)."""
        self.attempted += operations
        if problems:
            self.failed += operations
            self.failures.extend(problems)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


# ---------------------------------------------------------------------------
# kernel runs
# ---------------------------------------------------------------------------
def result_mismatches(label: str, reference, other) -> List[str]:
    """Fields in which two ``RunResult``s differ (host-timing fields are
    ``compare=False`` in the program and skipped here too)."""
    problems = []
    for f in dataclasses.fields(reference):
        if f.compare and getattr(reference, f.name) != getattr(other, f.name):
            problems.append(f"{label}: RunResult.{f.name} differs")
    return problems


def conservation_problems(label: str, result,
                          outstanding_flits: int) -> List[str]:
    """On a drained network every packet created inside the measurement
    window was delivered (and measured) or recorded as failed."""
    if outstanding_flits:
        return []  # cut off by the drain limit: nothing to assert
    settled = result.packets_measured + result.packets_failed
    if result.packets_created != settled:
        return [f"{label}: {result.packets_created} packets created but "
                f"{settled} delivered or failed"]
    return []


# ---------------------------------------------------------------------------
# CLI output
# ---------------------------------------------------------------------------
def strip_timing(stdout: str) -> str:
    """Drop the host-timing lines (the filter CI's byte-diffs use)."""
    return "\n".join(line for line in stdout.splitlines()
                     if " took " not in line)


def stdout_mismatches(label: str, reference: str, other: str) -> List[str]:
    """Cold and warm reports must agree byte for byte once the timing
    lines are gone: a cached result must print what a fresh one did."""
    a, b = strip_timing(reference).splitlines(), strip_timing(other).splitlines()
    if a == b:
        return []
    for n, (x, y) in enumerate(zip(a, b), 1):
        if x != y:
            return [f"{label}: report line {n} differs: {x!r} != {y!r}"]
    return [f"{label}: reports differ in length ({len(a)} vs {len(b)} lines)"]


@dataclass
class Footers:
    """What the ``run-all`` footers say about one invocation."""

    experiments: Dict[str, Dict[str, float]]
    wall_s: float
    jobs: int
    hits: int
    misses: int
    quarantined: int
    sim_cycles: int
    failed_points: int

    @property
    def points(self) -> int:
        return self.hits + self.misses


def parse_footers(stdout: str) -> Optional[Footers]:
    """The per-experiment and total footers, or None without a total."""
    experiments: Dict[str, Dict[str, float]] = {}
    total = None
    failed_points = 0
    for line in stdout.splitlines():
        m = _TOTAL_FOOTER.match(line)
        if m:
            total = m
            continue
        m = _FAILED_NOTE.match(line)
        if m:
            failed_points = int(m["n"])
            continue
        m = _FIG_FOOTER.match(line)
        if m:
            experiments[m["name"]] = {"wall_s": float(m["wall"]),
                                      "hits": int(m["hits"]),
                                      "misses": int(m["misses"])}
    if total is None:
        return None
    return Footers(
        experiments=experiments, wall_s=float(total["wall"]),
        jobs=int(total["jobs"]), hits=int(total["hits"]),
        misses=int(total["misses"]),
        quarantined=int(total["quarantined"] or 0),
        sim_cycles=int((total["cycles"] or "0").replace(",", "")),
        failed_points=failed_points)


def footer_problems(label: str, footers: Optional[Footers], *,
                    expect_names: Sequence[str],
                    expect_misses: Optional[int] = None) -> List[str]:
    """The footer arithmetic: every expected experiment reported, their
    hits and misses add up to the total, nothing quarantined or failed,
    and (warm runs) exactly ``expect_misses`` points executed."""
    if footers is None:
        return [f"{label}: no run-all footer in the output"]
    problems = []
    missing = [n for n in expect_names if n not in footers.experiments]
    if missing:
        problems.append(f"{label}: no footer for {', '.join(missing)}")
    hits = sum(e["hits"] for e in footers.experiments.values())
    misses = sum(e["misses"] for e in footers.experiments.values())
    if (hits, misses) != (footers.hits, footers.misses):
        problems.append(
            f"{label}: per-experiment footers sum to {hits} hits, {misses} "
            f"misses but the total says {footers.hits}, {footers.misses}")
    if footers.points == 0:
        problems.append(f"{label}: no design points settled")
    if footers.quarantined:
        problems.append(f"{label}: {footers.quarantined} cache entries "
                        f"quarantined")
    if footers.failed_points:
        problems.append(f"{label}: {footers.failed_points} design points "
                        f"failed")
    if expect_misses is not None and footers.misses != expect_misses:
        problems.append(f"{label}: {footers.misses} design points executed, "
                        f"expected {expect_misses}")
    return problems
