"""Activity tracking for the quiescence-aware cycle kernel.

``Network.step()`` exploits the sparsity the paper is built on (routers
sit idle 30-70% of the time, Section 3.2): each phase visits only the
components that can make progress this cycle, tracked in
:class:`ActiveSet`\\ s that are updated on event edges (flit arrival,
credit return, traffic injection, power-state change) instead of being
recomputed by scanning every component every cycle.

The contract is *exact equivalence*: a component outside its active set
must be provably a no-op for that phase, so a run with the skip layer
enabled is byte-identical to one with it disabled (``REPRO_NO_SKIP=1``
or ``Network(cfg, skip_inactive=False)`` - asserted by
``tests/test_step_kernel.py`` and the CI smoke-diff job).  "Disabled"
is not a second set of scans: each phase has one body, over these sets,
and dense mode puts every component into its set at the top of every
cycle.

This module also carries the ``--profile`` instrumentation: per-phase
wall-clock accounting plus active-set occupancy counters, aggregated
process-wide and reported in the ``run-all`` footer.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: The six instrumented phases of ``Network.step()`` (traffic arrival,
#: the seventh, happens outside ``step()`` in the run driver).
PHASES = ("credit", "ni", "router", "link", "pg", "stats")


class ActiveSet(set):
    """A set of component keys (ints or tuples) with ordered iteration.

    ``sorted()`` yields members in ascending key order - the order a
    scan over every component would take - so skipping performs the
    surviving work in the *same relative order* as dense mode and
    byte-identity does not rest on commutativity arguments.  Plain
    iteration is unordered: only for order-insensitive work.
    """

    __slots__ = ()

    def sorted(self) -> list:
        """Snapshot of the members in ascending order (safe to mutate the
        set while iterating the snapshot)."""
        if len(self) < 2:
            return list(self)
        return sorted(self)


class KernelProfile:
    """Per-phase timing and active-set occupancy of the cycle kernel.

    ``note_phase`` is called once per phase per cycle when profiling is
    enabled; ``summary()`` renders the aggregate for the run-all footer.
    With ``--jobs N`` only in-process simulations are captured (spawned
    workers keep their own, unreported, aggregates).
    """

    __slots__ = ("cycles", "seconds", "active", "capacity")

    def __init__(self) -> None:
        self.cycles = 0
        self.seconds: Dict[str, float] = {p: 0.0 for p in PHASES}
        #: Summed active-set sizes per phase (one sample per cycle).
        self.active: Dict[str, int] = {p: 0 for p in PHASES}
        #: Summed full-scan sizes per phase (the denominator).
        self.capacity: Dict[str, int] = {p: 0 for p in PHASES}

    def clear(self) -> None:
        self.cycles = 0
        for p in PHASES:
            self.seconds[p] = 0.0
            self.active[p] = 0
            self.capacity[p] = 0

    def note_phase(self, name: str, seconds: float, active: int,
                   capacity: int) -> None:
        self.seconds[name] += seconds
        self.active[name] += active
        self.capacity[name] += capacity

    def rows(self) -> List[Tuple[str, float, float]]:
        """(phase, total seconds, mean occupancy fraction) per phase."""
        out = []
        for p in PHASES:
            cap = self.capacity[p]
            occ = self.active[p] / cap if cap else 0.0
            out.append((p, self.seconds[p], occ))
        return out

    def summary(self) -> str:
        if self.cycles == 0:
            return ("[kernel profile: no simulated cycles in this process "
                    "(all design points cached or run in workers)]")
        total = sum(self.seconds.values())
        lines = [f"[kernel profile over {self.cycles} cycles, "
                 f"{total:.2f}s in step phases:"]
        for phase, secs, occ in self.rows():
            lines.append(f"  {phase:7s} {secs:8.2f}s  "
                         f"active {occ * 100:5.1f}%  "
                         f"(occupancy {occ:.4f})")
        lines.append("]")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# process-wide profiling switch (driven by the --profile CLI flag)
# ---------------------------------------------------------------------------
_ENABLED = False
_GLOBAL = KernelProfile()


def enable_profiling(on: bool = True) -> None:
    """Turn kernel profiling on/off for Networks built afterwards."""
    global _ENABLED
    _ENABLED = on


def profiling_enabled() -> bool:
    return _ENABLED


def global_profile() -> KernelProfile:
    """The process-wide aggregate every profiled Network adds into."""
    return _GLOBAL


def reset_profile() -> None:
    _GLOBAL.clear()
