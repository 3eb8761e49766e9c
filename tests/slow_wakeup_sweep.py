"""Slow-wakeup differential sweep: 160 points, ``ref`` vs ``soa``.

Each point is a gating design on the 4x4 mesh (warmup 40, measure 200)
with one slow-wakeup fault: the node honours WU only after it has been
asserted for more than ``delay`` cycles in a row.  Both kernels run it,
and their outcomes (``RunResult``, or the error a wedged run raised) and
canonical event traces must agree.  A gated-off controller that holds
WU cycles when the soa kernel stops stepping it is the defect this
sweep finds.

80 NoRD points come from ``random.Random(1)``, drawn per point in this
order: traffic kind, rate in U(0.01, 0.3), seed, node 0-15, delay
1-40.  80 conventional points come from ``random.Random(2)``: the
design (Conv_PG or Conv_PG_OPT), then the same draws.  The sweep takes
about 40 s, too long for the tier-1 suite, so the file is named to
stay out of pytest's collection; CI runs it with the kernel-identity
suites::

    PYTHONPATH=src python -m tests.slow_wakeup_sweep

It prints every disagreeing point and exits 1 if there is any.
"""

import random
import sys

from repro.config import Design
from repro.faults import FaultPlan, WakeupFault
from repro.trace.recorder import EventTrace
from tests.test_fast_mode_identity import KINDS, outcome

#: Points per stream (NoRD; the two conventional designs together).
POINTS = 80
CONVENTIONAL = (Design.CONV_PG, Design.CONV_PG_OPT)


def sweep_points(count=POINTS):
    """``(design, kind, rate, seed, node, delay)`` for each point."""
    points = []
    for stream, designs in ((1, None), (2, CONVENTIONAL)):
        rng = random.Random(stream)
        for _ in range(count):
            design = Design.NORD if designs is None else rng.choice(designs)
            kind = rng.choice(KINDS)
            rate = rng.uniform(0.01, 0.3)
            seed = rng.randint(0, 2**16)
            node = rng.randint(0, 15)
            delay = rng.randint(1, 40)
            points.append((design, kind, rate, seed, node, delay))
    return points


def agrees(design, kind, rate, seed, node, delay):
    plan = FaultPlan(wakeup_faults=(
        WakeupFault(node, delay=delay, ignore=False),))
    runs = []
    for backend in ("ref", "soa"):
        trace = EventTrace()
        res = outcome(design, kind, backend, trace, plan, rate=rate,
                      seed=seed, warmup=40, measure=200)
        runs.append((res, trace.canonical_lines()))
    return runs[0] == runs[1]


def main():
    points = sweep_points()
    bad = [p for p in points if not agrees(*p)]
    for design, kind, rate, seed, node, delay in bad:
        print(f"disagree: {design} {kind} rate={rate!r} seed={seed} "
              f"WakeupFault({node}, delay={delay})")
    print(f"{len(bad)} of {len(points)} slow-wakeup points disagree")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
