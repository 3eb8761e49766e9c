"""Speedup guard for the quiescence-aware cycle kernel (not a paper figure).

The default kernel (soa) skips inactive components; the reference kernel
(``backend="ref"``) scans every component every cycle.  Both produce
byte-identical results (tests/test_step_kernel.py pins that); this
benchmark pins the *point* of the default kernel: on the low-load PARSEC
blackscholes model (~71% router idle time, the Fig. 3 design point) it
must be at least 2x faster than the dense reference.

Timing uses min-of-N complete runs (warmup + measurement + drain) so the
assertion is robust to scheduler noise; the other designs are reported
informationally without a threshold (power-gated designs already skip idle
router pipelines via the power state, so their headline win is smaller).
"""

import time

import pytest

from repro.config import Design
from repro.experiments.common import build_config
from repro.noc.network import Network
from repro.traffic.parsec import make_traffic

ROUNDS = 3
MIN_SPEEDUP = 2.0


def _timed_run(design, *, skip, scale, seed):
    cfg = build_config(design, scale, seed=seed)
    # skip: the default kernel; else the dense reference
    net = Network(cfg, backend=None if skip else "ref")
    traffic = make_traffic(net.mesh, "blackscholes", seed=seed)
    t0 = time.perf_counter()
    net.run(traffic)
    return time.perf_counter() - t0


def _best_of(design, *, skip, scale, seed, rounds=ROUNDS):
    return min(_timed_run(design, skip=skip, scale=scale, seed=seed)
               for _ in range(rounds))


def test_skip_kernel_speedup_blackscholes(benchmark, scale, seed):
    dense = _best_of(Design.NO_PG, skip=False, scale=scale, seed=seed)

    # The active kernel is the quantity under benchmark; the dense
    # baseline above is the yardstick.
    def active_run():
        return _timed_run(Design.NO_PG, skip=True, scale=scale, seed=seed)

    samples = [benchmark.pedantic(active_run, rounds=1, iterations=1)]
    samples += [active_run() for _ in range(ROUNDS - 1)]
    active = min(samples)

    speedup = dense / active
    print(f"\nNo_PG blackscholes ({scale}): dense={dense:.3f}s "
          f"active={active:.3f}s speedup={speedup:.2f}x")
    assert speedup >= MIN_SPEEDUP, (
        f"default kernel only {speedup:.2f}x faster than the dense "
        f"reference on the blackscholes design point "
        f"(dense={dense:.3f}s active={active:.3f}s); floor is "
        f"{MIN_SPEEDUP}x")


@pytest.mark.parametrize("design", [Design.NORD, Design.CONV_PG])
def test_skip_kernel_speedup_gated_designs(design, scale, seed):
    # Informational: gated designs already skip idle pipelines through the
    # power state, so the skip layer's margin is structurally smaller.
    # Guard only against the default kernel being a pessimization.
    dense = _best_of(design, skip=False, scale=scale, seed=seed)
    active = _best_of(design, skip=True, scale=scale, seed=seed)
    speedup = dense / active
    print(f"\n{design} blackscholes ({scale}): dense={dense:.3f}s "
          f"active={active:.3f}s speedup={speedup:.2f}x")
    assert speedup >= 1.0, (
        f"default kernel slower than the dense reference on {design}: "
        f"{speedup:.2f}x")
