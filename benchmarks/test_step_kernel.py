"""Speedup guard for the quiescence-aware cycle kernel (not a paper figure).

``Network.step()`` skips inactive components by default; ``REPRO_NO_SKIP=1``
(or ``skip_inactive=False``) forces the dense reference scans.  Both kernels
produce byte-identical results (tests/test_step_kernel.py pins that); this
benchmark pins the *point* of the skip layer: on the low-load PARSEC
blackscholes model (~71% router idle time, the Fig. 3 design point) the
active kernel must be at least 2x faster than the dense one.

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
    # The skip layer and the dense scans are both the reference
    # kernel's (unpinned, skip=True would dispatch to soa).
    net = Network(cfg, skip_inactive=skip, backend="ref")
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
        f"activity-set kernel only {speedup:.2f}x faster than "
        f"REPRO_NO_SKIP=1 on the blackscholes design point "
        f"(dense={dense:.3f}s active={active:.3f}s); floor is "
        f"{MIN_SPEEDUP}x")


@pytest.mark.parametrize("design", [Design.NORD, Design.CONV_PG])
def test_skip_kernel_speedup_gated_designs(design, scale, seed):
    # Informational: gated designs already skip idle pipelines through the
    # power state, so the skip layer's margin is structurally smaller.
    # Guard only against the skip layer being a pessimization.
    dense = _best_of(design, skip=False, scale=scale, seed=seed)
    active = _best_of(design, skip=True, scale=scale, seed=seed)
    speedup = dense / active
    print(f"\n{design} blackscholes ({scale}): dense={dense:.3f}s "
          f"active={active:.3f}s speedup={speedup:.2f}x")
    assert speedup >= 1.0, (
        f"skip layer slower than dense kernel on {design}: "
        f"{speedup:.2f}x")
