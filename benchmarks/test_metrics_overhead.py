"""Overhead guard for the metrics subsystem (not a paper figure).

The telemetry hooks cost one ``is None`` check per site when disabled
and a bounded window-sampling pass when enabled.  This benchmark pins
the acceptance bound from the metrics issue: on the blackscholes NO_PG
kernel design point, a metrics-on run (default sampling interval) may
be at most 10% slower than a metrics-off run of the same point.

Timing uses min-of-N complete runs, the same noise-rejection pattern as
``test_step_kernel.py``.
"""

import time

from repro.config import Design
from repro.experiments.common import build_config
from repro.metrics import MetricsSpec
from repro.noc.network import Network
from repro.traffic.parsec import make_traffic

ROUNDS = 3
MAX_OVERHEAD = 0.10


def _timed_run(*, metrics_on, scale, seed):
    cfg = build_config(Design.NO_PG, scale, seed=seed)
    metrics = MetricsSpec(directory="unused").build() if metrics_on \
        else None
    # Both arms on the kernel an untagged run gets: the sampler does
    # not move a run to another kernel, so this measures the hooks.
    net = Network(cfg, metrics=metrics)
    traffic = make_traffic(net.mesh, "blackscholes", seed=seed)
    t0 = time.perf_counter()
    net.run(traffic)
    return time.perf_counter() - t0


def _best_of(*, metrics_on, scale, seed, rounds=ROUNDS):
    return min(_timed_run(metrics_on=metrics_on, scale=scale, seed=seed)
               for _ in range(rounds))


def test_metrics_overhead_blackscholes(benchmark, scale, seed):
    off = _best_of(metrics_on=False, scale=scale, seed=seed)

    def instrumented_run():
        return _timed_run(metrics_on=True, scale=scale, seed=seed)

    samples = [benchmark.pedantic(instrumented_run, rounds=1,
                                  iterations=1)]
    samples += [instrumented_run() for _ in range(ROUNDS - 1)]
    on = min(samples)

    overhead = on / off - 1.0
    print(f"\nNo_PG blackscholes ({scale}): metrics-off={off:.3f}s "
          f"metrics-on={on:.3f}s overhead={overhead:+.1%}")
    assert overhead <= MAX_OVERHEAD, (
        f"metrics sampling costs {overhead:.1%} on the blackscholes "
        f"NO_PG design point (off={off:.3f}s on={on:.3f}s); bound is "
        f"{MAX_OVERHEAD:.0%}")
