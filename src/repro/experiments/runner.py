"""Run every paper experiment and print its table/series.

``python -m repro run-all --scale bench`` regenerates each table and
figure of the paper in sequence; individual experiments are available as
``python -m repro fig8`` etc. (see :mod:`repro.cli`).
"""

from __future__ import annotations

import time
from importlib import import_module
from typing import Callable, Dict, Tuple

#: name -> (module, description).  Each module exposes run()/report()
#: and is imported when it runs (``list`` and ``--help`` load none).
EXPERIMENTS: Dict[str, Tuple[str, str]] = {
    "table1": ("table1_config", "Table 1: simulator configuration"),
    "fig1": ("fig1_static_power", "Figure 1: router static power"),
    "fig3": ("fig3_idle_periods", "Figure 3: idle-period fragmentation"),
    "fig6": ("fig6_placement", "Figure 6: powered-on router placement"),
    "fig7": ("fig7_threshold", "Figure 7: wakeup threshold calibration"),
    "fig8": ("fig8_static_energy", "Figure 8: static energy"),
    "fig9": ("fig9_overhead", "Figure 9: power-gating overhead"),
    "fig10": ("fig10_energy_breakdown", "Figure 10: NoC energy breakdown"),
    "fig11": ("fig11_latency", "Figure 11: average packet latency"),
    "fig12": ("fig12_execution_time", "Figure 12: execution time"),
    "fig13": ("fig13_wakeup_latency", "Figure 13: hiding wakeup latency"),
    "fig14": ("fig14_load_sweep", "Figure 14: 16-node load sweep"),
    "fig15": ("fig15_load_sweep64", "Figure 15: 64-node load sweeps"),
    "area": ("area_overhead", "Section 6.8: area overhead"),
    "discussion": ("discussion_optimizations",
                   "Section 6.8: pipeline/bypass optimizations"),
    "bufferless": ("discussion_bufferless",
                   "Section 6.8: bufferless routing vs power-gating"),
    "resilience": ("resilience_sweep",
                   "Resilience: fault injection across designs"),
}


def run_experiment(name: str, scale: str = "bench", seed: int = 1) -> str:
    """Run one experiment by name and return its formatted report."""
    try:
        module_name, _ = EXPERIMENTS[name]
    except KeyError:
        raise ValueError(f"unknown experiment {name!r}; "
                         f"known: {list(EXPERIMENTS)}") from None
    module = import_module(f"{__package__}.{module_name}")
    result = module.run(scale=scale, seed=seed)
    return module.report(result)


def run_all(scale: str = "bench", seed: int = 1, *,
            echo: Callable[[str], None] = print) -> None:
    """Run every experiment, echoing each report with timing.

    The figure experiments submit their design points through the
    installed :class:`repro.experiments.parallel.SweepRunner` (jobs,
    cache, timeout, retries, partial: its settings); each experiment's
    footer reports its wall-clock time plus how many design points were
    served from the on-disk result cache.  The run-all footer
    additionally reports quarantined (corrupt) cache entries and, in
    partial mode, runs that failed every attempt.
    """
    from . import parallel
    runner = parallel.get_runner()
    total_start = time.perf_counter()
    with runner:  # one worker pool for all experiments, released here
        for name, (_, description) in EXPERIMENTS.items():
            start = time.perf_counter()
            hits0, misses0 = runner.stats.snapshot()
            cyc0, secs0 = runner.stats.sim_cycles, runner.stats.sim_seconds
            echo(f"\n### {name}: {description}")
            try:
                echo(run_experiment(name, scale, seed))
            except Exception as exc:
                # Partial mode soldiers on: a sweep that lost design
                # points may crash its experiment's aggregation; report
                # and move to the next experiment instead of losing the
                # whole run-all.
                if not runner.partial:
                    raise
                elapsed = time.perf_counter() - start
                echo(f"[{name} took {elapsed:.1f}s and failed: "
                     f"{type(exc).__name__}: {exc}]")
                continue
            hits, misses = runner.stats.snapshot()
            elapsed = time.perf_counter() - start
            secs = runner.stats.sim_seconds - secs0
            sim = "" if secs <= 0 else (
                f"; {(runner.stats.sim_cycles - cyc0) / secs:,.0f} "
                f"sim cyc/s")
            echo(f"[{name} took {elapsed:.1f}s; cache: {hits - hits0} hits, "
                 f"{misses - misses0} misses{sim}]")
    hits, misses = runner.stats.snapshot()
    quarantined = runner.cache.quarantined
    # Aggregate simulation rate over everything actually executed (a
    # fully-cached rerun simulated nothing, so it reports no rate).
    sim = ""
    if runner.stats.sim_seconds > 0:
        sim = (f"; simulated {runner.stats.sim_cycles:,} cycles at "
               f"{runner.stats.sim_rate:,.0f} cyc/s")
    if runner.stats.kernels:
        # Which kernel ran the executed points, most-used first.
        sim += "; kernels: " + ", ".join(
            f"{k} {n}" for k, n in runner.stats.kernels.most_common())
    if runner.stats.workers_spawned:
        # What the pool went through (a cached rerun never spawns one).
        sim += (f"; pool: {runner.stats.workers_spawned} workers spawned, "
                f"{runner.stats.workers_lost} lost, "
                f"{runner.stats.requeued} requeued")
    echo(f"\n[run-all took {time.perf_counter() - total_start:.1f}s with "
         f"jobs={runner.jobs}; cache: {hits} hits, {misses} misses"
         f"{f', {quarantined} quarantined' if quarantined else ''}"
         f"{'' if runner.use_cache else ' (cache disabled)'}{sim}]")
    # Footer lines contain " took " and are excluded from CI byte-diffs,
    # so the variable quarantine/failure counts never break determinism
    # checks.  Failed runs get their own (loud) trailer.
    if runner.failures:
        echo(f"[run-all took note: {len(runner.failures)} design points "
             f"failed every attempt]")
        for failed in runner.failures:
            echo(f"[  {failed.kind}: {failed.point.cfg.design} "
                 f"{failed.point.traffic.kind} - {failed.message} "
                 f"(took {failed.attempts} attempts)]")
