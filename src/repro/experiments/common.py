"""Shared infrastructure for the per-figure experiments.

Every experiment supports three scales (:data:`repro.config.SCALES`):

* ``smoke`` - a few hundred cycles, for unit tests;
* ``bench`` - a few thousand cycles, the default for the benchmark
  harness (Python cycle-simulation is slow; the paper's 100k-cycle windows
  are available as ``full``);
* ``full``  - the paper's warmup/measurement lengths.

PARSEC runs (4 designs x 10 benchmarks) are memoized per (scale, seed,
mesh) on the installed runner, so the Figure 8-12 experiments of one
command share one sweep.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Dict, Iterable, Tuple

from ..config import SCALES, Design, NoCConfig, Scale, SimConfig
from ..stats.collector import RunResult
from ..traffic.parsec import BENCHMARKS
from . import parallel

if TYPE_CHECKING:  # pragma: no cover
    from ..power.model import EnergyReport


def get_scale(scale: str) -> Scale:
    try:
        return SCALES[scale]
    except KeyError:
        raise ValueError(f"unknown scale {scale!r}; known: {list(SCALES)}"
                         ) from None


def example_scale(default: str = "bench") -> str:
    """Scale preset for the ``examples/`` scripts.

    The ``REPRO_EXAMPLE_SCALE`` environment variable overrides the
    default (e.g. ``smoke`` in CI) so every example can be exercised at
    a tiny scale without changing its command-line contract.
    """
    name = os.environ.get("REPRO_EXAMPLE_SCALE", default)
    get_scale(name)  # validate the name before an example runs with it
    return name


def build_config(design: str, scale: str = "bench", *, width: int = 4,
                 height: int = 4, seed: int = 1, **overrides) -> SimConfig:
    """A SimConfig for one design point at a given scale."""
    s = get_scale(scale)
    return SimConfig(
        design=design,
        noc=NoCConfig(width=width, height=height),
        warmup_cycles=s.warmup,
        measure_cycles=s.measure,
        drain_cycles=s.drain,
        seed=seed,
    ).replace(**overrides)


# ---------------------------------------------------------------------------
# cached PARSEC sweep shared by the Figure 8-12 experiments
# ---------------------------------------------------------------------------
ParsecSweep = Dict[str, Dict[str, Tuple[RunResult, "EnergyReport"]]]


def parsec_sweep(scale: str = "bench", seed: int = 1, *, width: int = 4,
                 height: int = 4,
                 designs: Iterable[str] = Design.ALL,
                 benchmarks: Iterable[str] = BENCHMARKS) -> ParsecSweep:
    """Run (or fetch from cache) the PARSEC benchmark sweep.

    Returns ``sweep[benchmark][design] = (RunResult, EnergyReport)``.
    Missing (benchmark, design) cells are submitted as one batch through
    the default :class:`repro.experiments.parallel.SweepRunner`, so with
    ``--jobs N`` the whole sweep fans across worker processes and
    completed cells come back from the on-disk cache.  Results are also
    memoized on that runner: repeated calls return the same objects
    until another runner - other settings: ``--trace``, ``--backend``,
    ``--no-cache`` - is installed.
    """
    runner = parallel.get_runner()
    key = ("parsec", scale, seed, width, height)
    sweep = runner.memo.setdefault(key, {})
    missing = [(bench, design)
               for bench in benchmarks
               for design in designs
               if design not in sweep.setdefault(bench, {})]
    if missing:
        points = [
            parallel.DesignPoint(
                cfg=build_config(design, scale, width=width, height=height,
                                 seed=seed),
                traffic=parallel.parsec_spec(bench, seed=seed),
            )
            for bench, design in missing
        ]
        for (bench, design), outcome in zip(missing, runner.run(points)):
            sweep[bench][design] = outcome
    return sweep


def mean(values: Iterable[float]) -> float:
    vals = list(values)
    return sum(vals) / len(vals) if vals else float("nan")
