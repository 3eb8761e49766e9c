"""The value type that *requests* telemetry.

Kept apart from :mod:`repro.metrics.sampler` so that describing an
instrumented run (CLI flags, design points, cache keys) does not import
the sampler the run will use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .sampler import MetricsRun

#: Default sampling window, in cycles.
DEFAULT_INTERVAL = 100


@dataclass(frozen=True)
class MetricsSpec:
    """Picklable description of a metrics request (crosses worker
    processes with its :class:`repro.experiments.parallel.DesignPoint`).

    Deliberately *not* part of the design point's cache key: metrics
    are a pure observer, so the same point with and without them
    produces the same ``RunResult`` (same policy as ``TraceSpec``).
    """

    #: Directory metrics artifacts are written into.
    directory: str
    #: Sampling window in cycles.
    interval: int = DEFAULT_INTERVAL
    #: Artifact basename; when ``None`` the executor derives one from
    #: the design point (design, traffic, content hash).
    basename: Optional[str] = None

    def build(self) -> "MetricsRun":
        from .sampler import MetricsRun
        return MetricsRun(interval=self.interval)
