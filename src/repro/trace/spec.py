"""The value type that *requests* a trace.

Kept apart from :mod:`repro.trace.recorder` so that describing a traced
run (CLI flags, design points, cache keys) does not import the recorder
the run will use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .recorder import EventTrace

#: Default ring-buffer capacity (events), sized so the golden scenarios
#: and any small-mesh debugging run retain their full event stream.
DEFAULT_LIMIT = 1_000_000


@dataclass(frozen=True)
class TraceSpec:
    """Picklable description of a trace request (crosses worker
    processes with its :class:`repro.experiments.parallel.DesignPoint`).

    Deliberately *not* part of the design point's cache key: tracing is
    a pure observer, so the same point with and without a trace produces
    the same ``RunResult``.
    """

    #: Directory trace artifacts are written into.
    directory: str
    #: Ring-buffer capacity in events.
    limit: int = DEFAULT_LIMIT
    #: Also write a Chrome-trace/Perfetto JSON next to the JSONL.
    chrome: bool = False
    #: Artifact basename; when ``None`` the executor derives one from
    #: the design point (design, traffic, content hash).
    basename: Optional[str] = None

    def build(self) -> "EventTrace":
        from .recorder import EventTrace
        return EventTrace(limit=self.limit)
