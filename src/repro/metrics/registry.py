"""Metric instruments and the registry.

Three instrument kinds, deliberately tiny so the hot path stays cheap:

* :class:`Counter` - a monotonically increasing int;
* :class:`Gauge` - a last-write-wins number;
* :class:`Histogram` - fixed upper-bound buckets backed by a flat int
  list.  Bucket semantics are Prometheus ``le`` (a value equal to a
  bucket's upper bound lands in that bucket); the final slot is the
  implicit ``+Inf`` overflow.

Instruments are created lazily through :class:`MetricsRegistry` and
identified by ``(name, labels)``; asking twice returns the same object.
The registry exports to a plain dict (for JSON artifacts) and to the
Prometheus text exposition format.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Dict, Iterable, List, Sequence, Tuple, Union

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelsKey = Tuple[Tuple[str, str], ...]


class Counter:
    """Monotonically increasing integer count."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: LabelsKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: LabelsKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: Union[int, float] = 0

    def set(self, value: Union[int, float]) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram over a flat int list.

    ``bounds`` are inclusive upper edges in ascending order;
    ``counts`` has ``len(bounds) + 1`` slots, the last being the
    ``+Inf`` overflow bucket.
    """

    __slots__ = ("name", "labels", "bounds", "counts", "total", "sum")
    kind = "histogram"

    def __init__(self, name: str, bounds: Sequence[float],
                 labels: LabelsKey = ()) -> None:
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.labels = labels
        self.bounds: Tuple[float, ...] = tuple(sorted(set(bounds)))
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum: float = 0.0

    def observe(self, value: float, n: int = 1) -> None:
        # bisect_left returns the first bucket whose upper bound is
        # >= value, which is exactly ``le`` semantics: value == edge
        # lands in that edge's bucket, anything above the last edge
        # falls through to the overflow slot.
        self.counts[bisect_left(self.bounds, value)] += n
        self.total += n
        self.sum += value * n

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ``+Inf`` last."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Lazy get-or-create home for all of a run's instruments."""

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, LabelsKey], Instrument] = {}
        self._kinds: Dict[str, str] = {}

    # -- creation ---------------------------------------------------------
    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, bounds: Sequence[float],
                  **labels: str) -> Histogram:
        inst = self._get(Histogram, name, labels, bounds)
        if inst.bounds != tuple(sorted(set(bounds))):
            raise ValueError(
                f"histogram {name!r} re-requested with different bounds")
        return inst

    def _get(self, cls, name: str, labels: Dict[str, str], *args):
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        inst = self._instruments.get(key)
        if inst is not None:
            if inst.kind != cls.kind:
                raise ValueError(
                    f"metric {name!r} already registered as {inst.kind}")
            return inst
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for k in labels:
            if not _LABEL_RE.match(k):
                raise ValueError(f"invalid label name {k!r}")
        seen = self._kinds.setdefault(name, cls.kind)
        if seen != cls.kind:
            raise ValueError(
                f"metric {name!r} already registered as {seen}")
        inst = cls(name, *args, labels=key[1]) if args else cls(name, key[1])
        self._instruments[key] = inst
        return inst

    # -- views ------------------------------------------------------------
    def to_dict(self) -> Dict[str, dict]:
        """JSON-friendly snapshot keyed by instrument kind."""
        out: Dict[str, dict] = {"counters": {}, "gauges": {},
                                "histograms": {}}
        for inst in self._instruments.values():
            sample = _sample_name(inst.name, inst.labels)
            if inst.kind == "counter":
                out["counters"][sample] = inst.value
            elif inst.kind == "gauge":
                out["gauges"][sample] = inst.value
            else:
                out["histograms"][sample] = {
                    "bounds": list(inst.bounds),
                    "counts": list(inst.counts),
                    "sum": inst.sum,
                    "total": inst.total,
                }
        return out

    # -- Prometheus text exposition ---------------------------------------
    def prometheus_text(self) -> str:
        """Prometheus text exposition (``# TYPE`` lines + samples).

        Instruments sharing a name are grouped under one ``# TYPE``
        header in first-creation order; histograms expand into
        ``_bucket{le=...}``, ``_sum`` and ``_count`` series.
        """
        by_name: Dict[str, List[Instrument]] = {}
        for inst in self._instruments.values():
            by_name.setdefault(inst.name, []).append(inst)
        lines: List[str] = []
        for name, group in by_name.items():
            lines.append(f"# TYPE {name} {group[0].kind}")
            for inst in group:
                if inst.kind == "histogram":
                    for bound, cum in inst.cumulative():
                        le = "+Inf" if bound == float("inf") \
                            else _fmt_value(bound)
                        labels = inst.labels + (("le", le),)
                        lines.append(f"{_sample_name(name + '_bucket', labels)}"
                                     f" {cum}")
                    lines.append(f"{_sample_name(name + '_sum', inst.labels)}"
                                 f" {_fmt_value(inst.sum)}")
                    lines.append(f"{_sample_name(name + '_count', inst.labels)}"
                                 f" {inst.total}")
                else:
                    lines.append(f"{_sample_name(name, inst.labels)}"
                                 f" {_fmt_value(inst.value)}")
        return "\n".join(lines) + "\n"


def _sample_name(name: str, labels: Iterable[Tuple[str, str]]) -> str:
    pairs = ",".join(f'{k}="{_escape(v)}"' for k, v in labels)
    return f"{name}{{{pairs}}}" if pairs else name


def _escape(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace('"', r"\"")
            .replace("\n", r"\n"))


def _fmt_value(value: Union[int, float]) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
