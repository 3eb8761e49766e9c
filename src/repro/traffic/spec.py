"""The value type that *describes* a run's traffic, and its kind table:
the CLI's parser reads the kinds without loading the sweep harness, and
describing a point does not import the generator it will run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .base import NullTraffic, TrafficGenerator
from .parsec import make_traffic


@dataclass(frozen=True)
class TrafficSpec:
    """Picklable description of a traffic generator.

    ``kind`` is a key of :data:`TRAFFIC_KINDS` (checked on
    construction, so a typo fails where it is written rather than as a
    contained worker error); ``rate`` applies to the synthetic kinds,
    ``benchmark`` to ``parsec``.  ``hotspots`` and ``fraction`` apply
    only to ``hotspot`` (empty ``hotspots`` = the mesh-center default).
    """

    kind: str
    rate: float = 0.0
    benchmark: str = ""
    seed: int = 1
    hotspots: Tuple[int, ...] = ()
    fraction: float = 0.2

    def __post_init__(self) -> None:
        if self.kind not in TRAFFIC_KINDS:
            raise ValueError(f"unknown traffic kind {self.kind!r}; "
                             f"known: {sorted(TRAFFIC_KINDS)}")

    def build(self, mesh) -> TrafficGenerator:
        return TRAFFIC_KINDS[self.kind](self, mesh)

    def to_key(self) -> Dict[str, object]:
        return {**vars(self), "hotspots": list(self.hotspots)}


def _synthetic(factory: str, *fields: str):
    """Builder for a :mod:`repro.traffic.synthetic` pattern, passing the
    named spec fields on (imported when a point runs, not when it is
    described)."""
    def build(spec: TrafficSpec, mesh) -> TrafficGenerator:
        from . import synthetic
        return getattr(synthetic, factory)(
            mesh, spec.rate, seed=spec.seed,
            **{name: getattr(spec, name) for name in fields})
    return build


#: ``TrafficSpec.kind`` -> what builds its generator on a mesh: the one
#: table :meth:`TrafficSpec.build` dispatches on and the constructor
#: validates against.
TRAFFIC_KINDS = {
    "uniform": _synthetic("uniform_random"),
    "bitcomp": _synthetic("bit_complement"),
    "tornado": _synthetic("tornado"),
    "transpose": _synthetic("transpose"),
    "hotspot": _synthetic("hotspot", "hotspots", "fraction"),
    "parsec": lambda spec, mesh: make_traffic(mesh, spec.benchmark,
                                              seed=spec.seed),
    "null": lambda spec, mesh: NullTraffic(mesh.num_nodes),
}
