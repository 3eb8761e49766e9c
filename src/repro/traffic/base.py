"""Traffic-generator interface.

A traffic source yields ``(src, dst, length)`` tuples per cycle through
``arrivals(cycle)``.  Packet lengths follow the paper (Section 5.2):
packets are uniformly assigned two lengths - short packets are single-flit,
long packets have 5 flits - unless a generator says otherwise.
"""

from __future__ import annotations

import random
from typing import Iterable, Tuple

Arrival = Tuple[int, int, int]  # (src, dst, length_in_flits)

SHORT_PACKET_FLITS = 1
LONG_PACKET_FLITS = 5


class TrafficGenerator:
    """Base class for cycle-driven traffic sources."""

    def __init__(self, num_nodes: int, seed: int = 1) -> None:
        if num_nodes < 2:
            raise ValueError("traffic needs at least two nodes")
        self.num_nodes = num_nodes
        self.rng = random.Random(seed)

    def arrivals(self, cycle: int) -> Iterable[Arrival]:
        raise NotImplementedError

    @property
    def mean_packet_length(self) -> float:
        return (SHORT_PACKET_FLITS + LONG_PACKET_FLITS) / 2.0


class NullTraffic(TrafficGenerator):
    """No traffic at all (useful for drain and pure-idleness tests)."""

    def __init__(self, num_nodes: int = 2) -> None:
        super().__init__(num_nodes, seed=0)

    def arrivals(self, cycle: int) -> Iterable[Arrival]:
        return ()


class ScriptedTraffic(TrafficGenerator):
    """Replays an explicit list of (cycle, src, dst, length) events.

    Deterministic; used heavily by unit tests.  The arrivals any other
    generator produced, listed in this form, replay bit for bit.
    """

    def __init__(self, events: Iterable[Tuple[int, int, int, int]],
                 num_nodes: int = 16) -> None:
        super().__init__(num_nodes, seed=0)
        self._by_cycle: dict = {}
        for cycle, src, dst, length in events:
            self._by_cycle.setdefault(cycle, []).append((src, dst, length))

    def arrivals(self, cycle: int) -> Iterable[Arrival]:
        return self._by_cycle.get(cycle, ())
