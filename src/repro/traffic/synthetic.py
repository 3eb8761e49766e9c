"""Synthetic traffic patterns (Section 5.2).

The paper evaluates uniform random and bit-complement traffic across load
rates expressed in flits/node/cycle.  Injection is a Bernoulli process per
node: each cycle, node ``i`` generates a packet with probability
``rate / mean_packet_length`` so that the average injected flit rate equals
``rate``.  Packet lengths are bimodal (1 or 5 flits, equally likely).

Patterns are small callable *objects* rather than closures so a generator
(pattern + RNG state included) can cross a process boundary: the
checkpoint/restore layer (:mod:`repro.checkpoint`) pickles the traffic
source mid-run and resumes it elsewhere with an identical arrival stream.
"""

from __future__ import annotations

from typing import Callable, Iterable, List

from ..noc.topology import Mesh
from .base import (LONG_PACKET_FLITS, SHORT_PACKET_FLITS, Arrival,
                   TrafficGenerator)


class SyntheticTraffic(TrafficGenerator):
    """Bernoulli injection with a configurable destination pattern."""

    def __init__(self, num_nodes: int, rate_flits_per_node_cycle: float,
                 pattern: Callable[[int], int], seed: int = 1) -> None:
        super().__init__(num_nodes, seed)
        if rate_flits_per_node_cycle < 0:
            raise ValueError("injection rate must be non-negative")
        self.rate = rate_flits_per_node_cycle
        self.pattern = pattern
        self._packet_prob = rate_flits_per_node_cycle / self.mean_packet_length

    def arrivals(self, cycle: int) -> Iterable[Arrival]:
        out: List[Arrival] = []
        rand = self.rng.random
        prob = self._packet_prob
        pattern = self.pattern
        for src in range(self.num_nodes):
            if rand() < prob:
                dst = pattern(src)
                if dst != src:
                    # packet_length, inlined
                    out.append((src, dst, SHORT_PACKET_FLITS if rand() < 0.5
                                else LONG_PACKET_FLITS))
        return out


class IdentityPattern:
    """Placeholder pattern (src -> src packets are filtered out)."""

    def __call__(self, src: int) -> int:
        return src


class UniformPattern:
    """Uniform random destinations (excluding the source)."""

    def __init__(self, num_nodes: int, rng) -> None:
        self.num_nodes = num_nodes
        self.rng = rng

    def __call__(self, src: int) -> int:
        dst = self.rng.randrange(self.num_nodes - 1)
        return dst if dst < src else dst + 1


class BitComplementPattern:
    """Bit-complement: node (x, y) sends to (W-1-x, H-1-y) [Dally & Towles]."""

    def __init__(self, mesh: Mesh) -> None:
        self.mesh = mesh

    def __call__(self, src: int) -> int:
        mesh = self.mesh
        x, y = mesh.xy(src)
        return mesh.node(mesh.width - 1 - x, mesh.height - 1 - y)


class TransposePattern:
    """Transpose: node (x, y) sends to (y, x); needs a square mesh."""

    def __init__(self, mesh: Mesh) -> None:
        if mesh.width != mesh.height:
            raise ValueError("transpose needs a square mesh")
        self.mesh = mesh

    def __call__(self, src: int) -> int:
        x, y = self.mesh.xy(src)
        return self.mesh.node(y, x)


class TornadoPattern:
    """Tornado: node (x, y) sends halfway around each dimension,
    ``((x + ceil(W/2) - 1) mod W, (y + ceil(H/2) - 1) mod H)``
    [Dally & Towles].  Adversarial for dimension-ordered routing: every
    flow crosses the bisection in the same rotational direction."""

    def __init__(self, mesh: Mesh) -> None:
        self.mesh = mesh
        self.dx = (mesh.width + 1) // 2 - 1
        self.dy = (mesh.height + 1) // 2 - 1

    def __call__(self, src: int) -> int:
        mesh = self.mesh
        x, y = mesh.xy(src)
        return mesh.node((x + self.dx) % mesh.width,
                         (y + self.dy) % mesh.height)


class HotspotPattern:
    """With probability ``fraction`` send to a random hotspot node,
    otherwise uniform random."""

    def __init__(self, num_nodes: int, hotspots: List[int], fraction: float,
                 rng) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("hotspot fraction must be in [0, 1]")
        self.hotspots = hotspots
        self.fraction = fraction
        self.rng = rng
        self.uniform = UniformPattern(num_nodes, rng)

    def __call__(self, src: int) -> int:
        if self.hotspots and self.rng.random() < self.fraction:
            return self.rng.choice(self.hotspots)
        return self.uniform(src)


def uniform_pattern(num_nodes: int, rng) -> Callable[[int], int]:
    """Uniform random destinations (excluding the source)."""
    return UniformPattern(num_nodes, rng)


def bit_complement_pattern(mesh: Mesh) -> Callable[[int], int]:
    return BitComplementPattern(mesh)


def transpose_pattern(mesh: Mesh) -> Callable[[int], int]:
    return TransposePattern(mesh)


def tornado_pattern(mesh: Mesh) -> Callable[[int], int]:
    return TornadoPattern(mesh)


def hotspot_pattern(num_nodes: int, hotspots: List[int], fraction: float,
                    rng) -> Callable[[int], int]:
    return HotspotPattern(num_nodes, hotspots, fraction, rng)


def uniform_random(mesh: Mesh, rate: float, seed: int = 1) -> SyntheticTraffic:
    """Uniform-random traffic at ``rate`` flits/node/cycle."""
    gen = SyntheticTraffic(mesh.num_nodes, rate, IdentityPattern(), seed)
    gen.pattern = UniformPattern(mesh.num_nodes, gen.rng)
    return gen


def bit_complement(mesh: Mesh, rate: float, seed: int = 1) -> SyntheticTraffic:
    """Bit-complement traffic at ``rate`` flits/node/cycle."""
    return SyntheticTraffic(mesh.num_nodes, rate,
                            BitComplementPattern(mesh), seed)


def tornado(mesh: Mesh, rate: float, seed: int = 1) -> SyntheticTraffic:
    """Tornado traffic at ``rate`` flits/node/cycle."""
    return SyntheticTraffic(mesh.num_nodes, rate, TornadoPattern(mesh), seed)


def transpose(mesh: Mesh, rate: float, seed: int = 1) -> SyntheticTraffic:
    """Transpose traffic at ``rate`` flits/node/cycle (square mesh only)."""
    return SyntheticTraffic(mesh.num_nodes, rate, TransposePattern(mesh),
                            seed)


def hotspot(mesh: Mesh, rate: float, seed: int = 1,
            hotspots: Iterable[int] = (),
            fraction: float = 0.2) -> SyntheticTraffic:
    """Hotspot traffic at ``rate`` flits/node/cycle.

    With probability ``fraction`` a packet targets a random node from
    ``hotspots`` (default: the mesh center), otherwise uniform random.
    The pattern draws from the generator's own RNG so that a given
    ``(rate, seed)`` pair yields one deterministic arrival stream.
    """
    gen = SyntheticTraffic(mesh.num_nodes, rate, IdentityPattern(), seed)
    spots = [n for n in hotspots]
    if not spots:
        spots = [mesh.node(mesh.width // 2, mesh.height // 2)]
    for n in spots:
        if not 0 <= n < mesh.num_nodes:
            raise ValueError(f"hotspot node {n} outside the mesh")
    gen.pattern = HotspotPattern(mesh.num_nodes, spots, fraction, gen.rng)
    return gen
