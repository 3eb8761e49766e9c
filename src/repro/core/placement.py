"""Performance-centric router selection (Section 4.4).

The paper selects which routers to classify as *performance-centric* (low
wakeup threshold) with "a short off-line program based on the Floyd-Warshall
all-pair shortest path algorithm": for a given set of powered-on routers it
computes the best node-to-node average distance and the average per-hop
latency (Figure 6), then picks a knee point (6 routers for the 4x4 example,
namely routers {4, 5, 6, 7, 13, 14}).

Reachability model (matching Section 4.2's routing rules):

* an ON router can forward to an ON neighbor over any mesh link;
* an ON router can forward to an OFF neighbor only through that neighbor's
  Bypass Inport (i.e. only if it is the ring predecessor);
* an OFF router can forward only along its Bypass Outport (the ring).

Per-hop cost: traversing an ON router takes the full pipeline (4 stages +
LT = 5 cycles); traversing an OFF router's bypass takes 2 stages + LT = 3
cycles (Section 6.8).

The reachability graph has at most four edges per node, so the analysis
runs one breadth-first pass per source for hop counts and one Dijkstra
per source for latencies.  Hop counts and path latencies are integers
either way, which is why this agrees bit for bit with the dense
:func:`floyd_warshall`, kept as the reference the tests compare against.
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..noc.topology import Mesh
from .ring import BypassRing

INF = float("inf")

#: The performance-centric set the paper reports for its 4x4 example.
PAPER_PERF_CENTRIC_4X4 = frozenset({4, 5, 6, 7, 13, 14})

#: Pipeline cost in cycles of a hop through an ON router (4 stages + LT).
ON_HOP_COST = 5
#: Pipeline cost in cycles of a hop through an OFF router's bypass.
OFF_HOP_COST = 3


def reachability_edges(mesh: Mesh, ring: BypassRing,
                       on_set: Set[int]) -> List[List[int]]:
    """Directed adjacency lists under a given set of powered-on routers."""
    adj: List[List[int]] = [[] for _ in range(mesh.num_nodes)]
    for node in range(mesh.num_nodes):
        if node in on_set:
            for _, nbr in mesh.neighbors(node):
                if nbr in on_set or ring.successor[node] == nbr:
                    adj[node].append(nbr)
        else:
            adj[node].append(ring.successor[node])
    return adj


def floyd_warshall(adj: Sequence[Sequence[int]],
                   cost: Optional[Sequence[float]] = None
                   ) -> List[List[float]]:
    """All-pairs shortest distances for a directed graph: hop counts, or
    with ``cost`` the cheapest paths where hop u->v costs ``cost[v]``.

    The dense O(n^3) reference for :func:`bfs_hops` and
    :func:`cheapest_paths`; the analysis itself does not call it.
    """
    n = len(adj)
    dist = [[INF] * n for _ in range(n)]
    for u in range(n):
        dist[u][u] = 0.0
        for v in adj[u]:
            dist[u][v] = 1.0 if cost is None else float(cost[v])
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def bfs_hops(adj: Sequence[Sequence[int]], src: int) -> List[int]:
    """Shortest hop counts from ``src``; ``-1`` where unreachable."""
    hops = [-1] * len(adj)
    hops[src] = 0
    frontier = [src]
    depth = 0
    while frontier:
        depth += 1
        reached = []
        for u in frontier:
            for v in adj[u]:
                if hops[v] < 0:
                    hops[v] = depth
                    reached.append(v)
        frontier = reached
    return hops


def cheapest_paths(adj: Sequence[Sequence[int]], cost: Sequence[int],
                   src: int) -> List[int]:
    """Cheapest path costs from ``src`` (Dijkstra), where hop u->v costs
    the positive integer ``cost[v]``; ``-1`` where unreachable."""
    settled = [-1] * len(adj)
    heap = [(0, src)]
    while heap:
        total, u = heapq.heappop(heap)
        if settled[u] >= 0:
            continue
        settled[u] = total
        for v in adj[u]:
            if settled[v] < 0:
                heapq.heappush(heap, (total + cost[v], v))
    return settled


class PlacementAnalysis:
    """Offline analysis of powered-on router sets (reproduces Figure 6).

    The searches order router sets by (average distance, average per-hop
    latency), so they need the distance of every set they look at but
    the latency only of sets whose distances tie, or that they return.
    Both values are memoised per set on the instance (the swap search
    revisits sets); what is compared, and so what is chosen, is exactly
    what evaluating :meth:`metrics` on every set would give.
    """

    def __init__(self, mesh: Mesh, ring: BypassRing) -> None:
        self.mesh = mesh
        self.ring = ring
        self._everyone = frozenset(range(mesh.num_nodes))
        self._pairs = mesh.num_nodes * (mesh.num_nodes - 1)
        self._distances: Dict[FrozenSet[int], float] = {}
        self._latencies: Dict[FrozenSet[int], float] = {}

    def _hops(self, adj: List[List[int]]) -> List[List[int]]:
        """Hop counts between every ordered pair of nodes."""
        hops = [bfs_hops(adj, src) for src in range(len(adj))]
        if any(-1 in row for row in hops):
            raise RuntimeError("bypass ring must keep the network connected")
        return hops

    def _distance(self, on: FrozenSet[int]) -> float:
        """All-pairs average of shortest hop counts."""
        dist = self._distances.get(on)
        if dist is None:
            hops = self._hops(reachability_edges(self.mesh, self.ring, on))
            dist = self._distances[on] = sum(map(sum, hops)) / self._pairs
        return dist

    def _latency(self, on: FrozenSet[int]) -> float:
        """All-pairs average of (cheapest path latency / shortest path
        hops), summed in (source, destination) order."""
        lat = self._latencies.get(on)
        if lat is None:
            adj = reachability_edges(self.mesh, self.ring, on)
            cost = [ON_HOP_COST if v in on else OFF_HOP_COST
                    for v in range(len(adj))]
            total = 0.0
            for a, hops in enumerate(self._hops(adj)):
                cycles = cheapest_paths(adj, cost, a)
                for b, h in enumerate(hops):
                    if a != b:
                        total += cycles[b] / h
            lat = self._latencies[on] = total / self._pairs
        return lat

    def _better(self, trial: FrozenSet[int], best: FrozenSet[int]) -> bool:
        """Whether ``metrics(trial) < metrics(best)``."""
        d, best_d = self._distance(trial), self._distance(best)
        return d < best_d or (
            d == best_d and self._latency(trial) < self._latency(best))

    def metrics(self, on_set: Iterable[int]) -> Tuple[float, float]:
        """Return (avg node-to-node distance in hops, avg per-hop latency).

        Distance is the all-pairs average of shortest hop counts in the
        reachability graph; per-hop latency is the all-pairs average of
        (path latency / path hops) using ON/OFF per-hop costs.
        """
        on = frozenset(on_set)
        return self._distance(on), self._latency(on)

    def greedy_selection(self, *, refine: bool = True
                         ) -> List[Tuple[FrozenSet[int], float, float]]:
        """Greedy forward selection of powered-on routers.

        Returns a list indexed by k (0..num_nodes): the chosen set of k
        routers and its (avg distance, avg per-hop latency).  Step k+1 adds
        the single router that most reduces average distance (ties broken
        by per-hop latency, then node id, for determinism).  With
        ``refine`` (the default), each set is additionally improved by
        swap-based local search, which recovers the quality of the paper's
        exhaustive offline program at a fraction of the cost.
        """
        chosen: FrozenSet[int] = frozenset()
        out = [(chosen, *self.metrics(chosen))]
        while chosen != self._everyone:
            trials = [chosen | {cand}
                      for cand in sorted(self._everyone - chosen)]
            nearest = min(map(self._distance, trials))
            # min() keeps the first of equals: the lowest node id.
            chosen = min((t for t in trials if self._distance(t) == nearest),
                         key=self._latency)
            if refine:
                chosen = self._refine(chosen)
            out.append((chosen, *self.metrics(chosen)))
        return out

    def _refine(self, chosen: FrozenSet[int]) -> FrozenSet[int]:
        """Swap-based local search: replace one chosen router by one
        unchosen router while it improves (distance, latency)."""
        while True:
            others = sorted(self._everyone - chosen)
            swaps = ((chosen - {out_node}) | {in_node}
                     for out_node in sorted(chosen) for in_node in others)
            improved = next((trial for trial in swaps
                             if self._better(trial, chosen)), None)
            if improved is None:
                return chosen
            chosen = improved

    def knee_set(self, size: int = 6) -> FrozenSet[int]:
        """The greedy set of ``size`` performance-centric routers."""
        return self.greedy_selection()[size][0]


def central_routers(mesh: Mesh, size: int) -> FrozenSet[int]:
    """Pick ``size`` routers closest to the mesh center (heuristic).

    Central routers provide the best shortcuts through the bypass ring's
    detours; this is the cheap stand-in for the greedy Floyd-Warshall
    selection on large meshes, where the exact search is expensive.
    """
    cx = (mesh.width - 1) / 2.0
    cy = (mesh.height - 1) / 2.0
    ranked = sorted(
        range(mesh.num_nodes),
        key=lambda n: (abs(mesh.xy(n)[0] - cx) + abs(mesh.xy(n)[1] - cy), n),
    )
    return frozenset(ranked[:size])


def default_perf_centric(mesh: Mesh, ring: BypassRing,
                         size: Optional[int] = None) -> FrozenSet[int]:
    """Default performance-centric router classification.

    For the paper's 4x4 mesh this returns the paper's own set
    {4, 5, 6, 7, 13, 14}; larger meshes use the central-router heuristic
    with the same 6-of-16 ratio (the exact greedy Floyd-Warshall selection
    remains available through :class:`PlacementAnalysis`).
    """
    if size is None:
        size = max(1, (mesh.num_nodes * 6) // 16)
    if (mesh.width, mesh.height) == (4, 4) and size == 6:
        return PAPER_PERF_CENTRIC_4X4
    return central_routers(mesh, size)
