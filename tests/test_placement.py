"""Placement analysis (Figure 6, Section 4.4).

The analysis evaluates lazily (BFS / Dijkstra per source, latency only
on distance ties); ``reference_metrics`` / ``reference_greedy`` below are
the search it replaced - two dense Floyd-Warshall passes for every set
looked at - and must agree with it to the last bit.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.placement import (INF, OFF_HOP_COST, ON_HOP_COST,
                                  PAPER_PERF_CENTRIC_4X4, PlacementAnalysis,
                                  bfs_hops, central_routers, cheapest_paths,
                                  default_perf_centric, floyd_warshall,
                                  reachability_edges)
from repro.core.ring import build_ring
from repro.noc.topology import Mesh


@pytest.fixture(scope="module")
def mesh4():
    return Mesh(4, 4)


@pytest.fixture(scope="module")
def ring4(mesh4):
    return build_ring(mesh4)


@pytest.fixture(scope="module")
def analysis(mesh4, ring4):
    return PlacementAnalysis(mesh4, ring4)


class TestReachability:
    def test_all_on_equals_mesh(self, mesh4, ring4):
        adj = reachability_edges(mesh4, ring4, set(range(16)))
        for node in range(16):
            expected = sorted(nbr for _, nbr in mesh4.neighbors(node))
            assert sorted(adj[node]) == expected

    def test_all_off_equals_ring(self, mesh4, ring4):
        adj = reachability_edges(mesh4, ring4, set())
        for node in range(16):
            assert adj[node] == [ring4.successor[node]]

    def test_off_router_enterable_only_via_bypass_inport(self, mesh4, ring4):
        off = ring4.order[5]
        on = set(range(16)) - {off}
        adj = reachability_edges(mesh4, ring4, on)
        pred = ring4.predecessor[off]
        for node in range(16):
            if off in adj[node]:
                assert node == pred


class TestFloydWarshall:
    def test_simple_chain(self):
        dist = floyd_warshall([[1], [2], []])
        assert dist[0][2] == 2
        assert dist[2][0] == float("inf")
        assert dist[1][1] == 0

    def test_all_on_matches_manhattan(self, mesh4, ring4):
        adj = reachability_edges(mesh4, ring4, set(range(16)))
        dist = floyd_warshall(adj)
        for a in range(16):
            for b in range(16):
                assert dist[a][b] == mesh4.hop_distance(a, b)


    def test_costed_chain(self):
        """With ``cost`` a hop u->v is charged at v's price."""
        dist = floyd_warshall([[1], [2], []], cost=[9, 5, 3])
        assert dist[0][1] == 5
        assert dist[0][2] == 8
        assert dist[0][0] == 0
        assert dist[2][0] == INF


# ---------------------------------------------------------------------------
# the full-evaluation search, kept here as the reference
# ---------------------------------------------------------------------------
def reference_metrics(mesh, ring, on_set):
    on = set(on_set)
    n = mesh.num_nodes
    adj = reachability_edges(mesh, ring, on)
    hops = floyd_warshall(adj)
    lat = floyd_warshall(adj, [ON_HOP_COST if v in on else OFF_HOP_COST
                               for v in range(n)])
    total_hops = total_per_hop = 0.0
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            if hops[a][b] == INF:
                raise RuntimeError("disconnected")
            total_hops += hops[a][b]
            total_per_hop += lat[a][b] / hops[a][b]
    pairs = n * (n - 1)
    return total_hops / pairs, total_per_hop / pairs


def reference_greedy(mesh, ring, refine):
    """Forward selection (+ first-improvement swaps) that evaluates both
    metrics of every set it looks at."""
    def metrics(on_set):
        return reference_metrics(mesh, ring, on_set)

    everyone = set(range(mesh.num_nodes))
    chosen = set()
    out = [(frozenset(), *metrics(chosen))]
    while chosen != everyone:
        best, cand = min((metrics(chosen | {cand}), cand)
                         for cand in sorted(everyone - chosen))
        chosen = chosen | {cand}
        improved = refine
        while improved:
            improved = False
            for out_node in sorted(chosen):
                for in_node in sorted(everyone - chosen):
                    trial = (chosen - {out_node}) | {in_node}
                    if metrics(trial) < best:
                        chosen, best, improved = trial, metrics(trial), True
                        break
                if improved:
                    break
        out.append((frozenset(chosen), *best))
    return out


MESHES = {"4x4": Mesh(4, 4), "2x4": Mesh(2, 4), "4x6": Mesh(4, 6)}


class TestAgainstFullEvaluation:
    @pytest.mark.parametrize("refine", [True, False],
                             ids=["refined", "plain"])
    @pytest.mark.parametrize("name", sorted(MESHES))
    def test_curve_is_tuple_equal(self, name, refine):
        mesh = MESHES[name]
        ring = build_ring(mesh)
        curve = PlacementAnalysis(mesh, ring).greedy_selection(refine=refine)
        assert curve == reference_greedy(mesh, ring, refine)

    def test_latency_is_evaluated_only_where_it_decides(self, mesh4, ring4):
        """What makes the search cheap; the curve above is what shows it
        changes nothing."""
        analysis = PlacementAnalysis(mesh4, ring4)
        curve = analysis.greedy_selection()
        assert len(analysis._distances) > 500
        assert len(curve) <= len(analysis._latencies) < 100

    @settings(max_examples=60, deadline=None)
    @given(on=st.frozensets(st.integers(0, 15)))
    @example(on=frozenset())
    @example(on=frozenset(range(16)))
    def test_metrics_equal_reference(self, analysis, mesh4, ring4, on):
        assert analysis.metrics(on) == reference_metrics(mesh4, ring4, on)

    @settings(max_examples=40, deadline=None)
    @given(on=st.frozensets(st.integers(0, 15)), src=st.integers(0, 15))
    def test_single_source_primitives_equal_floyd_warshall(self, mesh4,
                                                           ring4, on, src):
        adj = reachability_edges(mesh4, ring4, on)
        cost = [ON_HOP_COST if v in on else OFF_HOP_COST for v in range(16)]
        assert bfs_hops(adj, src) == floyd_warshall(adj)[src]
        assert cheapest_paths(adj, cost, src) == \
            floyd_warshall(adj, cost)[src]

    def test_unreachable_nodes_are_marked(self):
        chain = [[1], [2], []]
        assert bfs_hops(chain, 1) == [-1, 0, 1]
        assert cheapest_paths(chain, [9, 5, 3], 1) == [-1, 0, 3]

    def test_disconnected_graph_still_raises(self, mesh4, ring4,
                                             monkeypatch):
        """A ring that does not close leaves nodes unreachable once
        routers are off; both metrics must refuse, not average over
        the pairs that happen to connect."""
        broken = dict(ring4.successor)
        broken[ring4.order[-1]] = ring4.order[-1]  # the ring never closes
        monkeypatch.setattr(ring4, "successor", broken)
        analysis = PlacementAnalysis(mesh4, ring4)
        with pytest.raises(RuntimeError, match="connected"):
            analysis.metrics([])
        with pytest.raises(RuntimeError, match="connected"):
            analysis.greedy_selection()
        assert analysis.metrics(range(16))[0] == pytest.approx(8 / 3)

    def test_instances_share_no_memo(self, mesh4, ring4):
        first = PlacementAnalysis(mesh4, ring4)
        second = PlacementAnalysis(mesh4, ring4)
        first.metrics(PAPER_PERF_CENTRIC_4X4)
        assert first._distances and first._latencies
        assert not second._distances and not second._latencies
        # ... so an analysis of another ring cannot be served this one's.
        other = PlacementAnalysis(Mesh(2, 4), build_ring(Mesh(2, 4)))
        assert other.metrics([]) != first.metrics([])


class TestMetrics:
    def test_all_on_metrics(self, analysis, mesh4):
        dist, per_hop = analysis.metrics(range(16))
        assert dist == pytest.approx(8 / 3)  # the 4x4 mesh's mean distance
        assert per_hop == pytest.approx(ON_HOP_COST)

    def test_all_off_metrics(self, analysis):
        """With every router off, packets ride the ring: the average
        distance over ordered pairs is N/2 = 8 hops at 3 cycles each."""
        dist, per_hop = analysis.metrics([])
        assert dist == pytest.approx(8.0)
        assert per_hop == pytest.approx(OFF_HOP_COST)

    def test_paper_set_beats_ring_only(self, analysis):
        dist_on, _ = analysis.metrics(PAPER_PERF_CENTRIC_4X4)
        dist_off, _ = analysis.metrics([])
        assert dist_on < dist_off

    def test_metrics_monotone_in_anchoring_points(self, analysis):
        """More routers on => per-hop latency rises toward 5 cycles."""
        _, lat0 = analysis.metrics([])
        _, lat16 = analysis.metrics(range(16))
        assert lat0 < lat16


class TestGreedySelection:
    def test_curve_shape(self, analysis):
        curve = analysis.greedy_selection()
        assert len(curve) == 17
        dists = [d for _, d, _ in curve]
        # distance broadly decreases from ring-only to full-mesh
        assert dists[0] == pytest.approx(8.0)
        assert dists[-1] == pytest.approx(8 / 3)
        assert min(dists) == dists[-1]
        # sets grow by one each step
        for k, (routers, _, _) in enumerate(curve):
            assert len(routers) == k

    def test_knee_set_size(self, analysis):
        assert len(analysis.knee_set(6)) == 6

    def test_refined_beats_paper_set_or_matches(self, analysis):
        """The refined greedy 6-set should be at least as good as the
        paper's hand-picked {4,5,6,7,13,14}."""
        curve = analysis.greedy_selection()
        paper_dist, _ = analysis.metrics(PAPER_PERF_CENTRIC_4X4)
        assert curve[6][1] <= paper_dist + 1e-9

    def test_exhaustive_best_small(self, mesh4, ring4):
        """The greedy first router is the best single one: an exhaustive
        search over all 16 finds no shorter average distance."""
        analysis = PlacementAnalysis(mesh4, ring4)
        best_dist = min(analysis.metrics([node])[0] for node in range(16))
        greedy = analysis.greedy_selection(refine=False)
        assert greedy[1][1] == pytest.approx(best_dist)


class TestDefaults:
    def test_default_perf_centric_4x4_is_paper_set(self, mesh4, ring4):
        assert default_perf_centric(mesh4, ring4) == PAPER_PERF_CENTRIC_4X4

    def test_default_ratio_for_larger_mesh(self):
        mesh = Mesh(8, 8)
        ring = build_ring(mesh)
        chosen = default_perf_centric(mesh, ring)
        assert len(chosen) == 24  # 6/16 of 64

    def test_central_routers_prefers_center(self):
        mesh = Mesh(4, 4)
        four = central_routers(mesh, 4)
        assert four == frozenset({5, 6, 9, 10})
