"""Bypass Ring construction (Section 4.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ring import (BypassRing, build_ring, paper_ring_4x4,
                             serpentine_ring)
from repro.noc.topology import OPPOSITE, Mesh


def _assert_valid_ring(mesh, ring):
    # Hamiltonian: visits every node exactly once.
    assert sorted(ring.order) == list(range(mesh.num_nodes))
    seen = set()
    node = ring.order[0]
    for _ in range(mesh.num_nodes):
        seen.add(node)
        nxt = ring.successor[node]
        # consecutive ring nodes are mesh-adjacent
        assert mesh.hop_distance(node, nxt) == 1
        # port bookkeeping is consistent
        assert mesh.neighbor(node, ring.outport[node]) == nxt
        assert ring.inport[nxt] == OPPOSITE[ring.outport[node]]
        assert ring.predecessor[nxt] == node
        node = nxt
    assert seen == set(range(mesh.num_nodes))
    assert node == ring.order[0]  # closed cycle


class TestPaperRing:
    def test_valid_hamiltonian_cycle(self):
        mesh = Mesh(4, 4)
        _assert_valid_ring(mesh, paper_ring_4x4(mesh))

    def test_contains_section_44_detour_segment(self):
        """The paper's example detour 9 -> 13 -> 12 -> 8 lies on the ring."""
        ring = paper_ring_4x4(Mesh(4, 4))
        assert ring.successor[9] == 13
        assert ring.successor[13] == 12
        assert ring.successor[12] == 8

    def test_rejects_wrong_mesh(self):
        with pytest.raises(ValueError):
            paper_ring_4x4(Mesh(8, 8))


class TestSerpentineRing:
    @pytest.mark.parametrize("wh", [(4, 4), (8, 8), (3, 4), (5, 6), (2, 2)])
    def test_valid_for_even_heights(self, wh):
        mesh = Mesh(*wh)
        _assert_valid_ring(mesh, serpentine_ring(mesh))

    def test_rejects_odd_height(self):
        with pytest.raises(ValueError, match="even"):
            serpentine_ring(Mesh(4, 3))

    @given(st.integers(2, 7), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_property_valid_for_random_even_meshes(self, width, half_height):
        mesh = Mesh(width, 2 * half_height)
        _assert_valid_ring(mesh, serpentine_ring(mesh))


class TestBypassRingQueries:
    def test_ring_distance(self):
        """k successor hops from a node reach the node k positions on,
        and 16 hops come back: the ring distance is a position
        difference modulo the ring's length."""
        ring = build_ring(Mesh(4, 4))
        for start in ring.order:
            node = start
            for k in range(1, 17):
                node = ring.successor[node]
                assert ring.position[node] == \
                    (ring.position[start] + k) % len(ring)
            assert node == start

    def test_dateline_is_last_node(self):
        ring = build_ring(Mesh(4, 4))
        assert ring.dateline_node == ring.order[-1]
        assert ring.crosses_dateline(ring.dateline_node)
        assert not ring.crosses_dateline(ring.order[0])

    def test_build_ring_prefers_paper_for_4x4(self):
        ring = build_ring(Mesh(4, 4))
        assert ring.successor[9] == 13  # paper-ring signature

    def test_build_ring_serpentine_otherwise(self):
        mesh = Mesh(8, 8)
        _assert_valid_ring(mesh, build_ring(mesh))

    def test_rejects_non_hamiltonian_order(self):
        mesh = Mesh(4, 4)
        with pytest.raises(ValueError, match="every node"):
            BypassRing(mesh, [0, 1, 2, 3])

    def test_rejects_non_adjacent_order(self):
        mesh = Mesh(4, 4)
        bad = list(range(16))
        bad[1], bad[2] = bad[2], bad[1]  # 0 -> 2 is not adjacent
        with pytest.raises(ValueError):
            BypassRing(mesh, bad)

    def test_len(self):
        assert len(build_ring(Mesh(4, 4))) == 16
