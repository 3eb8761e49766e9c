"""Mesh topology: coordinates, neighbors, minimal routing directions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.topology import (EAST, LOCAL, NORTH, NUM_PORTS, OPPOSITE,
                                SOUTH, WEST, Mesh)

meshes = st.tuples(st.integers(2, 8), st.integers(2, 8))


class TestConstruction:
    def test_rejects_degenerate_mesh(self):
        with pytest.raises(ValueError):
            Mesh(1, 4)
        with pytest.raises(ValueError):
            Mesh(4, 1)

    def test_num_nodes(self):
        assert Mesh(4, 4).num_nodes == 16
        assert Mesh(8, 8).num_nodes == 64
        assert Mesh(3, 5).num_nodes == 15

    def test_xy_layout(self):
        mesh = Mesh(4, 4)
        assert mesh.xy(0) == (0, 0)
        assert mesh.xy(3) == (3, 0)
        assert mesh.xy(4) == (0, 1)
        assert mesh.xy(15) == (3, 3)
        assert mesh.node(2, 3) == 14


class TestNeighbors:
    def test_interior_node_has_four_neighbors(self):
        mesh = Mesh(4, 4)
        assert mesh.neighbor(5, EAST) == 6
        assert mesh.neighbor(5, WEST) == 4
        assert mesh.neighbor(5, NORTH) == 9
        assert mesh.neighbor(5, SOUTH) == 1

    def test_corner_has_two_neighbors(self):
        mesh = Mesh(4, 4)
        assert mesh.neighbor(0, WEST) is None
        assert mesh.neighbor(0, SOUTH) is None
        assert mesh.neighbor(0, EAST) == 1
        assert mesh.neighbor(0, NORTH) == 4

    def test_local_neighbor_is_self(self):
        mesh = Mesh(4, 4)
        assert mesh.neighbor(7, LOCAL) == 7

    @given(meshes)
    @settings(max_examples=20, deadline=None)
    def test_neighbor_symmetry(self, wh):
        """If B is A's neighbor through port p, A is B's through OPPOSITE."""
        mesh = Mesh(*wh)
        for node in range(mesh.num_nodes):
            for port, nbr in mesh.neighbors(node):
                assert mesh.neighbor(nbr, OPPOSITE[port]) == node

    def test_port_towards(self):
        mesh = Mesh(4, 4)
        assert mesh.port_towards(5, 6) == EAST
        assert mesh.port_towards(6, 5) == WEST
        assert mesh.port_towards(5, 9) == NORTH

    def test_port_towards_rejects_non_adjacent(self):
        mesh = Mesh(4, 4)
        with pytest.raises(ValueError):
            mesh.port_towards(0, 15)


class TestDistancesAndMinimalPorts:
    def test_hop_distance_is_manhattan(self):
        mesh = Mesh(4, 4)
        assert mesh.hop_distance(0, 15) == 6
        assert mesh.hop_distance(0, 0) == 0
        assert mesh.hop_distance(5, 6) == 1

    @given(meshes)
    @settings(max_examples=15, deadline=None)
    def test_distance_symmetry(self, wh):
        mesh = Mesh(*wh)
        nodes = range(mesh.num_nodes)
        for a in list(nodes)[:6]:
            for b in list(nodes)[-6:]:
                assert mesh.hop_distance(a, b) == mesh.hop_distance(b, a)

    def test_minimal_ports_at_destination(self):
        mesh = Mesh(4, 4)
        assert mesh.minimal_ports(7, 7) == [LOCAL]

    def test_minimal_ports_diagonal_gives_two_choices(self):
        mesh = Mesh(4, 4)
        ports = mesh.minimal_ports(0, 5)
        assert set(ports) == {EAST, NORTH}

    def test_minimal_ports_aligned_gives_one_choice(self):
        mesh = Mesh(4, 4)
        assert mesh.minimal_ports(0, 3) == [EAST]
        assert mesh.minimal_ports(12, 0) == [SOUTH]

    @given(meshes, st.randoms())
    @settings(max_examples=25, deadline=None)
    def test_minimal_ports_reduce_distance(self, wh, rnd):
        mesh = Mesh(*wh)
        src = rnd.randrange(mesh.num_nodes)
        dst = rnd.randrange(mesh.num_nodes)
        if src == dst:
            return
        for port in mesh.minimal_ports(src, dst):
            nbr = mesh.neighbor(src, port)
            assert mesh.hop_distance(nbr, dst) == mesh.hop_distance(src, dst) - 1

    def test_average_distance_4x4(self):
        """Mean Manhattan distance on 4x4 is 8/3 (known closed form)."""
        mesh = Mesh(4, 4)
        dists = [mesh.hop_distance(a, b) for a in range(16)
                 for b in range(16) if a != b]
        assert sum(dists) / len(dists) == pytest.approx(8 / 3)

    def test_corners(self):
        assert Mesh(4, 4).corners() == [0, 3, 12, 15]
        assert Mesh(8, 8).corners() == [0, 7, 56, 63]
