"""Bypass Ring construction (Section 4.2).

At the chip level, one input port (the *Bypass Inport*) and one output port
(the *Bypass Outport*) are chosen per router such that the pairs form a
unidirectional Hamiltonian ring connecting all nodes.  Packets on escape
resources travel along the ring; when a router is gated off, the ring is the
only way through it.

Two constructions are provided:

* :func:`paper_ring_4x4` - a ring consistent with the paper's Figure 4(a)
  commentary (it contains the segment 9 -> 13 -> 12 -> 8 that the paper cites
  as the detour shortcut by powering routers 4 and 5, Section 4.4);
* :func:`serpentine_ring` - a general Hamiltonian cycle for any mesh with an
  even number of rows (top row east, serpentine through columns 1..W-1,
  return along column 0), used for 8x8 and other sizes.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..noc.topology import Mesh, OPPOSITE


class BypassRing:
    """A unidirectional Hamiltonian ring over a mesh.

    Attributes:
        order: node ids in ring order; ``order[i+1]`` is the ring successor
            of ``order[i]`` (wrapping).
        successor / predecessor: node -> node maps.
        outport: node -> mesh output port leading to the ring successor
            (the node's Bypass Outport).
        inport: node -> mesh input port on which ring traffic arrives
            (the node's Bypass Inport).
        position: node -> index along the ring (for dateline VC selection).
    """

    def __init__(self, mesh: Mesh, order: Sequence[int]) -> None:
        if sorted(order) != list(range(mesh.num_nodes)):
            raise ValueError("ring must visit every node exactly once")
        self.mesh = mesh
        self.order: List[int] = list(order)
        self.successor: Dict[int, int] = {}
        self.predecessor: Dict[int, int] = {}
        self.outport: Dict[int, int] = {}
        self.inport: Dict[int, int] = {}
        self.position: Dict[int, int] = {}
        n = len(self.order)
        for i, node in enumerate(self.order):
            nxt = self.order[(i + 1) % n]
            self.successor[node] = nxt
            self.predecessor[nxt] = node
            self.position[node] = i
            port = mesh.port_towards(node, nxt)  # raises if not adjacent
            self.outport[node] = port
            self.inport[nxt] = OPPOSITE[port]

    @property
    def dateline_node(self) -> int:
        """The last node on the ring; leaving it crosses the dateline.

        Escape packets start on escape VC 0 and switch to escape VC 1 after
        crossing the dateline edge (order[-1] -> order[0]), breaking the
        ring's cyclic channel dependence (Section 4.2).
        """
        return self.order[-1]

    def crosses_dateline(self, node: int) -> bool:
        """True if the ring hop out of ``node`` crosses the dateline."""
        return node == self.dateline_node

    def __len__(self) -> int:
        return len(self.order)


def paper_ring_4x4(mesh: Mesh) -> BypassRing:
    """The 4x4 Bypass Ring used in the paper's running example.

    Contains the consecutive segment 9 -> 13 -> 12 -> 8 referenced in
    Section 4.4's detour example.
    """
    if (mesh.width, mesh.height) != (4, 4):
        raise ValueError("paper ring is defined for a 4x4 mesh only")
    order = [0, 1, 5, 6, 2, 3, 7, 11, 15, 14, 10, 9, 13, 12, 8, 4]
    return BypassRing(mesh, order)


def serpentine_ring(mesh: Mesh) -> BypassRing:
    """A Hamiltonian cycle for any mesh whose height is even.

    Construction: travel east along row 0; serpentine through rows 1..H-1
    restricted to columns 1..W-1; return north along column 0.
    """
    if mesh.height % 2 != 0:
        raise ValueError("serpentine ring needs an even number of rows")
    order: List[int] = [mesh.node(x, 0) for x in range(mesh.width)]
    for y in range(1, mesh.height):
        xs = range(mesh.width - 1, 0, -1) if y % 2 == 1 else range(1, mesh.width)
        order.extend(mesh.node(x, y) for x in xs)
    order.extend(mesh.node(0, y) for y in range(mesh.height - 1, 0, -1))
    return BypassRing(mesh, order)


def build_ring(mesh: Mesh, *, prefer_paper: bool = True) -> BypassRing:
    """Build the default Bypass Ring for ``mesh``.

    The paper's 4x4 ring is used when applicable; otherwise the general
    serpentine construction.
    """
    if prefer_paper and (mesh.width, mesh.height) == (4, 4):
        return paper_ring_4x4(mesh)
    return serpentine_ring(mesh)
