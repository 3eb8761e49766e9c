"""Dimension-order (XY) routing, the escape mechanism of the
conventional designs.

Packets fully traverse the X dimension before turning into Y, which is
provably deadlock-free on a mesh.
"""

from __future__ import annotations

from ..noc.topology import Mesh


def xy_port(mesh: Mesh, node: int, dst: int) -> int:
    """The XY output port from ``node`` toward ``dst`` (LOCAL when equal)."""
    return mesh.xy_port(node, dst)
