"""2-D mesh topology helpers.

Port numbering convention used throughout the simulator::

    0 = EAST  (+x)    1 = WEST (-x)
    2 = NORTH (+y)    3 = SOUTH (-y)
    4 = LOCAL (network interface)

"Output port EAST of router r" connects to "input port WEST of the router at
x+1", and so on.  The LOCAL port connects the router to its node's network
interface (NI).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

EAST, WEST, NORTH, SOUTH, LOCAL = 0, 1, 2, 3, 4
NUM_PORTS = 5

#: The input-port direction a flit arrives on after leaving through a given
#: output-port direction (E->W, W->E, N->S, S->N).
OPPOSITE = {EAST: WEST, WEST: EAST, NORTH: SOUTH, SOUTH: NORTH}


class Mesh:
    """A ``width`` x ``height`` 2-D mesh.

    Node ``i`` sits at ``(x, y) = (i % width, i // width)`` with y growing
    "north" (toward higher node ids).
    """

    def __init__(self, width: int, height: int) -> None:
        if width < 2 or height < 2:
            raise ValueError("mesh must be at least 2x2")
        self.width = width
        self.height = height
        self.num_nodes = width * height
        # Precompute neighbor tables: _neighbor[node][port] -> node or None.
        self._neighbor: List[List[Optional[int]]] = []
        for node in range(self.num_nodes):
            x, y = self.xy(node)
            row: List[Optional[int]] = [None] * NUM_PORTS
            if x + 1 < width:
                row[EAST] = self.node(x + 1, y)
            if x - 1 >= 0:
                row[WEST] = self.node(x - 1, y)
            if y + 1 < height:
                row[NORTH] = self.node(x, y + 1)
            if y - 1 >= 0:
                row[SOUTH] = self.node(x, y - 1)
            self._neighbor.append(row)
        # Lazy per-(node, dst) route caches.  Both functions are pure
        # geometry, and both sit on the per-flit hot path of every
        # routing function, so each pair is computed once per Mesh.
        self._min_cache: Dict[int, List[int]] = {}
        self._xyp_cache: Dict[int, int] = {}

    def xy(self, node: int) -> Tuple[int, int]:
        return node % self.width, node // self.width

    def node(self, x: int, y: int) -> int:
        return y * self.width + x

    def neighbor(self, node: int, port: int) -> Optional[int]:
        """The node reached by leaving ``node`` through output ``port``."""
        if port == LOCAL:
            return node
        return self._neighbor[node][port]

    def neighbors(self, node: int) -> Iterator[Tuple[int, int]]:
        """Yield ``(port, neighbor_node)`` for all mesh neighbors."""
        for port in (EAST, WEST, NORTH, SOUTH):
            nbr = self._neighbor[node][port]
            if nbr is not None:
                yield port, nbr

    def port_towards(self, src: int, dst: int) -> int:
        """The output port of ``src`` whose link leads to adjacent ``dst``."""
        for port, nbr in self.neighbors(src):
            if nbr == dst:
                return port
        raise ValueError(f"nodes {src} and {dst} are not adjacent")

    def hop_distance(self, a: int, b: int) -> int:
        """Manhattan distance between nodes ``a`` and ``b``."""
        ax, ay = self.xy(a)
        bx, by = self.xy(b)
        return abs(ax - bx) + abs(ay - by)

    def minimal_ports(self, node: int, dst: int) -> List[int]:
        """Productive (distance-reducing) output ports from ``node``.

        Returns ``[LOCAL]`` when ``node == dst``.  The list is cached
        and shared between calls - callers must not mutate it.
        """
        key = node * self.num_nodes + dst
        ports = self._min_cache.get(key)
        if ports is not None:
            return ports
        if node == dst:
            ports = [LOCAL]
        else:
            x, y = self.xy(node)
            dx, dy = self.xy(dst)
            ports = []
            if dx > x:
                ports.append(EAST)
            elif dx < x:
                ports.append(WEST)
            if dy > y:
                ports.append(NORTH)
            elif dy < y:
                ports.append(SOUTH)
        self._min_cache[key] = ports
        return ports

    def xy_port(self, node: int, dst: int) -> int:
        """The XY (dimension-order) output port from ``node`` toward
        ``dst``, ``LOCAL`` when equal.  Cached per pair."""
        key = node * self.num_nodes + dst
        port = self._xyp_cache.get(key)
        if port is not None:
            return port
        x, y = self.xy(node)
        dx, dy = self.xy(dst)
        if dx > x:
            port = EAST
        elif dx < x:
            port = WEST
        elif dy > y:
            port = NORTH
        elif dy < y:
            port = SOUTH
        else:
            port = LOCAL
        self._xyp_cache[key] = port
        return port

    def average_distance(self) -> float:
        """Average Manhattan distance over all ordered node pairs."""
        total = 0
        count = 0
        for a in range(self.num_nodes):
            for b in range(self.num_nodes):
                if a != b:
                    total += self.hop_distance(a, b)
                    count += 1
        return total / count

    def corners(self) -> List[int]:
        """The four corner nodes (memory-controller placement, Table 1)."""
        return [
            self.node(0, 0),
            self.node(self.width - 1, 0),
            self.node(0, self.height - 1),
            self.node(self.width - 1, self.height - 1),
        ]
