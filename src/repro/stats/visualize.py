"""ASCII visualization of network state.

Rendering helpers used by examples and debugging sessions:

* :func:`power_state_map` - the mesh with each router's power state;
* :func:`occupancy_heatmap` - buffer occupancy per router;
* :func:`ring_map` - the Bypass Ring order overlaid on the mesh;
* :class:`StateTimeline` - samples per-router power states every cycle and
  renders them as one character strip per router (reading a strip shows
  exactly when a router slept, woke and ran - the paper's Figure 2(b)
  intervals, per router, over real traffic).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from ..noc.topology import NUM_PORTS
from ..powergate.controller import PowerState

if TYPE_CHECKING:  # pragma: no cover
    from ..noc.network import Network

#: One character per power state.
STATE_CHARS = {
    PowerState.ON: "#",
    PowerState.OFF: ".",
    PowerState.WAKING: "~",
}

#: Occupancy buckets for the heatmap (flits per router).
HEAT_CHARS = " .:-=+*#"


def _grid_lines(network: "Network", cell) -> List[str]:
    mesh = network.mesh
    lines = []
    for y in reversed(range(mesh.height)):
        lines.append(" ".join(cell(mesh.node(x, y))
                              for x in range(mesh.width)))
    return lines


def power_state_map(network: "Network") -> str:
    """Mesh map of router power states (# on, . off, ~ waking)."""

    def cell(node: int) -> str:
        return STATE_CHARS[network.controllers[node].state]

    legend = "# on   . off   ~ waking"
    return "\n".join(_grid_lines(network, cell) + [legend])


def occupancy_heatmap(network: "Network") -> str:
    """Mesh map of input-buffer occupancy, bucketed to one char."""
    max_fill = (network.cfg.noc.buffer_depth * network.cfg.noc.vcs_per_port
                * NUM_PORTS)

    def cell(node: int) -> str:
        fill = sum(n for _, _, n in network.buffered_vcs(node))
        idx = min(len(HEAT_CHARS) - 1,
                  int(len(HEAT_CHARS) * fill / max(1, max_fill)))
        return HEAT_CHARS[idx]

    return "\n".join(_grid_lines(network, cell))


def ring_map(network: "Network") -> str:
    """The Bypass Ring position of every node, on the mesh grid."""
    if network.ring is None:
        return "(no bypass ring: not a NoRD network)"

    def cell(node: int) -> str:
        return f"{network.ring.position[node]:3d}"

    lines = _grid_lines(network, cell)
    lines.append(f"(ring index per node; dateline after node "
                 f"{network.ring.dateline_node})")
    return "\n".join(lines)


class StateTimeline:
    """Samples per-router power states; renders one strip per router."""

    def __init__(self, network: "Network") -> None:
        self.network = network
        self.samples: List[List[int]] = [
            [] for _ in range(network.mesh.num_nodes)
        ]

    def sample(self) -> None:
        for node, ctrl in enumerate(self.network.controllers):
            self.samples[node].append(ctrl.state)

    def run(self, cycles: int, traffic=None) -> None:
        """Advance the network ``cycles`` cycles, sampling each one."""
        for _ in range(cycles):
            if traffic is not None:
                self.network._inject_arrivals(traffic)
            self.network.step()
            self.sample()

    def render(self, *, stride: int = 1, width: Optional[int] = None) -> str:
        """One line per router; every ``stride``-th sample becomes a char."""
        lines = []
        for node, states in enumerate(self.samples):
            strip = "".join(STATE_CHARS[s] for s in states[::stride])
            if width is not None:
                strip = strip[:width]
            lines.append(f"r{node:<3d} |{strip}|")
        lines.append("      (# on, . off, ~ waking; time runs left->right)")
        return "\n".join(lines)

    def off_fractions(self) -> List[float]:
        out = []
        for states in self.samples:
            if not states:
                out.append(0.0)
                continue
            out.append(sum(1 for s in states if s == PowerState.OFF)
                       / len(states))
        return out
