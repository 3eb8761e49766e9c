"""Routing-function interface.

All designs use Duato's Protocol (Section 5.1): fully adaptive routing on
the *adaptive* VCs plus a deadlock-free *escape* sub-network.  The designs
differ only in the escape mechanism:

* No_PG / Conv_PG / Conv_PG_OPT - escape VCs use dimension-order XY routing;
* NoRD - escape VCs are confined to the unidirectional Bypass Ring, with two
  escape VCs and a dateline to break the ring's cyclic dependence.

VC numbering convention: VCs ``[0, escape_vcs)`` are escape VCs; VCs
``[escape_vcs, vcs_per_port)`` are adaptive VCs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol, Sequence

from ..noc.flit import Packet
from ..noc.topology import LOCAL, Mesh

#: Cycles a head waits in VA (or an NI waits for a bypass/injection VC)
#: before it also requests escape VCs: Duato's protocol guarantees
#: deadlock freedom because blocked packets can always fall back to the
#: escape sub-network.
ESCAPE_PATIENCE = 8


@dataclass
class RouteChoice:
    """Result of route computation for a head flit at one router.

    ``adaptive_ports`` are candidate output ports for adaptive VCs, in
    preference order.  ``escape_port`` is the single output port a packet on
    escape VCs must take.  ``force_escape`` is set when the packet has
    exhausted its misroute budget and must leave adaptive resources
    (Section 4.2).
    """

    adaptive_ports: List[int]
    escape_port: int
    force_escape: bool = False


class RouterView(Protocol):
    """What a routing function may observe about the local router.

    ``port_usable(port)`` says whether an output port can currently carry
    flits: for the conventional designs a gated port is *chosen but stalls
    in SA* (waking the neighbor); for NoRD a port to an off router is only
    usable when it is that neighbor's Bypass Inport.
    """

    node: int

    def port_usable(self, port: int) -> bool: ...
    def neighbor_awake(self, port: int) -> bool: ...
    def port_failed(self, port: int) -> bool: ...


class RoutingFunction:
    """Base class: minimal adaptive routing with a design-specific escape."""

    def __init__(self, mesh: Mesh, misroute_cap: int) -> None:
        self.mesh = mesh
        self.misroute_cap = misroute_cap

    def route(self, router: "RouterView", packet: Packet) -> RouteChoice:
        """Compute the routing choice for ``packet`` at ``router``."""
        raise NotImplementedError

    def is_minimal(self, node: int, port: int, dst: int) -> bool:
        """True if leaving ``node`` through ``port`` reduces distance."""
        if port == LOCAL:
            return node == dst
        return port in self.mesh.minimal_ports(node, dst)

    def must_escape(self, packet: Packet) -> bool:
        """Whether the packet has exhausted its adaptive-resource budget.

        Misroutes are counted at powered-on routers' routing decisions; the
        hop cap is a safety net bounding total path length (forced ring
        hops through off routers are free, so a pathological alternation of
        free ring hops and minimal hops could otherwise circle forever).
        """
        if packet.misroutes >= self.misroute_cap:
            return True
        return packet.hops >= self.hop_cap

    @property
    def hop_cap(self) -> int:
        return 4 * self.mesh.num_nodes

    def escape_vc_for_hop(self, node: int, packet: Packet) -> int:
        """Escape VC index to request for the next escape hop from ``node``.

        The default (XY escape) uses a single escape VC 0; the ring escape
        overrides this with the dateline rule.
        """
        return 0

    def note_escape_hop(self, node: int, packet: Packet) -> None:
        """Record state changes caused by taking an escape hop (dateline)."""
