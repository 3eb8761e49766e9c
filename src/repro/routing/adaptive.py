"""Minimal adaptive routing with XY escape (Duato's Protocol).

This is the routing used by No_PG, Conv_PG and Conv_PG_OPT (Section 5.1):
packets on adaptive VCs may take any productive (distance-reducing) output
port; packets on the escape VC follow XY.  Under conventional power-gating a
productive port leading to a gated-off router is still *chosen* - the packet
then stalls in SA and asserts the WU signal - but when an awake productive
alternative exists it is preferred, which is the natural optimization every
conventional-PG baseline includes.
"""

from __future__ import annotations

from ..noc.flit import Packet
from .base import RouteChoice, RouterView, RoutingFunction


class AdaptiveXYEscape(RoutingFunction):
    """Minimal adaptive on adaptive VCs, XY on the escape VC."""

    def route(self, router: RouterView, packet: Packet) -> RouteChoice:
        node = router.node
        minimal = self.mesh.minimal_ports(node, packet.dst)
        # Route around hard-failed neighbors when a live minimal option
        # exists (no-op without fault injection: port_failed is never set).
        alive = [p for p in minimal if not router.port_failed(p)]
        if alive:
            minimal = alive
        # Prefer ports whose downstream router is awake; fall back to gated
        # ports (the packet will wake the neighbor from the SA stage).
        awake = [p for p in minimal if router.neighbor_awake(p)]
        adaptive = awake if awake else list(minimal)
        return RouteChoice(
            adaptive_ports=adaptive,
            escape_port=self.mesh.xy_port(node, packet.dst),
        )
