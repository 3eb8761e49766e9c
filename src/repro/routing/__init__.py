"""Routing algorithms: minimal adaptive + XY escape, NoRD ring escape."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "base": ("RouteChoice", "RoutingFunction"),
    "adaptive": ("AdaptiveXYEscape",),
    "ring_escape": ("NoRDRouting",),
})
