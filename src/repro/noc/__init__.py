"""Cycle-level NoC substrate: flits, buffers, links, routers, NIs, network."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "flit": ("Flit", "FlitType", "Packet"),
    "topology": ("EAST", "LOCAL", "NORTH", "NUM_PORTS", "OPPOSITE", "SOUTH",
                 "WEST", "Mesh"),
    "network": ("Network",),
})
