"""Power-gating controllers for No_PG, Conv_PG, Conv_PG_OPT and NoRD."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "controller": ("NoPGController", "PowerGateController", "PowerState",
                   "Transition"),
    "conventional": ("ConvPGController", "ConvPGOptController"),
    "nord": ("NoRDController",),
})
