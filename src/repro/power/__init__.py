"""Orion-like power and area models calibrated to the paper's Figure 1."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "area": ("AreaReport", "nord_area_overhead", "router_area"),
    "model": ("EnergyReport", "PowerModel", "router_power_decomposition",
              "static_power_share"),
    "technology": ("DEFAULT_TECH", "TECH_45NM", "TechNode", "get_tech"),
})
