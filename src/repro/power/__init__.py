"""Orion-like power and area models calibrated to the paper's Figure 1."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "area": ("AreaReport", "nord_area_overhead", "router_area"),
    "model": ("EnergyReport", "PowerModel", "router_power_decomposition",
              "static_power_share"),
    "technology": ("DEFAULT_TECH", "TECH_32NM", "TECH_45NM", "TECH_65NM",
                   "TechNode", "get_tech"),
})
