"""NoRD-specific machinery: Bypass Ring, placement analysis, thresholds."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "placement": ("PAPER_PERF_CENTRIC_4X4", "PlacementAnalysis",
                  "central_routers", "default_perf_centric"),
    "ring": ("BypassRing", "build_ring", "paper_ring_4x4",
             "serpentine_ring"),
    "thresholds": ("ThresholdPolicy",),
})
