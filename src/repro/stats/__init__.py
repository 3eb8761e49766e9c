"""Measurement: run statistics, idle-period analysis, report formatting."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "collector": ("RouterActivity", "RunResult", "StatsCollector"),
    "idle": ("IdlePeriodStats", "histogram_buckets"),
    "report": ("format_series", "format_table", "normalized", "percent"),
    "visualize": ("StateTimeline", "occupancy_heatmap", "power_state_map",
                  "ring_map"),
})
