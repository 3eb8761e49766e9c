"""Measurement: run statistics, idle-period analysis, report formatting."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "collector": ("RouterActivity", "RunResult", "StatsCollector"),
    "idle": ("IdlePeriodStats",),
    "report": ("format_table", "percent"),
})
