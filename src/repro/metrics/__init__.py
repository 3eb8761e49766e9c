"""Time-series telemetry for the simulator (``repro.metrics``).

Two layers, both pure observers of a :class:`repro.noc.network.Network`:

* a :class:`MetricsRegistry` of counters, gauges and fixed-bucket
  histograms (flat int lists, Prometheus-style exposition), fed by
  event hooks that cost one ``is None`` check when metrics are off -
  the same zero-overhead contract as the trace hooks;
* a :class:`TimelineSampler` that snapshots windowed rates every N
  cycles: per-router power-state duty cycles, NI injection / ejection /
  bypass rates, escape-vs-adaptive VC occupancy, link utilization and
  NoRD wakeup-threshold pressure.

Artifacts per instrumented run: ``<basename>.metrics.jsonl`` (meta +
one line per snapshot + registry summary), ``<basename>.metrics.csv``
(the network-wide timeline) and ``<basename>.prom`` (Prometheus text
exposition).  ``python -m repro.metrics.report`` folds a directory of
them into one self-contained HTML report (inline SVG, no external
requests).

A run with metrics enabled produces a ``RunResult`` field-identical to
one without (asserted by ``tests/test_metrics_identity.py`` and the
``drift`` CI job's ``--metrics`` variant).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "registry": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
    "spec": ("DEFAULT_INTERVAL", "MetricsSpec"),
    "sampler": ("MetricsRun", "TimelineSampler", "export_metrics",
                "export_profile", "idle_bucket_bounds",
                "registry_from_profile"),
})
