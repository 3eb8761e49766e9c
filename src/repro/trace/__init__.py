"""Flit-level event tracing and latency decomposition.

This package is the simulator's observability layer (DESIGN.md section 7):

* :mod:`repro.trace.events` - the typed, slotted event records and the
  event taxonomy (pipeline stages, NI bypass datapath, link traversal,
  power-gate FSM transitions);
* :mod:`repro.trace.recorder` - :class:`EventTrace`, a bounded ring
  buffer the network records into, plus the JSONL / Chrome-trace
  (Perfetto) exporters and the per-run digest used by the golden-trace
  regression harness;
* :mod:`repro.trace.decompose` - reconstructs each delivered packet's
  event timeline into a latency decomposition (queueing + pipeline +
  wakeup-wait + bypass + link + serialization) that sums *exactly* to
  its measured end-to-end latency;
* :mod:`repro.trace.golden` - the golden-trace scenarios, fixture I/O
  and the ``python -m repro.trace.golden`` check/update CLI.

Tracing is strictly an observer: with no trace attached (the default)
every hook reduces to one attribute check, and a traced run's
:class:`repro.stats.collector.RunResult` is byte-identical to an
untraced one (asserted by ``tests/test_trace_identity.py`` and the
``drift`` CI job's ``--trace`` variant).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "decompose": ("LatencyDecomposition", "decompose_packet",
                  "decompose_trace", "summarize"),
    "events": ("EVENT_NAMES", "EventKind", "TraceEvent"),
    "spec": ("DEFAULT_LIMIT", "TraceSpec"),
    "recorder": ("EventTrace", "export_trace", "trace_digest"),
})
