"""Workload generation: synthetic patterns, PARSEC-like models, traces."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "base": ("LONG_PACKET_FLITS", "SHORT_PACKET_FLITS", "NullTraffic",
             "ScriptedTraffic", "TrafficGenerator"),
    "parsec": ("BENCHMARKS", "MEMORY_LATENCY", "PROFILES",
               "BenchmarkProfile", "ParsecTraffic", "make_traffic"),
    "synthetic": ("SyntheticTraffic", "bit_complement",
                  "bit_complement_pattern", "hotspot_pattern", "tornado",
                  "tornado_pattern", "transpose_pattern", "uniform_pattern",
                  "uniform_random"),
    "trace": ("TraceRecorder", "TraceReplay", "load_trace", "save_trace"),
})
