"""Workload generation: synthetic patterns and PARSEC-like models."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "base": ("LONG_PACKET_FLITS", "SHORT_PACKET_FLITS", "NullTraffic",
             "ScriptedTraffic", "TrafficGenerator"),
    "parsec": ("BENCHMARKS", "MEMORY_LATENCY", "PROFILES",
               "BenchmarkProfile", "ParsecTraffic", "make_traffic"),
    "synthetic": ("SyntheticTraffic", "bit_complement", "tornado",
                  "uniform_random"),
})
