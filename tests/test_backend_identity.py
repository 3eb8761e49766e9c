"""Differential harness: the SoA kernel vs the object-graph reference.

The kernel-identity contract (DESIGN.md section 9): for every
configuration the SoA kernel serves, ``Network(cfg, backend="soa")``
must produce a :class:`RunResult` field-identical to the reference
kernel.  These tests enforce the contract directly - same config, same
traffic, same seed, run under both kernels, compared field by field
(``RunResult.__eq__`` excludes only the host wall-clock and provenance
fields) - and, with an event trace attached to both legs, the same
canonical event stream, event for event (a traced run executes on the
SoA kernel like an untraced one).

Kernel *pinning* (explicit argument > ``REPRO_BACKEND``, with the
warned fallback for features the SoA kernel does not serve) is covered
here too, as is the cache-key folding in the experiments runner.  The
full selection table (unpinned runs included) lives in
tests/test_kernel_identity.py, the home of new kernel-identity tests;
this file and tests/test_fast_mode_identity.py keep their names only
because the tier-1 floor tracks tests by id.
"""

import dataclasses
import warnings

import pytest

from repro.config import Design, small_config
from repro.experiments import parallel
from repro.noc.network import BACKENDS, Network, resolve_backend
from repro.noc.soa import SoANetwork
from repro.trace.recorder import EventTrace
from repro.traffic.synthetic import (hotspot, tornado, transpose,
                                     uniform_random)
from tests.tracediff import assert_same_events

TRAFFIC_MAKERS = {
    "uniform": uniform_random,
    "tornado": tornado,
    "transpose": transpose,
    "hotspot": hotspot,
}


def run_once(design, backend, kind="uniform", *, rate=0.1, seed=3,
             width=4, height=4, warmup=100, measure=600,
             speculative=False, aggressive=False, trace=False):
    """One deterministic run."""
    cfg = small_config(design, width=width, height=height,
                       warmup=warmup, measure=measure)
    if speculative:
        cfg = cfg.replace(noc=dataclasses.replace(cfg.noc,
                                                  speculative=True))
    if aggressive:
        cfg = cfg.replace(pg=dataclasses.replace(cfg.pg,
                                                 aggressive_bypass=True))
    recorder = EventTrace() if trace else None
    net = Network(cfg, backend=backend, trace=recorder)
    traffic = TRAFFIC_MAKERS[kind](net.mesh, rate, seed=seed)
    result = net.run(traffic)
    return net, result, recorder


def assert_identical(res_ref, res_soa):
    """Field-by-field comparison with a readable failure message."""
    if res_ref == res_soa:
        return
    diffs = []
    for fld in res_ref.__dataclass_fields__:
        a, b = getattr(res_ref, fld), getattr(res_soa, fld)
        if a != b:
            diffs.append(f"{fld}: ref={a!r} soa={b!r}")
    raise AssertionError("backend drift:\n" + "\n".join(diffs))


def assert_differential(design, **kwargs):
    """Run ``ref`` and ``soa``, both traced: field-identical results and
    the same event stream."""
    net_ref, res_ref, trace_ref = run_once(design, "ref", trace=True,
                                           **kwargs)
    net_soa, res_soa, trace_soa = run_once(design, "soa", trace=True,
                                           **kwargs)
    assert type(net_ref) is Network
    assert isinstance(net_soa, SoANetwork)
    assert_identical(res_ref, res_soa)
    assert_same_events(trace_ref.canonical_lines(),
                       trace_soa.canonical_lines(), f"{design} {kwargs}")


class TestRunResultIdentity:
    @pytest.mark.parametrize("design", Design.ALL)
    @pytest.mark.parametrize("kind", sorted(TRAFFIC_MAKERS))
    def test_field_identical_runresults(self, design, kind):
        assert_differential(design, kind=kind)

    @pytest.mark.parametrize("design", Design.ALL)
    def test_speculative_pipeline_identity(self, design):
        assert_differential(design, speculative=True)

    def test_aggressive_bypass_identity(self):
        assert_differential(Design.NORD, aggressive=True)

    def test_rectangular_mesh_identity(self):
        # NoRD's serpentine bypass ring needs an even number of rows.
        assert_differential(Design.NORD, width=3, height=4)

    @pytest.mark.parametrize("design", Design.ALL)
    def test_trace_digest_identity(self, design):
        """An unpinned traced run executes on the soa kernel, records
        the reference's digest, and returns the untraced run's
        RunResult (tracing observes; it picks no kernel)."""
        _, _, trace_ref = run_once(design, "ref", trace=True)
        net_soa, res_traced, trace_soa = run_once(design, None,
                                                  trace=True)
        assert isinstance(net_soa, SoANetwork)
        assert trace_ref.digest() == trace_soa.digest()
        _, res_soa, _ = run_once(design, "soa")
        assert_identical(res_traced, res_soa)


class TestBackendSelection:
    def test_explicit_soa(self):
        net = Network(small_config(Design.NORD), backend="soa")
        assert isinstance(net, SoANetwork)
        assert net.backend == "soa"

    def test_env_var_selects_soa(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "soa")
        net = Network(small_config(Design.NORD))
        assert isinstance(net, SoANetwork)

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "soa")
        net = Network(small_config(Design.NORD), backend="ref")
        assert type(net) is Network

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown simulation backend"):
            Network(small_config(Design.NORD), backend="bogus")
        with pytest.raises(ValueError, match="unknown simulation backend"):
            resolve_backend("bogus")

    def test_resolve_backend_normalizes(self, monkeypatch):
        assert resolve_backend() is None  # nothing pinned
        assert resolve_backend("reference") == "ref"
        assert resolve_backend(" SOA ") == "soa"
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        with pytest.raises(ValueError):
            resolve_backend()
        assert set(BACKENDS) == {"ref", "soa"}

    def test_fault_plan_falls_back_to_reference(self):
        from repro.faults import FaultPlan
        with pytest.warns(RuntimeWarning, match="fault injection"):
            net = Network(small_config(Design.NORD), backend="soa",
                          fault_plan=FaultPlan())
        assert type(net) is Network

    def test_metered_run_stays_on_soa(self, monkeypatch):
        from repro.metrics.sampler import MetricsRun
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nothing to fall back from
            unpinned = Network(small_config(Design.NORD),
                               metrics=MetricsRun())
            pinned = Network(small_config(Design.NORD), backend="soa",
                             metrics=MetricsRun())
        assert type(unpinned) is type(pinned) is SoANetwork
        assert unpinned.metrics is not None

    def test_dense_scan_falls_back_to_reference(self, monkeypatch):
        with pytest.warns(RuntimeWarning, match="skip_inactive=False"):
            net = Network(small_config(Design.NORD), backend="soa",
                          skip_inactive=False)
        assert type(net) is Network
        monkeypatch.setenv("REPRO_NO_SKIP", "1")
        with pytest.warns(RuntimeWarning, match="REPRO_NO_SKIP"):
            net = Network(small_config(Design.NORD), backend="soa")
        assert type(net) is Network

    def test_empty_faultplan_env_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_EMPTY_FAULTPLAN", "1")
        with pytest.warns(RuntimeWarning, match="REPRO_EMPTY_FAULTPLAN"):
            net = Network(small_config(Design.NORD), backend="soa")
        assert type(net) is Network

    def test_soa_constructed_directly_rejects_faults(self):
        from repro.faults import FaultPlan
        with pytest.raises(ValueError, match="fault injection"):
            SoANetwork(small_config(Design.NORD), fault_plan=FaultPlan())


class TestCacheKeys:
    def _point(self, backend=None):
        return parallel.DesignPoint(
            cfg=small_config(Design.NORD),
            traffic=parallel.uniform_spec(0.1),
            backend=backend)

    def test_backend_enters_cache_key(self):
        assert self._point("ref").cache_key() != \
            self._point("soa").cache_key()

    def test_default_backend_follows_env(self, monkeypatch):
        default_key = self._point().cache_key()
        assert default_key == self._point("soa").cache_key()
        monkeypatch.setenv("REPRO_BACKEND", "ref")
        assert self._point().cache_key() == \
            self._point("ref").cache_key()

    def test_unknown_backend_rejected_at_point_construction(self):
        with pytest.raises(ValueError):
            self._point("bogus")

    def test_bufferless_always_resolves_ref(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "soa")
        point = parallel.DesignPoint(
            cfg=small_config(Design.NORD),
            traffic=parallel.uniform_spec(0.1),
            network=parallel.BUFFERLESS_NETWORK)
        assert point.resolved_backend() == "ref"

    def test_execute_point_honors_backend(self):
        res_soa, _ = parallel.execute_point(self._point("soa"))
        res_ref, _ = parallel.execute_point(self._point("ref"))
        assert_identical(res_ref, res_soa)
