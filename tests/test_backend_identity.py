"""Differential harness: the SoA kernel vs the object-graph reference.

The kernel-identity contract (DESIGN.md section 9): for every
configuration the SoA kernel serves, ``Network(cfg, backend="soa")``
must produce a :class:`RunResult` field-identical to the reference
kernel.  These tests enforce the contract directly - same config, same
traffic, same seed, run under both kernels, compared field by field
(``RunResult.__eq__`` excludes only the host wall-clock and provenance
fields) - and, with an event trace attached to both legs, the same
canonical event stream, event for event (a traced run executes on the
SoA kernel like an untraced one).  The design x traffic matrix carries a
fault plan on three of its four traffic kinds, so the fault sites are
held to the same contract.

Kernel *pinning* (explicit argument > ``REPRO_BACKEND``) is covered
here too, as is the cache-key folding in the experiments runner.  The
selection rule (unpinned runs included) lives in
tests/test_kernel_identity.py, the home of new kernel-identity tests
and of the differential helpers used here; this file and
tests/test_fast_mode_identity.py keep their names so that their test
ids stay stable.
"""

import dataclasses
import warnings

import pytest

from repro.config import Design, small_config
from repro.experiments import parallel
from repro.faults import FaultPlan, WakeupFault
from repro.noc.network import BACKENDS, Network, resolve_backend
from repro.noc.ref import RefNetwork
from repro.noc.soa import SoANetwork
from repro.trace.recorder import EventTrace
from tests.test_kernel_identity import assert_identical, run_once
from tests.tracediff import assert_same_events

#: The design x traffic matrix's traffic kinds, and the fault plan each
#: carries (uniform stays plain): every design meets a router hard-fail,
#: lossy links with retransmission, and a stuck plus a slow wakeup.
KINDS = ("hotspot", "tornado", "transpose", "uniform")
FAULT_PLANS = {
    "hotspot": FaultPlan.single_router_failure(5, 60),
    "tornado": FaultPlan.uniform_link_noise(
        corrupt_rate=5e-3, drop_rate=2e-3, seed=11, retransmit=True,
        retransmit_timeout=200),
    "transpose": FaultPlan(wakeup_faults=(WakeupFault(5, ignore=True),
                                          WakeupFault(6, delay=20))),
}
#: This file's runs are longer than the helper's default.
LONG = dict(warmup=100, measure=600)


def traced_run(design, backend, **kwargs):
    """A ``LONG`` run recorded into a fresh trace: (net, result, trace)."""
    trace = EventTrace()
    net, result = run_once(design, backend=backend, trace=trace,
                           **LONG, **kwargs)
    return net, result, trace


def assert_differential(design, **kwargs):
    """Run ``ref`` and ``soa``, both traced: field-identical results and
    the same event stream.  Returns the soa leg's network and result."""
    net_ref, res_ref, trace_ref = traced_run(design, "ref", **kwargs)
    net_soa, res_soa, trace_soa = traced_run(design, "soa", **kwargs)
    assert type(net_ref) is RefNetwork
    assert isinstance(net_soa, SoANetwork)
    assert_identical(res_ref, res_soa)
    assert_same_events(trace_ref.canonical_lines(),
                       trace_soa.canonical_lines(), f"{design} {kwargs}")
    return net_soa, res_soa


class TestRunResultIdentity:
    @pytest.mark.parametrize("design", Design.ALL)
    @pytest.mark.parametrize("kind", KINDS)
    def test_field_identical_runresults(self, design, kind):
        net, result = assert_differential(design, kind=kind,
                                          plan=FAULT_PLANS.get(kind))
        if kind == "hotspot":  # the plans fired
            assert net.controllers[5].failed
        elif kind == "tornado":
            assert result.flits_corrupted and result.packets_retransmitted

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
        _, _, trace_ref = traced_run(design, "ref")
        net_soa, res_traced, trace_soa = traced_run(design, None)
        assert isinstance(net_soa, SoANetwork)
        assert trace_ref.digest() == trace_soa.digest()
        _, res_soa = run_once(design, backend="soa", **LONG)
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
        assert type(net) is RefNetwork

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

    def test_bufferless_resolves_like_any_point(self, monkeypatch):
        """The bufferless datapath has one implementation, but its point
        keys on the selected kernel like every other: no special case."""
        monkeypatch.setenv("REPRO_BACKEND", "soa")
        point = parallel.DesignPoint(
            cfg=small_config(Design.BUFFERLESS),
            traffic=parallel.uniform_spec(0.1))
        assert point.resolved_backend() == "soa"
        pinned = dataclasses.replace(point, backend="ref")
        assert pinned.resolved_backend() == "ref"
        result, _ = parallel.execute_point(pinned)
        assert result.kernel == "bufferless"

    def test_execute_point_honors_backend(self):
        res_soa, _ = parallel.execute_point(self._point("soa"))
        res_ref, _ = parallel.execute_point(self._point("ref"))
        assert_identical(res_ref, res_soa)
