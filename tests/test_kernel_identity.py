"""Kernel selection and identity: which kernel a run gets, and that it
does not matter for the result.

``Network(cfg)`` picks the kernel from what the run carries
(:func:`repro.noc.network.select_kernel`): ``soa`` unless a fault plan
or dense scans need the reference kernel's hook surface (an event
trace and a metrics recorder are observers and run on either).  This
file pins

* the selection table - every row, unpinned (silent) and with ``soa``
  pinned (one warning), and that ``DesignPoint`` agrees with the
  network it builds;
* that the result says which kernel produced it (``RunResult.kernel``,
  the ``simulate`` and ``run-all`` footers);
* that ``--profile`` describes the kernel that ran: per-phase occupancy
  under ``soa`` equals the reference's, mailboxes included;
* that a plain ``simulate`` never imports numpy.

The RunResult differentials (design x traffic matrices, hypothesis,
conservation, the mutation self-test) live in
tests/test_backend_identity.py and tests/test_fast_mode_identity.py,
which keep their pre-merge names because the tier-1 floor tracks tests
by id; snapshot split-equals-straight on both kernels is in
tests/test_snapshot_restore.py.  New kernel-identity tests go here.
"""

import dataclasses
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro.config import Design, small_config
from repro.experiments import parallel
from repro.experiments.runner import run_all
from repro.faults import FaultPlan
from repro.metrics.sampler import MetricsSpec
from repro.noc import activity
from repro.noc.network import Network, select_kernel
from repro.stats.collector import RunResult
from repro.trace.recorder import EventTrace, TraceSpec
from repro.traffic.synthetic import uniform_random

SRC = Path(__file__).resolve().parent.parent / "src"

#: row -> (Network kwargs, environment, DesignPoint fields or None when
#: a point cannot carry the feature, warning pattern).  Every row needs
#: the reference kernel.
REF_ROWS = {
    "fault_plan": (
        lambda: {"fault_plan": FaultPlan.single_router_failure(5, 60)}, {},
        lambda d: {"faults": FaultPlan.single_router_failure(5, 60)},
        "fault injection"),
    "empty_fault_plan": (lambda: {"fault_plan": FaultPlan()}, {},
                         lambda d: {"faults": FaultPlan()},
                         "fault injection"),
    "skip_inactive_false": (lambda: {"skip_inactive": False}, {}, None,
                            "dense scans"),
    "env_no_skip": (dict, {"REPRO_NO_SKIP": "1"}, lambda d: {},
                    "dense scans"),
    "env_empty_faultplan": (dict, {"REPRO_EMPTY_FAULTPLAN": "1"},
                            lambda d: {}, "REPRO_EMPTY_FAULTPLAN"),
}
#: Rows whose feature is an inert plan: by the cache policy they share
#: the plain point's entry although they run ``ref``.
SHARES_PLAIN_ENTRY = {"empty_fault_plan"}


def point(**fields):
    return parallel.DesignPoint(
        cfg=small_config(Design.NORD, warmup=40, measure=200),
        traffic=parallel.uniform_spec(0.1), **fields)


class TestDispatchTable:
    def test_plain_run_selects_soa(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            unpinned = Network(small_config(Design.NORD))
            pinned = Network(small_config(Design.NORD), backend="soa")
        assert unpinned.backend == pinned.backend == "soa"
        assert point().resolved_backend() == "soa"
        assert point().cache_key() == point(backend="soa").cache_key()
        assert point().cache_key() != point(backend="ref").cache_key()

    @pytest.mark.parametrize("row", sorted(REF_ROWS))
    def test_unpinned_run_gets_ref_silently(self, row, monkeypatch,
                                            tmp_path):
        kwargs, env, fields, _ = REF_ROWS[row]
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        with warnings.catch_warnings():
            # nothing was requested, so nothing was ignored: no warning
            warnings.simplefilter("error")
            net = Network(small_config(Design.NORD), **kwargs())
            if fields is not None:
                carried = point(**fields(str(tmp_path)))
                assert carried.resolved_backend() == net.backend
                if row in SHARES_PLAIN_ENTRY:
                    assert carried.cache_key() == point().cache_key()
                else:
                    pinned = dataclasses.replace(carried,
                                                 backend=net.backend)
                    assert carried.cache_key() == pinned.cache_key()
        assert type(net) is Network and net.backend == "ref"

    @pytest.mark.parametrize("row", sorted(REF_ROWS))
    def test_pinned_soa_warns_once_and_runs_ref(self, row, monkeypatch):
        kwargs, env, _, pattern = REF_ROWS[row]
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        with pytest.warns(RuntimeWarning, match=pattern) as caught:
            net = Network(small_config(Design.NORD), backend="soa",
                          **kwargs())
        assert len(caught) == 1
        assert type(net) is Network and net.backend == "ref"
        with warnings.catch_warnings(record=True) as caught:
            # Python's default filter: once per call site
            warnings.simplefilter("default")
            for _ in range(3):
                Network(small_config(Design.NORD), backend="soa",
                        **kwargs())
        assert len(caught) == 1

    def test_metrics_are_not_a_selection_input(self, monkeypatch,
                                               tmp_path):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        with pytest.raises(TypeError):
            select_kernel(metrics=MetricsSpec(directory="x").build())
        metered = point(metrics=MetricsSpec(directory=str(tmp_path)))
        assert metered.resolved_backend() == "soa"
        assert metered.cache_key() == point().cache_key()
        from repro.noc.soa import SoANetwork
        net = SoANetwork(small_config(Design.NORD),
                         metrics=MetricsSpec(directory="x").build())
        assert net.metrics is not None

    def test_trace_is_not_a_selection_input(self, monkeypatch,
                                            tmp_path):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        with pytest.raises(TypeError):
            select_kernel(trace=EventTrace())
        traced = point(trace=TraceSpec(directory=str(tmp_path)))
        assert traced.resolved_backend() == "soa"
        assert traced.cache_key() == point().cache_key()
        from repro.noc.soa import SoANetwork
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nothing to fall back from
            for backend in (None, "soa"):
                net = Network(small_config(Design.NORD), backend=backend,
                              trace=EventTrace())
                assert type(net) is SoANetwork and net.trace is not None
        net = SoANetwork(small_config(Design.NORD), trace=EventTrace())
        assert net.trace is not None

    def test_pinned_ref_is_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "ref")
        assert select_kernel() == "ref"
        assert type(Network(small_config(Design.NORD))) is Network
        assert point().resolved_backend() == "ref"

    def test_execute_point_runs_the_kernel_the_point_resolves(self,
                                                              tmp_path):
        for fields in ({}, {"backend": "ref"},
                       {"faults": FaultPlan()},
                       {"trace": TraceSpec(directory=str(tmp_path))},
                       {"metrics": MetricsSpec(directory=str(tmp_path))}):
            p = point(**fields)
            result, _ = parallel.execute_point(p)
            assert result.kernel == p.resolved_backend(), fields


class TestKernelProvenance:
    @pytest.fixture(autouse=True)
    def fresh_default_runner(self, monkeypatch):
        # simulate / run-all reconfigure the process-wide runner
        monkeypatch.setattr(parallel, "_default_runner", None)
        monkeypatch.delenv("REPRO_BACKEND", raising=False)

    def run(self, backend):
        net = Network(small_config(Design.NORD, warmup=40, measure=200),
                      backend=backend)
        return net.run(uniform_random(net.mesh, 0.1, seed=3))

    def test_result_names_its_kernel_outside_equality(self):
        ref, soa = self.run("ref"), self.run(None)
        assert (ref.kernel, soa.kernel) == ("ref", "soa")
        assert ref == soa  # provenance is not outcome
        assert "kernel" not in soa.to_dict()
        assert RunResult.from_dict(soa.to_dict()).kernel == ""

    def test_simulate_footer_names_the_kernel(self, capsys):
        from repro.cli import main
        args = ["simulate", "--scale", "smoke", "--no-cache"]
        assert main(args) == 0
        assert "simulated cyc/s; kernel: soa]" in capsys.readouterr().out
        assert main(args + ["--fail-router", "5"]) == 0
        assert "simulated cyc/s; kernel: ref]" in capsys.readouterr().out

    def test_run_all_footer_counts_kernels(self, monkeypatch):
        from repro.experiments import runner
        monkeypatch.setattr(runner, "EXPERIMENTS", {
            name: runner.EXPERIMENTS[name]
            for name in ("fig13", "bufferless", "resilience")})
        lines = []
        parallel.install(parallel.SweepRunner(use_cache=False))
        run_all("smoke", 1, echo=lines.append)
        footer = lines[-1]
        assert footer.startswith("\n[run-all took ")
        kernels = footer.rstrip("]").split("; kernels: ")[1]
        counts = dict(item.split(" ") for item in kernels.split(", "))
        stats = parallel.get_runner().stats
        assert {k: int(n) for k, n in counts.items()} == stats.kernels
        assert sum(stats.kernels.values()) == stats.misses
        assert set(stats.kernels) == {"soa", "ref", "bufferless"}


class TestProfileOccupancy:
    """``--profile`` must describe the kernel people run: the mailboxes
    bypass the activity sets the reference's occupancy is read from, so
    the soa kernel counts mailbox-resident links and lines (profiled
    path only).  These feed the benchmark's ``noc.occupancy.*``."""

    def profiled(self, design, backend):
        activity.enable_profiling(True)
        activity.reset_profile()
        try:
            net = Network(small_config(design, warmup=50, measure=300),
                          backend=backend)
            result = net.run(uniform_random(net.mesh, 0.15, seed=4))
        finally:
            activity.enable_profiling(False)
        profile = activity.global_profile()
        return (net.backend, result, profile.cycles, dict(profile.active),
                dict(profile.capacity))

    @pytest.mark.parametrize("design", Design.ALL)
    def test_occupancy_equals_reference(self, design):
        kernel_r, res_r, cyc_r, active_r, cap_r = self.profiled(design,
                                                                "ref")
        kernel_s, res_s, cyc_s, active_s, cap_s = self.profiled(design,
                                                                None)
        assert (kernel_r, kernel_s) == ("ref", "soa")  # profiling keeps soa
        assert res_r == res_s and cyc_r == cyc_s
        assert cap_r == cap_s
        assert active_r == active_s
        assert active_s["credit"] > 0 and active_s["link"] > 0


def test_plain_simulate_never_imports_numpy():
    code = ("import sys\n"
            "from repro.cli import main\n"
            "rc = main(['simulate', '--scale', 'smoke', '--no-cache'])\n"
            "assert rc == 0\n"
            "assert 'repro.noc.soa' in sys.modules\n"
            "sys.exit(3 if 'numpy' in sys.modules else 0)\n")
    env = dict(os.environ)
    env.pop("REPRO_BACKEND", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    assert "kernel: soa" in proc.stdout
