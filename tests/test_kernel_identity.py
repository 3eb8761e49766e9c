"""Kernel selection and identity: which kernel a run gets, and that it
does not matter for the result.

``Network(cfg)`` runs the pinned kernel, else ``soa``
(:func:`repro.noc.network.select_kernel`; a fault plan, an event trace
and a metrics recorder run on either).  This file pins

* the selection rule, and that ``DesignPoint`` agrees with the network
  it builds;
* the layout: ``RefNetwork`` and ``SoANetwork`` are sibling subclasses
  of the core, share only the kernel interface the core declares, and a
  ``soa`` network builds none of the reference's objects;
* that the result says which kernel produced it (``RunResult.kernel``,
  the ``simulate`` and ``run-all`` footers);
* that ``--profile`` describes the kernel that ran: per-phase occupancy
  under ``soa`` is what its activity sets and mailboxes hold;
* that a plain ``simulate`` never imports numpy.

It also holds the one set of differential helpers (``TRAFFIC_MAKERS``,
``run_once``, ``assert_identical``).  The RunResult differentials
(design x traffic matrices, hypothesis, conservation, the mutation
self-test) that use them live in tests/test_backend_identity.py and
tests/test_fast_mode_identity.py, which keep their names so that their
test ids stay stable; snapshot split-equals-straight on both kernels is
in tests/test_snapshot_restore.py.  New kernel-identity
tests go here.
"""

import ast
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
from repro.noc.ref import RefNetwork
from repro.noc.soa import SoANetwork
from repro.stats.collector import RunResult
from repro.trace.recorder import EventTrace, TraceSpec
from repro.traffic.synthetic import (bit_complement, hotspot, tornado,
                                     transpose, uniform_random)

SRC = Path(__file__).resolve().parent.parent / "src"

#: Synthetic traffic by name, for every differential.
TRAFFIC_MAKERS = {
    "uniform": uniform_random,
    "tornado": tornado,
    "transpose": transpose,
    "hotspot": hotspot,
    "bitcomp": bit_complement,
}


def run_once(design, kind="uniform", backend="ref", *, rate=0.1, seed=3,
             width=4, height=4, warmup=60, measure=300, drain=None,
             speculative=False, aggressive=False, trace=None, plan=None):
    """One deterministic run on ``backend`` (None: the unpinned
    default), recording into ``trace`` and injecting ``plan``'s faults
    when given; returns the network and its RunResult."""
    cfg = small_config(design, width=width, height=height,
                       warmup=warmup, measure=measure)
    if speculative:
        cfg = cfg.replace(noc=dataclasses.replace(cfg.noc,
                                                  speculative=True))
    if aggressive:
        cfg = cfg.replace(pg=dataclasses.replace(cfg.pg,
                                                 aggressive_bypass=True))
    net = Network(cfg, backend=backend, trace=trace, fault_plan=plan)
    traffic = TRAFFIC_MAKERS[kind](net.mesh, rate, seed=seed)
    return net, net.run(traffic, drain=drain)


def assert_identical(res_a, res_b, label=""):
    """Field-by-field comparison with a readable failure message."""
    if res_a == res_b:
        return
    diffs = []
    for fld in res_a.__dataclass_fields__:
        a, b = getattr(res_a, fld), getattr(res_b, fld)
        if a != b:
            diffs.append(f"{fld}: {a!r} != {b!r}")
    raise AssertionError(f"kernel drift ({label}):\n" + "\n".join(diffs))


def point(**fields):
    return parallel.DesignPoint(
        cfg=small_config(Design.NORD, warmup=40, measure=200),
        traffic=parallel.uniform_spec(0.1), **fields)


def _methods(path, cls_name):
    """The names ``def``-ined in class ``cls_name`` of source ``path``."""
    tree = ast.parse(path.read_text())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == cls_name)
    return {node.name for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


class TestKernelLayout:
    """One core, two sibling kernels (DESIGN.md section 3)."""

    #: What each kernel supplies and the core calls: the datapath
    #: constructor, the six phases and the profile's occupancy, the sends
    #: the NIs make, and the input-side reads and writes of the shared
    #: power transitions and diagnostics.
    INTERFACE = {
        "_build_datapath", "_occupancy", "_phase_credits", "_phase_nis",
        "_phase_routers", "_phase_links", "_phase_pg", "_phase_stats",
        "send_flit", "send_inject", "credit_upstream", "_deliver_flit",
        "_reset_vcs_routed_to", "_ring_slots_held", "_router_empty",
        "_incoming_condition", "buffered_vcs",
    }

    def test_kernels_share_only_the_interface(self):
        """Every method name both kernel classes define is one of the
        kernel interface, which the core declares and leaves to them:
        neither kernel inherits, overrides or repeats the other's
        code."""
        noc = SRC / "repro" / "noc"
        ref = _methods(noc / "ref.py", "RefNetwork")
        soa = _methods(noc / "soa.py", "SoANetwork")
        assert ref & soa == self.INTERFACE
        assert not self.INTERFACE & _methods(noc / "network.py", "Network")
        assert RefNetwork not in SoANetwork.__mro__
        assert SoANetwork not in RefNetwork.__mro__
        assert RefNetwork.__bases__ == SoANetwork.__bases__ == (Network,)
        assert (RefNetwork.backend, SoANetwork.backend) == ("ref", "soa")

    def test_soa_builds_none_of_the_reference_objects(self):
        for design in Design.ALL:
            net = Network(small_config(design))
            assert type(net) is SoANetwork
            for name in ("routers", "links_out", "_links", "inject_lines",
                         "eject_lines"):
                assert not hasattr(net, name), (design, name)
        ref = Network(small_config(Design.NORD), backend="ref")
        assert type(ref) is RefNetwork
        assert len(ref._links) == ref._num_links == 48


class TestDispatchTable:
    def test_plain_run_selects_soa(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            unpinned = Network(small_config(Design.NORD))
            pinned = Network(small_config(Design.NORD), backend="soa")
        assert unpinned.backend == pinned.backend == "soa"
        assert point().resolved_backend() == "soa"
        assert point().cache_key() == point(backend="soa").cache_key()
        assert point().cache_key() != point(backend="ref").cache_key()

    def test_only_the_pin_selects(self):
        """There is no scan mode: the reference always scans densely,
        and nothing but the pin picks it."""
        assert select_kernel() == "soa"
        assert select_kernel("ref") == "ref"
        with pytest.raises(TypeError):
            select_kernel(skip_inactive=False)
        with pytest.raises(TypeError):
            Network(small_config(Design.NORD), skip_inactive=False)

    def test_metrics_are_not_a_selection_input(self, tmp_path):
        with pytest.raises(TypeError):
            select_kernel(metrics=MetricsSpec(directory="x").build())
        metered = point(metrics=MetricsSpec(directory=str(tmp_path)))
        assert metered.resolved_backend() == "soa"
        assert metered.cache_key() == point().cache_key()
        net = SoANetwork(small_config(Design.NORD),
                         metrics=MetricsSpec(directory="x").build())
        assert net.metrics is not None

    def test_trace_is_not_a_selection_input(self, tmp_path):
        with pytest.raises(TypeError):
            select_kernel(trace=EventTrace())
        traced = point(trace=TraceSpec(directory=str(tmp_path)))
        assert traced.resolved_backend() == "soa"
        assert traced.cache_key() == point().cache_key()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nothing to fall back from
            for backend in (None, "soa"):
                net = Network(small_config(Design.NORD), backend=backend,
                              trace=EventTrace())
                assert type(net) is SoANetwork and net.trace is not None
        net = SoANetwork(small_config(Design.NORD), trace=EventTrace())
        assert net.trace is not None

    def test_fault_plan_is_not_a_selection_input(self):
        plan = FaultPlan.single_router_failure(5, 60)
        with pytest.raises(TypeError):
            select_kernel(fault_plan=plan)
        for faults in (plan, FaultPlan()):
            faulted = point(faults=faults)
            assert faulted.resolved_backend() == "soa"
            pinned = dataclasses.replace(faulted, backend="soa")
            assert faulted.cache_key() == pinned.cache_key()
        # an empty plan keeps sharing the plain point's entry
        assert point(faults=FaultPlan()).cache_key() == point().cache_key()
        assert point(faults=plan).cache_key() != point().cache_key()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nothing to fall back from
            for backend in (None, "soa"):
                net = Network(small_config(Design.NORD), backend=backend,
                              fault_plan=plan)
                assert type(net) is SoANetwork
                assert net._faults is not None
        net = SoANetwork(small_config(Design.NORD), fault_plan=FaultPlan())
        assert net._faults is not None

    def test_pinned_ref_is_honoured(self):
        assert select_kernel("ref") == "ref"
        assert type(Network(small_config(Design.NORD), backend="ref")) \
            is RefNetwork
        assert point(backend="ref").resolved_backend() == "ref"

    def test_execute_point_runs_the_kernel_the_point_resolves(self, tmp_path):
        for fields in ({}, {"backend": "ref"},
                       {"faults": FaultPlan()},
                       {"faults": FaultPlan.single_router_failure(5, 60)},
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
        assert "simulated cyc/s; kernel: soa]" in capsys.readouterr().out
        assert main(args + ["--backend", "ref"]) == 0
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
        # resilience's faulted points run on soa too
        assert set(stats.kernels) == {"soa", "bufferless"}


class TestProfileOccupancy:
    """``--profile`` must describe the kernel people run: its occupancy
    is what the soa kernel's activity sets and mailboxes hold at the
    start of each cycle - recounted here, cycle by cycle, from the
    kernel's state.  These feed the benchmark's ``noc.occupancy.*``."""

    @staticmethod
    def recount(net):
        """Per phase, the components holding work at cycle start: the
        links with credits in flight, the NIs, routers and controllers
        in their sets (none under the No_PG blanket, whose PG phase
        visits no controller), and the links and lines with flits in
        flight."""
        v_per = net._V
        credit = {c // v_per for c in net._credit_box + net._credit_due}
        flits = {e[0] for e in net._flit_mid + net._flit_due}
        inject = {e[0] for e in net._inj_due}
        eject = {e[0] for e in net._ej_mid + net._ej_due}
        routers = len(net._active_routers)
        return {"credit": len(credit), "ni": len(net._active_nis),
                "router": routers,
                "link": len(flits) + len(inject) + len(eject),
                "pg": 0 if net._no_pg_blanket else len(net._pg_active),
                "stats": routers}

    @pytest.mark.parametrize("design", Design.ALL)
    def test_occupancy_equals_reference(self, design):
        activity.enable_profiling(True)
        activity.reset_profile()
        want = dict.fromkeys(activity.PHASES, 0)
        try:
            net = Network(small_config(design))
            traffic = uniform_random(net.mesh, 0.15, seed=4)
            for _ in range(400):
                net._inject_arrivals(traffic)
                for phase, busy in self.recount(net).items():
                    want[phase] += busy
                net.step()
        finally:
            activity.enable_profiling(False)
        profile = activity.global_profile()
        assert net.backend == "soa"  # profiling keeps soa
        assert profile.cycles == 400
        assert dict(profile.active) == want
        n, links = net.mesh.num_nodes, net._num_links
        every = {"credit": links, "ni": n, "router": n,
                 "link": links + 2 * n, "pg": n, "stats": n}
        assert dict(profile.capacity) == {phase: 400 * count
                                          for phase, count in every.items()}
        assert want["credit"] > 0 and want["link"] > 0
        # the No_PG blanket steps no controller
        assert (want["pg"] == 0) == (design == Design.NO_PG)


def test_plain_simulate_never_imports_numpy():
    code = ("import sys\n"
            "from repro.cli import main\n"
            "rc = main(['simulate', '--scale', 'smoke', '--no-cache'])\n"
            "assert rc == 0\n"
            "assert 'repro.noc.soa' in sys.modules\n"
            "sys.exit(3 if 'numpy' in sys.modules else 0)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    assert "kernel: soa" in proc.stdout
