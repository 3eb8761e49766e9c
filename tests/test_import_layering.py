"""The import layering (DESIGN.md section 2): describing, keying and
looking up design points loads no simulator module; running one does.

``sys.modules`` of the test process is full of the simulator, so every
check here happens in a child interpreter and reports back on stdout.
"""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: What only a run pinned to the reference kernel imports: the kernel,
#: its router objects and its links.
REF_ONLY = ("repro.noc.ref", "repro.noc.router", "repro.noc.link")

#: What a cache hit must never import: the kernels and everything only
#: they need.
SIMULATOR = ("repro.noc.network", "repro.noc.soa", "repro.noc.ni",
             "repro.metrics.sampler", "repro.trace.recorder") + REF_ONLY

#: What only a miss runs: the checkpoint writer (inside a point's run),
#: the ring builder and Fig. 6's placement search.
MISS_ONLY = ("repro.checkpoint", "repro.core.ring", "repro.core.placement")

PACKAGES = ("core", "metrics", "noc", "power", "powergate", "routing",
            "stats", "trace", "traffic")


def child(script, *argv, cache=None):
    """Run ``script`` in a fresh interpreter; returns (stdout lines before
    the report, the JSON report it printed last)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    if cache is not None:
        env["REPRO_CACHE_DIR"] = str(cache)
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    *report, last = proc.stdout.splitlines()
    return report, json.loads(last)


LOADED = ("import json, sys; "
          "print(json.dumps(sorted(m for m in sys.modules "
          "if m == 'repro' or m.startswith('repro.'))))")


#: What building the parser must not load: the sweep harness and the
#: store behind it, the fault types, the power model and the result
#: type (every ``repro.experiments`` module but ``runner`` is checked
#: on top of these).
HARNESS = ("repro.experiments.parallel", "repro.experiments.journal",
           "repro.faults", "repro.stats.collector")


def harness_loaded(loaded):
    """The modules of ``loaded`` that ``list`` and ``--help`` must not
    import."""
    return sorted(m for m in loaded
                  if m in SIMULATOR + HARNESS or m.startswith("repro.power")
                  or (m.startswith("repro.experiments.")
                      and m != "repro.experiments.runner"))


def test_list_loads_no_simulator_module():
    """``list`` and ``--help`` import what building the parser needs:
    no experiment but the runner's table, no harness, no simulator."""
    lines, loaded = child("import repro.cli\n"
                          "assert repro.cli.main(['list']) == 0\n" + LOADED)
    assert any(line.startswith("fig6 ") for line in lines)
    assert harness_loaded(loaded) == [], loaded
    lines, loaded = child("import repro.cli\n"
                          "try:\n"
                          "    repro.cli.main(['--help'])\n"
                          "except SystemExit as exc:\n"
                          "    assert not exc.code, exc.code\n" + LOADED)
    assert lines[0].startswith("usage: nord ")
    assert harness_loaded(loaded) == [], loaded


def test_cached_figure_loads_no_other_figure(tmp_path):
    """A single-figure command served from the cache imports its own
    chain and no other figure's module, and reports what the run that
    filled the cache reported."""
    from repro.experiments.runner import EXPERIMENTS
    script = ("import repro.cli\n"
              "assert repro.cli.main(['fig14', '--scale', 'smoke']) == 0\n"
              + LOADED)
    cold, _ = child(script, cache=tmp_path)
    cached, loaded = child(script, cache=tmp_path)
    assert cached == cold
    figures = {f"repro.experiments.{module}"
               for module, _ in EXPERIMENTS.values()}
    assert sorted(figures & set(loaded)) == [
        "repro.experiments.fig14_load_sweep"]
    assert not set(SIMULATOR + MISS_ONLY) & set(loaded), loaded


#: bench/repro_subset.py as the benchmark starts it, then the report.
SUBSET = ("import runpy, sys\n"
          "launcher = sys.argv[1]\n"
          "sys.argv[:] = sys.argv[1:]\n"
          "try:\n"
          "    runpy.run_path(launcher, run_name='__main__')\n"
          "except SystemExit as exc:\n"
          "    assert not exc.code, exc.code\n" + LOADED)


def test_cached_run_all_loads_no_simulator_module(tmp_path):
    """A ``--jobs 1`` miss imports the simulator in-process; the same
    command served from the cache it filled prints the same report
    without importing any of it, nor what only a miss runs."""
    argv = (str(ROOT / "bench" / "repro_subset.py"), "fig3,fig6,resilience",
            "run-all", "--scale", "smoke", "--jobs", "1", "--seed", "1")
    fill, loaded = child(SUBSET, *argv, cache=tmp_path)
    assert " 0 hits, " in fill[-1] and " 0 misses" not in fill[-1]
    # (the sampler and the recorder only ever load for a run that asks
    # for metrics or a trace, the reference kernel only for a pinned run)
    assert (set(SIMULATOR) - {"repro.metrics.sampler", "repro.trace.recorder"}
            - set(REF_ONLY) <= set(loaded))
    assert set(MISS_ONLY) <= set(loaded)

    cached, loaded = child(SUBSET, *argv, cache=tmp_path)
    assert " 0 misses" in cached[-1]
    assert not set(SIMULATOR + MISS_ONLY) & set(loaded), loaded

    def report(lines):
        return [line for line in lines if " took " not in line]
    assert report(cached) == report(fill)
    assert sum(line.startswith("### ") for line in cached) == 3


def test_default_network_loads_no_reference_module():
    """The default kernel imports nothing of the reference's: building
    an unpinned network and running it leaves the ``ref`` kernel, its
    router objects and its links unloaded; a pinned one loads them."""
    script = ("import json, sys\n"
              "from repro.config import Design, small_config\n"
              "from repro.noc.network import Network\n"
              "from repro.traffic.synthetic import uniform_random\n"
              "net = Network(small_config(Design.NORD),\n"
              "              backend=sys.argv[1] or None)\n"
              "net.run(uniform_random(net.mesh, 0.1, seed=1), warmup=10,\n"
              "        measure=50, drain=50)\n"
              "print(json.dumps([type(net).__name__, sorted(\n"
              "    m for m in sys.modules if m in %r)]))" % (REF_ONLY,))
    _, (kernel, loaded) = child(script, "")
    assert (kernel, loaded) == ("SoANetwork", [])
    _, (kernel, loaded) = child(script, "ref")
    assert (kernel, loaded) == ("RefNetwork", sorted(REF_ONLY))


#: What building and running a network loads only when the run asks for
#: it: OpenSSL (cache keys and sealed records hash), the store and the
#: harness, the fault machinery, the power model, the observers and the
#: checkpoint writer.
NOT_ON_RUN = ("hashlib", "_hashlib", "repro.experiments.journal",
              "repro.experiments.supervisor", "repro.faults",
              "repro.trace.recorder", "repro.trace.spec", "repro.checkpoint")


def test_network_run_loads_only_the_simulator():
    """The reverse half of the layering: a fault-free, unobserved run of
    every design on the default kernel - what the kernel benchmarks,
    ``examples/`` and any in-process user do - loads none of
    :data:`NOT_ON_RUN`, nor ``repro.power`` or ``repro.metrics``."""
    script = ("import json, sys\n"
              "from repro.config import Design, small_config\n"
              "from repro.experiments import parallel\n"
              "from repro.noc.network import Network\n"
              "kernels = []\n"
              "for design in Design.ALL + (Design.BUFFERLESS,):\n"
              "    net = Network(small_config(design))\n"
              "    net.run(parallel.uniform_spec(0.1, seed=1).build(net.mesh),\n"
              "            warmup=10, measure=50, drain=50)\n"
              "    kernels.append(type(net).__name__)\n"
              "loaded = [m for m in sys.modules if m in %r\n"
              "          or m.split('.')[:2] in (['repro', 'power'],\n"
              "                                  ['repro', 'metrics'])]\n"
              "from repro.experiments import journal\n"
              "print(json.dumps([kernels, sorted(loaded),\n"
              "                  parallel.seal is journal.seal]))" % (NOT_ON_RUN,))
    _, (kernels, loaded, reexported) = child(script)
    assert kernels == ["SoANetwork"] * 4 + ["BufferlessNetwork"]
    assert loaded == [], (
        f"a plain network run loaded {loaded}: import them where the run "
        "that needs them asks for them (DESIGN.md section 2)")
    assert reexported  # the store's names still resolve on parallel


def test_code_version_covers_files_that_were_never_imported():
    """The fingerprint reads the package's files, not ``sys.modules``: a
    process that loaded no kernel still keys on every kernel's source."""
    _, (version, loaded) = child(
        "import json, sys\n"
        "from repro.experiments.parallel import code_version\n"
        "print(json.dumps([code_version(), "
        "'repro.noc.network' in sys.modules]))")
    assert loaded is False
    pkg = SRC / "repro"
    digest = hashlib.sha256()
    for path in sorted(pkg.rglob("*.py")):
        digest.update(str(path.relative_to(pkg)).encode() + b"\0")
        digest.update(path.read_bytes())
    assert version == digest.hexdigest()


@pytest.mark.parametrize("package", PACKAGES)
def test_package_exports_resolve(package):
    """Every name of the package's lazy table (``__all__`` is derived
    from it) resolves, under both spellings of the import."""
    module = importlib.import_module(f"repro.{package}")
    namespace = {}
    exec(f"from repro.{package} import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(module.__all__)
    assert set(module.__all__) <= set(dir(module))
    for name in module.__all__:
        assert getattr(module, name) is namespace[name]
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    with pytest.raises(ImportError):
        exec(f"from repro.{package} import no_such_name")


def test_package_level_imports_load_on_demand():
    """``from repro.noc import Mesh`` must not drag the kernels in;
    ``from repro.noc import Network`` must still find them."""
    _, steps = child(
        "import json, sys\n"
        "def kernel(): return 'repro.noc.network' in sys.modules\n"
        "steps = []\n"
        "from repro.noc import Mesh, NUM_PORTS; steps.append(kernel())\n"
        "from repro.stats import RunResult; steps.append(kernel())\n"
        "from repro.metrics import MetricsSpec; steps.append(kernel())\n"
        "from repro.trace import TraceSpec; steps.append(kernel())\n"
        "from repro.traffic import BENCHMARKS; steps.append(kernel())\n"
        "from repro.noc import Network; steps.append(kernel())\n"
        "from repro.metrics import MetricsRun\n"
        "from repro.trace import EventTrace\n"
        "import repro.noc\n"
        "steps.append(repro.noc.Network is Network)\n"
        "steps.append(MetricsSpec(directory='d').build().__class__ "
        "is MetricsRun)\n"
        "print(json.dumps(steps))")
    assert steps == [False, False, False, False, False, True, True, True]
