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

#: What a cache hit must never import: the kernels and everything only
#: they need.
SIMULATOR = ("repro.noc.network", "repro.noc.soa", "repro.noc.router",
             "repro.noc.ni", "repro.metrics.sampler", "repro.trace.recorder")

PACKAGES = ("core", "metrics", "noc", "power", "powergate", "routing",
            "stats", "trace", "traffic")


def child(script, *argv, cache=None):
    """Run ``script`` in a fresh interpreter; returns (stdout lines before
    the report, the JSON report it printed last)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    env.pop("REPRO_BACKEND", None)
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


def test_list_loads_no_simulator_module():
    lines, loaded = child("import repro.cli\n"
                          "assert repro.cli.main(['list']) == 0\n" + LOADED)
    assert any(line.startswith("fig6 ") for line in lines)
    assert "repro.experiments.parallel" in loaded
    assert not set(SIMULATOR) & set(loaded)


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
    without importing any of it."""
    argv = (str(ROOT / "bench" / "repro_subset.py"), "fig3,fig6,resilience",
            "run-all", "--scale", "smoke", "--jobs", "1", "--seed", "1")
    fill, loaded = child(SUBSET, *argv, cache=tmp_path)
    assert " 0 hits, " in fill[-1] and " 0 misses" not in fill[-1]
    # (the sampler only ever loads for a run that asks for metrics)
    assert set(SIMULATOR) - {"repro.metrics.sampler"} <= set(loaded)

    cached, loaded = child(SUBSET, *argv, cache=tmp_path)
    assert " 0 misses" in cached[-1]
    assert not set(SIMULATOR) & set(loaded), loaded

    def report(lines):
        return [line for line in lines if " took " not in line]
    assert report(cached) == report(fill)
    assert sum(line.startswith("### ") for line in cached) == 3


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
