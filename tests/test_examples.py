"""Every ``examples/`` script runs end to end.

Each example is executed as a real subprocess (its own interpreter, the
same way a reader would run it) at smoke scale via the
``REPRO_EXAMPLE_SCALE`` environment variable, so documentation-level
entry points cannot rot silently.  CI runs the same check as the
``examples-smoke`` job.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO / "examples").glob("*.py"))

#: Extra argv per example (defaults exercise the biggest config).
ARGS = {
    "parsec_study.py": ["blackscholes"],  # one benchmark is plenty
}


def test_every_example_is_covered():
    assert EXAMPLES, "examples/ directory is empty?"
    assert {p.name for p in EXAMPLES} == {
        "load_sweep.py", "parsec_study.py", "power_timeline.py",
        "quickstart.py", "ring_designer.py", "wakeup_tuning.py"}


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda p: p.name)
def test_example_runs_at_smoke_scale(example, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_EXAMPLE_SCALE"] = "smoke"
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    proc = subprocess.run(
        [sys.executable, str(example)] + ARGS.get(example.name, []),
        capture_output=True, text=True, timeout=600, env=env,
        cwd=str(tmp_path))  # whatever an example writes lands here
    assert proc.returncode == 0, (
        f"{example.name} failed:\n--- stdout ---\n{proc.stdout}"
        f"\n--- stderr ---\n{proc.stderr}")
    assert proc.stdout.strip(), f"{example.name} printed nothing"
    if example.name == "power_timeline.py":
        # The timeline example must emit a self-contained HTML report
        # built from its metrics artifacts (examples-smoke CI checks
        # the same file).
        artifacts = tmp_path / "power_timeline_metrics"
        report = artifacts / "report.html"
        assert report.is_file(), "power_timeline.py emitted no report"
        text = report.read_text()
        assert "<svg" in text and "</html>" in text
        jsonl = list(artifacts.glob("*.metrics.jsonl"))
        assert len(jsonl) == 2, "expected one artifact per design"


def test_invalid_scale_is_rejected_up_front():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_EXAMPLE_SCALE"] = "warp-speed"
    proc = subprocess.run(
        [sys.executable, str(REPO / "examples" / "quickstart.py")],
        capture_output=True, text=True, timeout=120, env=env,
        cwd=str(REPO))
    assert proc.returncode != 0
    assert "warp-speed" in proc.stderr
