"""Drive the benchmark end to end in its ``--quick`` mode (one round,
200-cycle windows, three experiments) and hold its output to the
``BENCHMARK.json`` contract."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(tmp_path, *args):
    out = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--quick", "--json", str(out),
         *args], cwd=ROOT, text=True, capture_output=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, json.loads(out.read_text())


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return run(tmp_path_factory.mktemp("untraced"), "--trace", "0")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return run(tmp_path_factory.mktemp("traced"), "--trace", "1")


def test_catalogue_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"] and SPEC["command"][-1] == "bench/run.py"
    assert len(SPEC["workloads"]) == 4
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert 1 <= SPEC["run_seconds"] <= 60
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("mode, key", [("untraced", "end_to_end"),
                                       ("traced", "per_layer")])
def test_every_metric_of_every_workload_is_reported_with_its_unit(
        mode, key, request):
    stdout, doc = request.getfixturevalue(mode)
    assert doc["quick"] is True and "TEST ONLY" in stdout
    assert sorted(doc["workloads"]) == sorted(w["name"]
                                              for w in SPEC["workloads"])
    for name, record in doc["workloads"].items():
        assert record["correct"] and record["failed"] == 0
        assert record["attempted"] >= 1
        for m in SPEC[key]:
            assert record["metrics"][m["name"]]["unit"] == m["unit"], name
        assert set(record["metrics"]) == {m["name"] for m in SPEC[key]}
        for metric in (m["name"] for m in SPEC["end_to_end"]):
            if mode == "untraced":
                assert record["metrics"][metric]["value"] > 0, (name, metric)
                assert re.search(rf"^{re.escape(metric)}\s", stdout, re.M)


def test_every_layer_metric_is_exercised_by_some_workload(traced):
    _, doc = traced
    measured = {name for record in doc["workloads"].values()
                for name, m in record["metrics"].items() if m["n"] > 0}
    # The paper's reference latencies need the full windows, and --quick
    # runs three experiments of the nine.
    skipped = {"noc.paper_lat_err_pct", "experiments.fig14.share"} | {
        f"experiments.{e}.wall_s" for e in ("fig7", "fig8", "fig13", "fig14",
                                            "discussion", "bufferless",
                                            "resilience")}
    missing = {m["name"] for m in SPEC["per_layer"]} - measured - skipped
    assert not missing


def test_result_line_of_one_workload(tmp_path):
    stdout, doc = run(tmp_path, "--workload", "kernel_busy", "--trace", "0",
                      "--seed", "2", "--seconds", "1")
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in last["metrics"].values():
        assert set(m) == {"value", "unit"} and m["value"] > 0
    assert doc["meta"]["seed"] == 2 and doc["meta"]["jobs"] >= 1
    assert {"commit", "python", "numpy", "nproc",
            "host.loadavg1"} <= set(doc["meta"])
    spans = doc["workloads"]["kernel_busy"]["spans"]
    assert {"bench.workload", "bench.round", "noc.network_ctor",
            "traffic.build", "noc.run"} <= {s["name"] for s in spans}


def test_counts_repeat_for_a_seed_and_move_with_it(untraced, traced, tmp_path):
    _, first = untraced
    _, again = traced
    for name in ("kernel_lowload", "kernel_busy", "runall_smoke_cold"):
        assert (first["workloads"][name]["deterministic"]
                == again["workloads"][name]["deterministic"])
    _, other = run(tmp_path, "--workload", "kernel_lowload", "--seed", "2")
    assert (other["workloads"]["kernel_lowload"]["deterministic"]
            ["noc.flit_hops"]
            != first["workloads"]["kernel_lowload"]["deterministic"]
            ["noc.flit_hops"])


def test_traced_run_writes_layer_spans(traced):
    _, doc = traced
    kernel = {s["name"] for s in doc["workloads"]["kernel_lowload"]["spans"]}
    assert {"noc.phase.router", "noc.phase.pg", "cli.import"} <= kernel
    cold = {s["name"] for s in doc["workloads"]["runall_smoke_cold"]["spans"]}
    assert {"cli.process", "experiments.fig3", "supervisor.pool_spawn",
            "parallel.point"} <= cold


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/ the command
    must fail fast and print no result."""
    import shutil
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kernel_busy",
         "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
        text=True, capture_output=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
