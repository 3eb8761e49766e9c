"""The correctness checks must fire: a check that cannot fail is not a
check.  Each test feeds the benchmark one wrong output through the same
code path a real run takes and asserts it lands in ``failed``."""

import dataclasses
import json

import pytest

import checks
import compare
import harness
import kernel
import runall
from checks import Tally
from harness import ChildResult, HostClock, Spans

REPORT = """
### fig3: Figure 3: idle-period fragmentation
design   idle%
NoRD     61.2
[fig3 took 1.7s; cache: {h3} hits, {m3} misses; 4,823 sim cyc/s]

### fig6: Figure 6: powered-on router placement
k=6      2.10
[fig6 took 0.3s; cache: 0 hits, 0 misses]

[run-all took {wall}s with jobs=2; cache: {hits} hits, {misses} misses{sim}]
"""


def report(*, h3=0, m3=10, hits=0, misses=10, wall="2.1",
           sim="; simulated 12,276 cycles at 5,000 cyc/s", idle="61.2"):
    return REPORT.format(h3=h3, m3=m3, hits=hits, misses=misses, wall=wall,
                         sim=sim).replace("61.2", idle)


def child(stdout, returncode=0):
    return ChildResult(returncode=returncode, wall_s=1.0, stdout=stdout,
                       stderr="", peak_rss_mb=20.0)


@pytest.fixture
def cli(tmp_path, monkeypatch):
    c = runall.Cli(seed=1, quick=True, tmp=tmp_path, tally=Tally(),
                   spans=Spans())
    c.names = ("fig3", "fig6")
    outputs = []
    monkeypatch.setattr(harness, "python_child",
                        lambda args, cache, clock: outputs.pop(0))
    c.outputs = outputs
    return c


# -- kernel runs -------------------------------------------------------------
def test_runresult_differing_in_one_field_is_a_failed_operation(monkeypatch):
    point = kernel.point_set("kernel_busy", seed=1)[0]
    good = kernel.timed_run(point, 1, True, HostClock())
    bad = dataclasses.replace(
        good, result=dataclasses.replace(good.result,
                                         link_flits=good.result.link_flits + 1))
    runs = [good, good, bad]
    monkeypatch.setattr(kernel, "timed_run", lambda *a, **k: runs.pop(0))
    rounds = kernel.Rounds([point], 1, True, Tally(), Spans())
    samples = {}
    rounds.run_one(point, samples)
    rounds.run_one(point, samples)
    assert (rounds.tally.attempted, rounds.tally.failed) == (2, 0)
    rounds.run_one(point, samples)
    assert (rounds.tally.attempted, rounds.tally.failed) == (3, 1)
    assert "RunResult.link_flits differs" in rounds.tally.failures[0]
    assert not rounds.tally.correct


def test_host_timing_fields_are_not_compared():
    point = kernel.point_set("kernel_busy", seed=1)[0]
    run = kernel.timed_run(point, 1, True, HostClock())
    other = dataclasses.replace(run.result, wall_clock_s=9.0)
    assert checks.result_mismatches("p", run.result, other) == []


def test_lost_packet_on_a_drained_network_is_a_failure():
    point = kernel.point_set("kernel_busy", seed=1)[0]
    run = kernel.timed_run(point, 1, True, HostClock())
    assert run.outstanding == 0
    assert checks.conservation_problems("p", run.result, 0) == []
    short = dataclasses.replace(run.result,
                                packets_measured=run.result.packets_measured - 1)
    assert checks.conservation_problems("p", short, 0)
    assert checks.conservation_problems("p", short, 5) == []  # not drained


def test_raising_run_is_a_failed_operation(monkeypatch):
    def boom(*a, **k):
        raise RuntimeError("deadlock")
    monkeypatch.setattr(kernel, "timed_run", boom)
    rounds = kernel.Rounds([], 1, True, Tally(), Spans())
    point = kernel.Point("NoRD", "smoke", 4, type(
        "T", (), {"benchmark": "", "kind": "uniform", "rate": 0.1})())
    assert rounds.run_one(point, {}) is None
    assert (rounds.tally.attempted, rounds.tally.failed) == (1, 1)


# -- CLI output --------------------------------------------------------------
def test_warm_report_differing_in_one_line_fails_its_points(cli):
    cli.outputs += [child(report()),
                    child(report(h3=10, m3=0, hits=10, misses=0, sim="",
                                 wall="0.4")),
                    child(report(h3=10, m3=0, hits=10, misses=0, sim="",
                                 idle="61.3"))]
    fill, _ = cli.invoke("fill", cli.tmp)
    cli.invoke("warm#0", cli.tmp, expect_misses=0, same_report_as=fill)
    assert (cli.tally.attempted, cli.tally.failed) == (20, 0)
    cli.invoke("warm#1", cli.tmp, expect_misses=0, same_report_as=fill)
    assert (cli.tally.attempted, cli.tally.failed) == (30, 10)
    assert "report line" in cli.tally.failures[0]


def test_warm_run_that_simulates_is_a_failure(cli):
    cli.outputs += [child(report()), child(report())]
    fill, _ = cli.invoke("fill", cli.tmp)
    cli.invoke("warm#0", cli.tmp, expect_misses=0, same_report_as=fill)
    assert cli.tally.failed == 10
    assert "10 design points executed, expected 0" in cli.tally.failures[0]


def test_footers_that_do_not_add_up_are_a_failure(cli):
    cli.outputs += [child(report(misses=11))]
    cli.invoke("cold#0", cli.tmp)
    assert cli.tally.failed == cli.tally.attempted > 0
    assert "sum to" in cli.tally.failures[0]


def test_nonzero_exit_missing_footer_and_cycle_drift_are_failures(cli):
    cli.outputs += [child(report()), child(report(), returncode=3),
                    child("Traceback ..."),
                    child(report(sim="; simulated 12,277 cycles at 5 cyc/s"))]
    cli.invoke("cold#0", cli.tmp)
    assert cli.tally.failed == 0
    for n, needle in enumerate(("exit code 3", "no run-all footer",
                                "simulated 12277 cycles"), 1):
        cli.invoke(f"cold#{n}", cli.tmp)
        assert cli.tally.failed == 10 * n
        assert any(needle in f for f in cli.tally.failures)


def test_timing_lines_are_ignored_by_the_report_diff():
    assert checks.stdout_mismatches("w", report(wall="2.1"),
                                    report(wall="9.9")) == []


# -- compare.py --------------------------------------------------------------
def doc(value, q1, q3, *, flit_hops=100, failed=0, quick=False):
    metric = {"value": value, "q1": q1, "q3": q3, "n": 5, "unit": "s"}
    return {"meta": {"seed": 1}, "quick": quick, "trace": 0, "seconds": 20.0,
            "workloads": {"kernel_busy": {
                "metrics": {"wall_s": metric}, "attempted": 15,
                "failed": failed,
                "deterministic": {"noc.flit_hops": flit_hops}}}}


SPEC = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower",
                        "bound": 0.15}]}


@pytest.mark.parametrize("b, expected, good", [
    (doc(1.05, 1.03, 1.07), "ok", True),
    (doc(1.30, 1.28, 1.32), "regressed", False),
    (doc(1.30, 0.95, 1.50), "unresolved", True),   # wide and overlapping
    (doc(0.70, 0.50, 0.90), "ok", True),           # wide but clear of A
])
def test_compare_verdicts(b, expected, good):
    lines, ok = compare.compare(doc(1.0, 0.98, 1.02), b, SPEC)
    assert expected in lines[1] and ok is good


def test_compare_requires_equal_counts_and_no_new_failures():
    base = doc(1.0, 0.98, 1.02)
    lines, ok = compare.compare(base, doc(1.0, 0.98, 1.02, flit_hops=101),
                                SPEC)
    assert not ok and any("noc.flit_hops differs" in l for l in lines)
    lines, ok = compare.compare(base, doc(1.0, 0.98, 1.02, failed=1), SPEC)
    assert not ok and any("failed_frac rose" in l for l in lines)


def test_compare_refuses_quick_records(tmp_path):
    for name, quick in (("a.json", False), ("b.json", True)):
        (tmp_path / name).write_text(json.dumps(doc(1, 1, 1, quick=quick)))
    assert compare.main([str(tmp_path / "a.json"),
                         str(tmp_path / "b.json")]) == 2
