"""Metrics are a pure observer: instrumented == plain, field for field.

The zero-interference contract behind the ``drift`` CI job's ``--metrics`` variant:
attaching a :class:`repro.metrics.MetricsRun` to a network must not
change a single simulation outcome - the ``RunResult`` and the energy
report of an instrumented run are *equal* (and serialize to identical
dicts) to those of a plain run of the same design point.
"""

import dataclasses

import pytest

from repro.config import Design, small_config
from repro.experiments.parallel import (DesignPoint, execute_point,
                                        parsec_spec, uniform_spec)
from repro.metrics import MetricsSpec


def point(design, traffic, tmp_path=None, interval=50):
    metrics = None
    if tmp_path is not None:
        metrics = MetricsSpec(directory=str(tmp_path), interval=interval)
    cfg = dataclasses.replace(
        small_config(design, warmup=50, measure=300), drain_cycles=200)
    return DesignPoint(cfg=cfg, traffic=traffic, metrics=metrics)


@pytest.mark.parametrize("design", [Design.NO_PG, Design.CONV_PG,
                                    Design.CONV_PG_OPT, Design.NORD])
def test_instrumented_equals_plain(design, tmp_path):
    traffic = uniform_spec(0.05)
    plain_result, plain_energy = execute_point(point(design, traffic))
    inst_result, inst_energy = execute_point(
        point(design, traffic, tmp_path))
    assert inst_result == plain_result
    assert inst_result.to_dict() == plain_result.to_dict()
    assert inst_energy.to_dict() == plain_energy.to_dict()
    # and the artifacts actually exist (the run was instrumented)
    assert list(tmp_path.glob("*.metrics.jsonl"))


@pytest.mark.parametrize("design", Design.ALL)
def test_artifacts_do_not_depend_on_the_kernel(design, tmp_path):
    """The sampler runs on either kernel and reads the same counters
    from both: a metered point writes the same bytes on ``ref`` and on
    the kernel an untagged run gets."""
    written = {}
    for backend, kernel in (("ref", "ref"), (None, "soa")):
        directory = tmp_path / kernel
        metered = dataclasses.replace(
            point(design, uniform_spec(0.10)), backend=backend,
            metrics=MetricsSpec(directory=str(directory), interval=50,
                                basename="x"))
        result, _ = execute_point(metered)
        assert result.kernel == kernel
        written[kernel] = [
            (directory / name).read_bytes()
            for name in ("x.metrics.jsonl", "x.metrics.csv", "x.prom")]
    assert written["ref"] == written["soa"]
    assert all(written["soa"])


def test_instrumented_equals_plain_parsec(tmp_path):
    traffic = parsec_spec("blackscholes")
    plain, _ = execute_point(point(Design.NORD, traffic))
    inst, _ = execute_point(point(Design.NORD, traffic, tmp_path))
    assert inst == plain


def test_interval_choice_never_changes_results(tmp_path):
    traffic = uniform_spec(0.05)
    results = []
    for i, interval in enumerate((1, 37, 500)):
        r, _ = execute_point(point(Design.NORD, traffic,
                                   tmp_path / str(i), interval=interval))
        results.append(r)
    assert results[0] == results[1] == results[2]


def test_timing_fields_do_not_affect_equality():
    traffic = uniform_spec(0.05)
    a, _ = execute_point(point(Design.NORD, traffic))
    b, _ = execute_point(point(Design.NORD, traffic))
    assert a == b                       # compare=False on timing fields
    assert a.wall_clock_s > 0 and b.wall_clock_s > 0
    d = a.to_dict()
    assert "wall_clock_s" not in d
    assert "simulated_cycles_per_sec" not in d
    # round-trip drops host-timing state entirely
    from repro.stats.collector import RunResult
    back = RunResult.from_dict(d)
    assert back == a
    assert back.wall_clock_s == 0.0
