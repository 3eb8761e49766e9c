"""Golden-trace digest regression.

Recomputes the sixteen pinned scenario digests (every design x
uniform/tornado/transpose/hotspot on the 4x4 mesh) and diffs them
against the committed fixtures under ``tests/goldens/``.  Any
behavioural drift in the router pipeline, the NI bypass datapath or the
power-gate FSM changes at least one event stream and therefore at least
one digest.  A traced run executes on the default (SoA) kernel, which
records the reference kernel's event stream event for event, so the
fixtures pin both: this test and ``python -m repro.trace.golden
--check`` use the default kernel, and CI reruns the check with
``--backend ref``; the per-run trace differentials in
tests/test_backend_identity.py compare the two kernels directly.

Intentional behaviour changes: regenerate with either

    pytest tests/test_goldens.py --update-goldens
    python -m repro.trace.golden --update

and commit the reviewed fixture diff.
"""

import json

import pytest

from repro.trace import golden


def test_scenarios_cover_all_designs_and_traffics():
    names = [name for name, _, _ in golden.scenarios()]
    assert len(names) == 16
    assert len(set(names)) == 16
    assert {kind for _, _, kind in golden.scenarios()} == \
        {"uniform", "tornado", "transpose", "hotspot"}
    from repro.config import Design
    assert {design for _, design, _ in golden.scenarios()} == set(Design.ALL)


def test_fixtures_exist_and_are_well_formed():
    for name, _, _ in golden.scenarios():
        path = golden.fixture_path(name)
        assert path.is_file(), f"missing fixture {path}; run --update-goldens"
        digest = json.loads(path.read_text())
        assert digest["events"] > 0
        assert digest["dropped"] == 0, "golden runs must retain all events"
        assert len(digest["sha256"]) == 64
        # Every golden scenario delivers traffic end to end.
        assert digest["counts"]["NEW"] > 0
        assert digest["counts"]["SINK"] > 0


def test_golden_digests_match_fixtures(request):
    if request.config.getoption("--update-goldens"):
        names = golden.update()
        assert len(names) == 16
        pytest.skip("fixtures regenerated; re-run without --update-goldens")
    problems = golden.check()
    assert not problems, "golden-trace drift:\n" + "\n".join(problems)

