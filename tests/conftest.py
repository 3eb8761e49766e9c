"""Shared test configuration.

Puts ``src/`` on ``sys.path`` so a bare ``python -m pytest`` works from
the repo root (no ``PYTHONPATH=src`` needed), and redirects the on-disk
result cache (:mod:`repro.experiments.parallel`) into a per-session
temporary directory so tests never read from or write to the user's
real ``~/.cache/repro``, while still exercising cache hits within one
test session.

Two Hypothesis profiles: ``tier1`` (the default) draws the same examples
on every run, so a pass names what was checked; ``wide`` (``pytest -m
hypothesis --hypothesis-profile=wide``, a CI job of its own) draws fresh
ones, :data:`WIDE_FACTOR` times each test's own ``max_examples``.
"""

import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("wide", derandomize=False)
settings.load_profile("tier1")  # ``--hypothesis-profile`` loads after this

#: How many times its tier-1 examples each test draws under ``wide``.
WIDE_FACTOR = 10

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens", action="store_true", default=False,
        help="regenerate the tests/goldens/ trace-digest fixtures "
             "instead of diffing against them")


def pytest_collection_modifyitems(config, items):
    """Under ``wide``, scale every Hypothesis test's ``max_examples``: a
    test's own ``@settings`` overrides the profile's, so the profile
    alone cannot."""
    if config.getoption("hypothesis_profile", None) != "wide":
        return
    scaled = set()
    for item in items:
        test = getattr(item, "obj", None)
        test = getattr(test, "__func__", test)  # a method's function
        own = getattr(test, "_hypothesis_internal_use_settings", None)
        if own is None or id(test) in scaled:  # not Hypothesis, or done
            continue
        scaled.add(id(test))
        test._hypothesis_internal_use_settings = settings(
            own, max_examples=own.max_examples * WIDE_FACTOR)


@pytest.fixture(autouse=True, scope="session")
def _isolated_result_cache(tmp_path_factory):
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(
        tmp_path_factory.mktemp("repro-result-cache"))
    yield
    if old is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old
