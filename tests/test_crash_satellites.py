"""Crash-safety satellites: cache checksums, retry jitter, run budget.

* a result-cache entry is a sealed record: a SHA-256 over its stored
  ``body`` text; an entry whose body or checksum was silently altered
  (bit rot, truncation that still parses) is quarantined as
  ``<key>.corrupt`` instead of being served;
* retry backoff uses *full jitter* with a hard ceiling, so a fleet of
  recovering runners cannot synchronize into a thundering herd;
* ``--timeout`` is one deadline checked between cycles, so it holds
  off the main thread as on it, without a warning, and a run that
  finishes inside its budget is untouched;
* a run that overran its budget outside the cycle loop (inside a ``gc``
  callback, say) still reads ``timeout``.
"""

import gc
import hashlib
import json
import threading
import time
import warnings

import pytest

from repro.config import Design, NoCConfig, SimConfig
from repro.experiments import parallel
from repro.experiments.journal import encode_outcome
from repro.experiments.parallel import (DesignPoint, ResultCache,
                                        SweepRunner, _guarded_execute,
                                        uniform_spec)
from tests.sealed import RESEALED, TAMPER


def point(measure=400, drain=600):
    return DesignPoint(
        cfg=SimConfig(design=Design.NORD, noc=NoCConfig(width=4, height=4),
                      warmup_cycles=100, measure_cycles=measure,
                      drain_cycles=drain),
        traffic=uniform_spec(0.08, seed=1))


# ---------------------------------------------------------------------------
# cache content checksums
# ---------------------------------------------------------------------------
def test_cache_entries_carry_content_checksum(tmp_path):
    cache = ResultCache(tmp_path)
    p = point()
    tag = _guarded_execute(p, None)
    assert tag[0] == "ok"
    cache.put(p.cache_key(), tag[1])
    data = json.loads(cache.path_for(p.cache_key()).read_text())
    assert set(data) == {"key", "body", "sha256"}
    # The checksum is over the stored bytes, and the body is the
    # canonical JSON of the codec's dict.
    assert data["sha256"] == hashlib.sha256(
        data["body"].encode("utf-8")).hexdigest()
    assert data["body"] == json.dumps(encode_outcome(tag[1]),
                                      sort_keys=True, separators=(",", ":"))
    assert cache.get(p.cache_key()) is not None
    assert cache.quarantined == 0


def test_tampered_value_is_quarantined(tmp_path):
    """Bit rot that still parses as JSON: without the checksum this
    served a wrong-but-plausible result forever."""
    cache = ResultCache(tmp_path)
    p = point()
    cache.put(p.cache_key(), _guarded_execute(p, None)[1])
    path = cache.path_for(p.cache_key())
    data = json.loads(path.read_text())
    body = json.loads(data["body"])
    body["result"]["cycles"] += 1
    data["body"] = json.dumps(body, sort_keys=True, separators=(",", ":"))
    path.write_text(json.dumps(data))

    assert cache.get(p.cache_key()) is None
    assert cache.quarantined == 1
    assert not path.exists()
    corrupt = path.with_suffix(".corrupt")
    assert corrupt.exists(), "quarantined entry kept for post-mortem"
    # Quarantine is sticky: the slot reads as a miss from now on.
    assert cache.get(p.cache_key()) is None


@pytest.mark.parametrize("edit", sorted(TAMPER) + sorted(RESEALED))
def test_edited_envelope_is_quarantined(tmp_path, edit):
    """One character of the stored body, or of its checksum: still
    valid JSON, never served.  Nor a router row one value short or
    long under a valid checksum: a short row would load with its
    missing counters as zeros."""
    cache = ResultCache(tmp_path)
    p = point()
    cache.put(p.cache_key(), _guarded_execute(p, None)[1])
    path = cache.path_for(p.cache_key())
    data = json.loads(path.read_text())
    {**TAMPER, **RESEALED}[edit](data)
    path.write_text(json.dumps(data))
    assert cache.get(p.cache_key()) is None
    assert cache.quarantined == 1
    assert path.with_suffix(".corrupt").exists()


def test_record_under_another_key_is_quarantined(tmp_path):
    """A record copied or restored under another key's name passes its
    checksum but answers a different point: served, it would be that
    point's result."""
    cache = ResultCache(tmp_path)
    p, other = point(), point(measure=500)
    cache.put(p.cache_key(), _guarded_execute(p, None)[1])
    path = cache.path_for(other.cache_key())
    path.write_bytes(cache.path_for(p.cache_key()).read_bytes())

    assert cache.get(other.cache_key()) is None
    assert cache.quarantined == 1
    assert not path.exists()
    assert path.with_suffix(".corrupt").exists()
    # The record under its own name is still served.
    assert cache.get(p.cache_key()) is not None
    assert cache.quarantined == 1


def test_undecodable_entry_is_quarantined(tmp_path):
    """Bit rot that is not even text: the decode error is a ValueError,
    not an OSError, and used to escape ``get`` and abort the sweep."""
    cache = ResultCache(tmp_path)
    path = cache.path_for("k")
    path.write_bytes(b'{"x": "\xff"}')

    assert cache.get("k") is None
    assert cache.quarantined == 1
    assert not path.exists()
    assert path.with_suffix(".corrupt").read_bytes() == b'{"x": "\xff"}'
    assert cache.get("k") is None  # a plain miss from now on
    assert cache.quarantined == 1


def test_missing_checksum_is_quarantined(tmp_path):
    cache = ResultCache(tmp_path)
    p = point()
    cache.put(p.cache_key(), _guarded_execute(p, None)[1])
    path = cache.path_for(p.cache_key())
    data = json.loads(path.read_text())
    del data["sha256"]
    path.write_text(json.dumps(data))
    assert cache.get(p.cache_key()) is None
    assert cache.quarantined == 1


# ---------------------------------------------------------------------------
# retry backoff: full jitter, capped
# ---------------------------------------------------------------------------
def test_backoff_full_jitter_and_ceiling(monkeypatch):
    """Each retry round sleeps uniform(0, min(base * 2**(n-1), max)) -
    observed by pinning the randomness and recording the sleeps."""
    sleeps = []
    uniform_args = []

    monkeypatch.setattr(parallel.time, "sleep",
                        lambda s: sleeps.append(s))

    def fake_uniform(lo, hi):
        uniform_args.append((lo, hi))
        return hi  # worst case: the full delay

    monkeypatch.setattr(parallel.random, "uniform", fake_uniform)
    monkeypatch.setattr(parallel, "_guarded_execute",
                        lambda p, t: ("timeout", "synthetic", {}))

    monkeypatch.setattr(parallel, "RETRY_BACKOFF", 2.0)
    monkeypatch.setattr(parallel, "RETRY_BACKOFF_MAX", 5.0)
    runner = SweepRunner(jobs=1, use_cache=False, retries=4, partial=True)
    outcomes = runner.run([point()])
    assert outcomes == [None]
    # Rounds 1..4: 2, 4, then capped at 5, 5.
    assert uniform_args == [(0.0, 2.0), (0.0, 4.0), (0.0, 5.0),
                            (0.0, 5.0)]
    assert sleeps == [2.0, 4.0, 5.0, 5.0]


# ---------------------------------------------------------------------------
# the run budget: one deadline, checked between cycles, on any thread
# ---------------------------------------------------------------------------
def test_watchdog_enforces_timeout_off_main_thread():
    """Off the main thread the deadline still stops an over-budget run
    and reports it as a timeout, and nothing warns about the thread."""
    results = []
    caught = []

    def work():
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            # Big enough to run for many seconds if left alone.
            results.append(_guarded_execute(point(measure=300_000,
                                                  drain=301_000), 0.3))
            caught.extend(seen)

    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive(), "the deadline never stopped the run"
    tag = results[0]
    assert tag[0] == "timeout"
    assert "0.3s wall-clock timeout" in tag[1]
    assert caught == []


def test_fast_run_unharmed_by_watchdog():
    """A run that finishes inside the budget returns normally and
    leaves nothing pending behind in its thread."""
    results = []

    def work():
        results.append(_guarded_execute(point(), 60.0))
        # Plenty of bytecode after the run: a leaked pending exception
        # would detonate here.
        acc = 0
        for i in range(200_000):
            acc += i
        results.append(acc)

    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert results[0][0] == "ok"
    assert results[1] == sum(range(200_000))


def _stub_losing_the_timeout(seconds):
    """An ``execute_point`` stand-in whose over-budget work runs inside
    a ``gc`` callback, outside any cycle loop (an exception raised
    there would be reported as unraisable and dropped); the stub
    returns normally."""
    def busy(phase, info):
        if phase == "start":
            end = time.monotonic() + seconds
            while time.monotonic() < end:
                pass

    def stub(_point, timeout=None):
        gc.callbacks.append(busy)
        try:
            gc.collect()
        finally:
            gc.callbacks.remove(busy)
        return "outcome"
    return stub


def test_timeout_lost_in_a_gc_callback_still_reads_timeout(monkeypatch):
    monkeypatch.setattr(parallel, "execute_point",
                        _stub_losing_the_timeout(0.5))
    tag = _guarded_execute(point(), 0.1)
    assert tag[0] == "timeout", tag


def test_watchdog_timeout_lost_in_a_gc_callback_still_reads_timeout(
        monkeypatch):
    monkeypatch.setattr(parallel, "execute_point",
                        _stub_losing_the_timeout(0.5))
    results = []

    def work():
        results.append(_guarded_execute(point(), 0.1))

    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=60)
    assert results and results[0][0] == "timeout", results
