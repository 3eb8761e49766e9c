"""The code fingerprint is the one staleness rule of every store.

A result-cache entry, a journal ``done`` record and a mid-run checkpoint
are each looked up by the design point's cache key, and that key hashes
:func:`repro.experiments.parallel.code_version`.  None of them carries
a format number of its own, so this is the only thing that keeps a
record written by other code from being read back: change the
fingerprint, and every store must read as empty.
"""

from dataclasses import replace

import pytest

from repro.checkpoint import CheckpointSpec, checkpoint_path, load_checkpoint
from repro.config import Design, NoCConfig, SimConfig
from repro.errors import RunTimeout
from repro.experiments import parallel
from repro.experiments.journal import (completed_outcomes, executed_keys,
                                       load_journal)
from repro.experiments.parallel import (DesignPoint, ResultCache,
                                        SweepRunner, execute_point,
                                        point_basename, uniform_spec)


def points():
    return [DesignPoint(
        cfg=SimConfig(design=design, noc=NoCConfig(width=4, height=4),
                      warmup_cycles=100, measure_cycles=400,
                      drain_cycles=600),
        traffic=uniform_spec(0.08, seed=1))
        for design in (Design.NORD, Design.CONV_PG)]


def test_code_change_invalidates_cache_journal_and_checkpoint(
        tmp_path, monkeypatch):
    pts = points()
    cache = ResultCache(tmp_path / "cache")
    journal = tmp_path / "j.jsonl"
    SweepRunner(jobs=1, cache=cache, journal_path=journal).run(pts)
    # A run that stops after its first cycle, leaving its checkpoint.
    ckpt_point = replace(pts[0], checkpoint=CheckpointSpec(
        directory=str(tmp_path / "ckpt"), interval=1))
    with pytest.raises(RunTimeout):
        execute_point(ckpt_point, timeout=0)
    ckpt_path = checkpoint_path(ckpt_point.checkpoint,
                                point_basename(ckpt_point))

    old_keys = [p.cache_key() for p in pts]
    assert all(cache.get(key) is not None for key in old_keys)
    assert set(completed_outcomes(load_journal(journal))) == set(old_keys)
    assert load_checkpoint(ckpt_path, key=ckpt_point.cache_key()) \
        is not None

    monkeypatch.setattr(parallel, "_CODE_VERSION", "0" * 64)
    new_keys = [p.cache_key() for p in pts]

    # Every point is a cache miss - an absent file, not a quarantine.
    assert all(cache.get(key) is None for key in new_keys)
    assert cache.quarantined == 0
    # --resume reuses no done record: every point runs again.
    resumed = SweepRunner(jobs=1, cache=cache, journal_path=journal,
                          resume=True)
    resumed.run(pts)
    assert (resumed.stats.resumed, resumed.stats.executed,
            resumed.stats.misses) == (0, 2, 2)
    records = load_journal(journal)
    last_sweep = max(i for i, r in enumerate(records)
                     if r["ev"] == "sweep")
    assert executed_keys(records[last_sweep:]) == new_keys
    # The checkpoint the old code left loads as absent.
    assert load_checkpoint(ckpt_path, key=ckpt_point.cache_key()) is None
