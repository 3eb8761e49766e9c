"""Periodic run checkpointing: persistence, validation, resume.

Covers the on-disk format (atomic write, checksum, the key guard - the
key hashes the code too; every validation failure reads as "no
checkpoint"), the
``execute_point`` integration (a timed-out attempt resumes from its
checkpoint and still matches an uninterrupted run; success removes the
file), and the zero-overhead contract when checkpointing is off.
"""

import dataclasses
import pickle

import pytest

from repro.checkpoint import (CheckpointSpec, MAGIC, SimCheckpoint,
                              checkpoint_path, discard_checkpoint,
                              load_checkpoint, save_checkpoint)
from repro.config import Design, NoCConfig, SimConfig
from repro.experiments import parallel
from repro.experiments.parallel import (DesignPoint, _guarded_execute,
                                        execute_point, point_basename,
                                        uniform_spec)
from repro.noc.network import Network, RunProgress


def small_point(tmp_path, interval=200, measure=2_000, drain=2_500):
    cfg = SimConfig(design=Design.NORD, noc=NoCConfig(width=4, height=4),
                    warmup_cycles=100, measure_cycles=measure,
                    drain_cycles=drain)
    spec = CheckpointSpec(directory=str(tmp_path / "ckpt"),
                          interval=interval)
    return DesignPoint(cfg=cfg, traffic=uniform_spec(0.10, seed=2),
                       checkpoint=spec)


def make_checkpoint(point, cycles=150):
    net = Network(point.cfg)
    traffic = point.traffic.build(net.mesh)
    progress = RunProgress(point.cfg.warmup_cycles,
                           point.cfg.measure_cycles,
                           point.cfg.drain_cycles)
    assert net.run_segment(traffic, progress, max_cycles=cycles) is None
    return SimCheckpoint(
        key=point.cache_key(), cycle=net.now, wall_clock_s=1.5,
        snapshot=net.snapshot(), progress=progress,
        traffic_blob=pickle.dumps(traffic))


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------
def test_spec_rejects_nonpositive_interval():
    with pytest.raises(ValueError):
        CheckpointSpec(directory="x", interval=0)


def test_save_load_roundtrip(tmp_path):
    point = small_point(tmp_path)
    ckpt = make_checkpoint(point)
    path = checkpoint_path(point.checkpoint, point_basename(point))
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path, key=point.cache_key())
    assert loaded is not None
    assert loaded.cycle == ckpt.cycle
    assert loaded.key == ckpt.key
    assert loaded.wall_clock_s == ckpt.wall_clock_s
    assert loaded.snapshot.blob == ckpt.snapshot.blob
    assert loaded.progress == ckpt.progress
    # No stray temp file once the atomic rename landed.
    assert sorted(p.name for p in path.parent.iterdir()) == [path.name]


def test_missing_file_loads_as_none(tmp_path):
    assert load_checkpoint(tmp_path / "absent.ckpt", key="k") is None


@pytest.mark.parametrize("mangle", [
    lambda raw: b"not a checkpoint at all",
    lambda raw: raw[:len(MAGIC)],                      # body torn off
    lambda raw: raw[:-7],                              # truncated body
    lambda raw: raw.replace(raw[-6:], b"\0" * 6),      # bit rot
])
def test_damaged_file_loads_as_none(tmp_path, mangle):
    point = small_point(tmp_path)
    path = checkpoint_path(point.checkpoint, point_basename(point))
    save_checkpoint(path, make_checkpoint(point))
    path.write_bytes(mangle(path.read_bytes()))
    assert load_checkpoint(path, key=point.cache_key()) is None


def test_version_key_and_code_guards(tmp_path, monkeypatch):
    """Another point's checkpoint never resumes, nor one that other
    code (another version of ``repro``) saved: the point's key hashes
    the code fingerprint."""
    point = small_point(tmp_path)
    path = checkpoint_path(point.checkpoint, point_basename(point))
    save_checkpoint(path, make_checkpoint(point))
    assert load_checkpoint(path, key="someone-elses-point") is None
    assert load_checkpoint(path, key=point.cache_key()) is not None
    monkeypatch.setattr(parallel, "_CODE_VERSION", "other-build")
    assert load_checkpoint(path, key=point.cache_key()) is None


def test_discard_is_idempotent(tmp_path):
    point = small_point(tmp_path)
    path = checkpoint_path(point.checkpoint, point_basename(point))
    save_checkpoint(path, make_checkpoint(point))
    discard_checkpoint(path)
    assert not path.exists()
    discard_checkpoint(path)  # already gone: not an error


# ---------------------------------------------------------------------------
# execute_point integration
# ---------------------------------------------------------------------------
def test_checkpointed_run_matches_plain_run(tmp_path):
    point = small_point(tmp_path)
    plain = execute_point(dataclasses.replace(point, checkpoint=None))
    checked = execute_point(point)
    assert checked[0].to_dict() == plain[0].to_dict()
    assert checked[1].to_dict() == plain[1].to_dict()


def test_checkpoint_removed_after_success(tmp_path):
    point = small_point(tmp_path)
    execute_point(point)
    path = checkpoint_path(point.checkpoint, point_basename(point))
    assert not path.exists()
    # The directory was used (created), just left empty.
    assert path.parent.is_dir()


def test_no_checkpoint_files_when_disabled(tmp_path):
    point = small_point(tmp_path)
    execute_point(dataclasses.replace(point, checkpoint=None))
    assert not (tmp_path / "ckpt").exists()


def test_timeout_then_resume_matches_uninterrupted(tmp_path):
    """The crash shape checkpointing exists for: an attempt dies on the
    wall-clock alarm mid-run, the retry resumes from the last
    checkpoint, and the final result is byte-identical to a run that
    was never interrupted."""
    point = small_point(tmp_path, interval=150, measure=4_000,
                        drain=4_500)
    want = execute_point(dataclasses.replace(point, checkpoint=None))

    tag = _guarded_execute(point, 0.2)  # far below the full-run time
    assert tag[0] == "timeout"
    path = checkpoint_path(point.checkpoint, point_basename(point))
    assert path.exists(), "timed-out attempt left no checkpoint behind"
    ckpt = load_checkpoint(path, key=point.cache_key())
    assert ckpt is not None and ckpt.cycle > 0

    got = execute_point(point)  # resumes, then finishes
    assert got[0].to_dict() == want[0].to_dict()
    assert got[1].to_dict() == want[1].to_dict()
    assert not path.exists()


def test_resume_accumulates_wall_clock(tmp_path):
    point = small_point(tmp_path, interval=150, measure=4_000,
                        drain=4_500)
    tag = _guarded_execute(point, 0.2)
    assert tag[0] == "timeout"
    result, _ = execute_point(point)
    # The reported wall clock covers the lost attempt too (>= the
    # timeout that killed it), not just the resumed leg.
    assert result.wall_clock_s >= 0.2


def test_bufferless_checkpoints_like_any_point(tmp_path, monkeypatch):
    """The bufferless datapath checkpoints through the shared run
    protocol: every 50 cycles it writes a checkpoint, success removes
    it, and a run resumed from one an earlier attempt left behind
    reproduces the plain run's result."""
    import repro.checkpoint as ck
    point = small_point(tmp_path, interval=50, measure=600, drain=1_000)
    point = dataclasses.replace(
        point, cfg=point.cfg.replace(design=Design.BUFFERLESS))
    path = checkpoint_path(point.checkpoint, point_basename(point))
    plain = execute_point(dataclasses.replace(point, checkpoint=None))
    assert plain[0].kernel == "bufferless"
    saved = []

    def spy(where, ckpt):
        saved.append(ckpt.cycle)
        save_checkpoint(where, ckpt)

    monkeypatch.setattr(ck, "save_checkpoint", spy)
    checked = execute_point(point)
    assert saved[:2] == [50, 100] and not path.exists()
    assert checked[0].to_dict() == plain[0].to_dict()
    save_checkpoint(path, make_checkpoint(point))  # a lost attempt's
    resumed = execute_point(point)
    assert resumed[0].wall_clock_s >= 1.5  # it did resume from it
    assert resumed[0].to_dict() == plain[0].to_dict()
    assert not path.exists()
