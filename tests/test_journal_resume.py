"""The write-ahead sweep journal and ``--resume``.

Covers the record format (fsync-per-line JSONL, torn-tail tolerance,
refusal to resume past mid-file damage), the loaders
(``completed_outcomes`` / ``executed_keys``), and the runner
integration: a journaled sweep records every lifecycle event, a resumed
sweep re-runs only the points without ``done`` records, and a signal
mid-sweep surfaces as :class:`SweepInterrupted` with the diagnostics
the CLI prints.
"""

import json
import signal
import threading

import pytest

from repro.config import Design, NoCConfig, SimConfig
from repro.errors import SweepInterrupted
from repro.experiments import parallel
from repro.experiments.journal import (JOURNAL_FORMAT, SweepJournal,
                                       completed_outcomes, executed_keys,
                                       load_journal)
from repro.experiments.parallel import (DesignPoint, SweepRunner,
                                        uniform_spec)
from tests.sealed import RESEALED, TAMPER


def points(n=3):
    designs = [Design.NORD, Design.NO_PG, Design.CONV_PG]
    return [DesignPoint(
        cfg=SimConfig(design=designs[i % len(designs)],
                      noc=NoCConfig(width=4, height=4),
                      warmup_cycles=100, measure_cycles=400,
                      drain_cycles=600),
        traffic=uniform_spec(0.08, seed=1)) for i in range(n)]


# ---------------------------------------------------------------------------
# the journal file itself
# ---------------------------------------------------------------------------
def test_append_load_roundtrip(tmp_path):
    path = tmp_path / "deep" / "sweep.journal.jsonl"
    with SweepJournal(path) as journal:  # creates parent directories
        journal.append({"ev": "sweep", "total": 2})
        journal.append({"ev": "done", "key": "k1"})
    records = load_journal(path)
    assert [r["ev"] for r in records] == ["sweep", "done"]
    assert all(r["format"] == JOURNAL_FORMAT for r in records)
    assert all("ts" in r for r in records)


def test_load_missing_file_is_empty():
    assert load_journal("/nonexistent/journal.jsonl") == []


def test_torn_tail_is_dropped(tmp_path):
    path = tmp_path / "j.jsonl"
    with SweepJournal(path) as journal:
        journal.append({"ev": "sweep", "total": 1})
        journal.append({"ev": "done", "key": "k1"})
    # A SIGKILL mid-write leaves a half-flushed final line.
    with open(path, "a") as fh:
        fh.write('{"ev": "done", "key": "k2", "resu')
    records = load_journal(path)
    assert [r.get("key") for r in records] == [None, "k1"]


def test_mid_file_damage_refuses_to_load(tmp_path):
    path = tmp_path / "j.jsonl"
    with SweepJournal(path) as journal:
        journal.append({"ev": "sweep", "total": 1})
        journal.append({"ev": "done", "key": "k1"})
        journal.append({"ev": "done", "key": "k2"})
    lines = path.read_text().splitlines()
    lines[1] = lines[1][:10]  # damage an interior record
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="corrupt journal record"):
        load_journal(path)


def test_foreign_format_records_are_ignored(tmp_path):
    path = tmp_path / "j.jsonl"
    path.write_text(
        json.dumps({"format": JOURNAL_FORMAT + 1, "ev": "done",
                    "key": "old"}) + "\n"
        + json.dumps({"format": JOURNAL_FORMAT, "ev": "done",
                      "key": "new", "result": {}, "energy": {}}) + "\n")
    assert [r["key"] for r in load_journal(path)] == ["new"]


def test_completed_outcomes_skips_unusable_payloads(tmp_path):
    runner = SweepRunner(jobs=1, use_cache=False,
                         journal_path=tmp_path / "j.jsonl")
    (result, energy), = runner.run(points(1))
    records = load_journal(tmp_path / "j.jsonl")
    records.append({"format": JOURNAL_FORMAT, "ev": "done",
                    "key": "bad", "result": "not a dict", "energy": {}})
    outcomes = completed_outcomes(records)
    assert set(outcomes) == {points(1)[0].cache_key()}
    got_result, got_energy = next(iter(outcomes.values()))
    assert got_result.to_dict() == result.to_dict()
    assert got_energy.to_dict() == energy.to_dict()


def test_executed_keys_dedups_in_first_lease_order():
    records = [
        {"ev": "leased", "key": "b"},
        {"ev": "leased", "key": "a"},
        {"ev": "leased", "key": "b"},   # requeued after a worker loss
        {"ev": "done", "key": "a"},
    ]
    assert executed_keys(records) == ["b", "a"]


# ---------------------------------------------------------------------------
# runner integration
# ---------------------------------------------------------------------------
def test_journaled_sweep_records_lifecycle(tmp_path):
    pts = points(2)
    runner = SweepRunner(jobs=1, use_cache=False,
                         journal_path=tmp_path / "j.jsonl")
    runner.run(pts)
    records = load_journal(tmp_path / "j.jsonl")
    evs = [r["ev"] for r in records]
    assert evs[0] == "sweep"
    assert records[0]["total"] == 2 and records[0]["executing"] == 2
    assert evs.count("queued") == 2
    assert evs.count("leased") == 2
    assert evs.count("done") == 2
    # done records embed the full payload (resume without the cache).
    for record in records:
        if record["ev"] == "done":
            body = json.loads(record["body"])
            assert body["result"] and body["energy"]


def test_resume_skips_completed_points(tmp_path):
    pts = points(3)
    journal = tmp_path / "j.jsonl"
    want = SweepRunner(jobs=1, use_cache=False, journal_path=journal
                       ).run(pts)

    resumed = SweepRunner(jobs=1, use_cache=False, journal_path=journal,
                          resume=True)
    got = resumed.run(pts)
    assert resumed.stats.resumed == 3
    assert resumed.stats.executed == 0
    assert [(r.to_dict(), e.to_dict()) for r, e in got] == \
        [(r.to_dict(), e.to_dict()) for r, e in want]
    # The resumed section re-leased nothing.
    records = load_journal(journal)
    last_sweep = max(i for i, r in enumerate(records)
                     if r["ev"] == "sweep")
    assert not executed_keys(records[last_sweep:])


def test_resume_reruns_only_missing_points(tmp_path):
    pts = points(3)
    journal = tmp_path / "j.jsonl"
    want = SweepRunner(jobs=1, use_cache=False, journal_path=journal
                       ).run(pts)
    # Forge a crash: drop the last point's "done" record.
    lines = [line for line in journal.read_text().splitlines()
             if not (json.loads(line).get("ev") == "done"
                     and json.loads(line)["key"] == pts[2].cache_key())]
    journal.write_text("\n".join(lines) + "\n")

    resumed = SweepRunner(jobs=1, use_cache=False, journal_path=journal,
                          resume=True)
    got = resumed.run(pts)
    assert resumed.stats.resumed == 2
    assert resumed.stats.executed == 1
    assert [(r.to_dict(), e.to_dict()) for r, e in got] == \
        [(r.to_dict(), e.to_dict()) for r, e in want]
    records = load_journal(journal)
    last_sweep = max(i for i, r in enumerate(records)
                     if r["ev"] == "sweep")
    assert executed_keys(records[last_sweep:]) == [pts[2].cache_key()]


def test_resume_backfills_the_cache(tmp_path):
    from repro.experiments.parallel import ResultCache
    pts = points(1)
    journal = tmp_path / "j.jsonl"
    SweepRunner(jobs=1, use_cache=False, journal_path=journal).run(pts)
    cache = ResultCache(tmp_path / "cache")
    runner = SweepRunner(jobs=1, use_cache=True, cache=cache,
                         journal_path=journal, resume=True)
    runner.run(pts)
    assert runner.stats.resumed == 1
    assert cache.get(pts[0].cache_key()) is not None


def _rewrite_done(journal, edit):
    """Apply ``edit`` to the (single) ``done`` record of ``journal``."""
    lines = []
    for line in journal.read_text().splitlines():
        record = json.loads(line)
        if record["ev"] == "done":
            edit(record)
        lines.append(json.dumps(record))
    journal.write_text("\n".join(lines) + "\n")


def test_altered_done_record_is_rerun_not_laundered(tmp_path):
    """A ``done`` record whose numbers were changed (still valid JSON)
    used to be resumed as is and re-signed into the cache by the
    backfill, after which every cached run served it as a clean hit."""
    from repro.experiments.parallel import ResultCache
    pts = points(1)
    journal = tmp_path / "j.jsonl"
    (want, _), = SweepRunner(jobs=1, use_cache=False,
                             journal_path=journal).run(pts)

    def add_latency(record):  # valid JSON, checksum left as it was
        body = json.loads(record["body"])
        body["result"]["total_latency"] += 1000
        record["body"] = json.dumps(body, sort_keys=True,
                                    separators=(",", ":"))

    _rewrite_done(journal, add_latency)
    cache = ResultCache(tmp_path / "cache")
    runner = SweepRunner(jobs=1, use_cache=True, cache=cache,
                         journal_path=journal, resume=True)
    (got, _), = runner.run(pts)
    assert (runner.stats.resumed, runner.stats.executed,
            runner.stats.misses) == (0, 1, 1)
    assert got.total_latency == want.total_latency
    assert cache.get(pts[0].cache_key())[0].total_latency \
        == want.total_latency
    assert cache.quarantined == 0
    # The re-run is journaled like any first run of the point.
    records = load_journal(journal)
    last_sweep = max(i for i, r in enumerate(records)
                     if r["ev"] == "sweep")
    assert [r["ev"] for r in records[last_sweep:]] == \
        ["sweep", "queued", "leased", "done"]


@pytest.mark.parametrize("edit",
                         sorted(TAMPER) + sorted(RESEALED) + ["format-1"])
def test_untrusted_done_record_reruns_that_point(tmp_path, edit):
    """One character of a ``done`` record's body or checksum, a router
    row one value short or long under a valid checksum, or a record of
    the last unsealed journal format: ``--resume`` runs that point
    again, and only that one."""
    pts = points(2)
    journal = tmp_path / "j.jsonl"
    SweepRunner(jobs=1, use_cache=False, journal_path=journal).run(pts)
    victim = pts[1].cache_key()
    lines = []
    for line in journal.read_text().splitlines():
        record = json.loads(line)
        if record["ev"] == "done" and record["key"] == victim:
            if edit == "format-1":  # values inline, as format 1 wrote them
                record.update(json.loads(record.pop("body")), format=1)
            else:
                {**TAMPER, **RESEALED}[edit](record)
        lines.append(json.dumps(record))
    journal.write_text("\n".join(lines) + "\n")
    assert set(completed_outcomes(load_journal(journal))) \
        == {pts[0].cache_key()}
    resumed = SweepRunner(jobs=1, use_cache=False, journal_path=journal,
                          resume=True)
    resumed.run(pts)
    assert (resumed.stats.resumed, resumed.stats.executed) == (1, 1)
    records = load_journal(journal)
    last_sweep = max(i for i, r in enumerate(records) if r["ev"] == "sweep")
    assert executed_keys(records[last_sweep:]) == [victim]


def test_done_record_without_checksum_is_not_resumed(tmp_path):
    pts = points(1)
    journal = tmp_path / "j.jsonl"
    SweepRunner(jobs=1, use_cache=False, journal_path=journal).run(pts)
    _rewrite_done(journal, lambda record: record.pop("sha256"))
    assert completed_outcomes(load_journal(journal)) == {}
    resumed = SweepRunner(jobs=1, use_cache=False, journal_path=journal,
                          resume=True)
    resumed.run(pts)
    assert (resumed.stats.resumed, resumed.stats.executed) == (0, 1)


def test_cache_entry_and_done_record_are_one_record(tmp_path):
    """One codec, two stores: what the cache file holds for a point is
    what the journal's ``done`` record holds for it."""
    from repro.experiments.parallel import ResultCache
    pts = points(1)
    journal = tmp_path / "j.jsonl"
    cache = ResultCache(tmp_path / "cache")
    SweepRunner(jobs=1, use_cache=True, cache=cache,
                journal_path=journal).run(pts)
    entry = json.loads(cache.path_for(pts[0].cache_key()).read_text())
    done, = [r for r in load_journal(journal) if r["ev"] == "done"]
    for name in ("body", "sha256"):
        assert entry[name] == done[name], name
    assert len(done["sha256"]) == 64


def test_failed_points_are_journaled(tmp_path):
    bad = DesignPoint(
        cfg=SimConfig(design=Design.NORD, noc=NoCConfig(width=4, height=4),
                      warmup_cycles=10, measure_cycles=20,
                      drain_cycles=30),
        traffic=parallel.TrafficSpec(kind="parsec",
                                     benchmark="no-such-benchmark"))
    runner = SweepRunner(jobs=1, use_cache=False, partial=True,
                         journal_path=tmp_path / "j.jsonl")
    outcomes = runner.run([bad])
    assert outcomes == [None]
    failed = [r for r in load_journal(tmp_path / "j.jsonl")
              if r["ev"] == "failed"]
    assert len(failed) == 1
    assert failed[0]["kind"] == "error"


def test_signal_mid_sweep_raises_sweep_interrupted(tmp_path):
    """A SIGTERM between points stops the sweep gracefully: the journal
    records the interruption and the exception carries the diagnostics
    the CLI turns into a resume command."""
    pts = points(3)
    journal = tmp_path / "j.jsonl"
    runner = SweepRunner(jobs=1, use_cache=False, journal_path=journal)
    calls = []

    real_execute = parallel._guarded_execute

    def execute_then_signal(point, timeout):
        tag = real_execute(point, timeout)
        calls.append(1)
        if len(calls) == 2:
            # Fires before this point's completion callback runs, so
            # point 0 is journaled done, point 1 is lost, point 2 never
            # starts - the classic ^C-mid-sweep shape.
            signal.raise_signal(signal.SIGTERM)
        return tag

    assert threading.current_thread() is threading.main_thread()
    before = signal.getsignal(signal.SIGTERM)
    parallel._guarded_execute = execute_then_signal
    try:
        with pytest.raises(SweepInterrupted) as info:
            runner.run(pts)
    finally:
        parallel._guarded_execute = real_execute
    diag = info.value.diagnostics
    assert diag["journal"] == str(journal)
    assert diag["total"] == 3
    assert diag["completed"] == 1
    records = load_journal(journal)
    assert records[-1]["ev"] == "interrupted"
    # SIGTERM handling was restored after the sweep.
    assert signal.getsignal(signal.SIGTERM) is before

    # And the journal is exactly what --resume needs to finish the job.
    resumed = SweepRunner(jobs=1, use_cache=False, journal_path=journal,
                          resume=True)
    got = resumed.run(pts)
    assert all(outcome is not None for outcome in got)
    assert resumed.stats.resumed >= 1
