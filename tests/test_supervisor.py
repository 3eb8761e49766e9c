"""The supervised worker pool: leases, loss recovery, observability.

A SIGKILLed worker must cost exactly the point it was leasing - which
is re-enqueued and completes - while every other point is untouched and
the final outcomes are byte-identical to a serial run.  A point that
repeatedly kills its host is given up on after ``MAX_REQUEUES``.
"""

import json
import os
import signal

import pytest

from repro.config import Design, NoCConfig, SimConfig
from repro.experiments.parallel import (DesignPoint, _guarded_execute,
                                        uniform_spec)
from repro.experiments.supervisor import PoolSupervisor


def points(n=3, measure=1_200):
    designs = [Design.NORD, Design.NO_PG, Design.CONV_PG,
               Design.CONV_PG_OPT]
    return [DesignPoint(
        cfg=SimConfig(design=designs[i % len(designs)],
                      noc=NoCConfig(width=4, height=4),
                      warmup_cycles=100, measure_cycles=measure,
                      drain_cycles=measure + 500),
        traffic=uniform_spec(0.08, seed=1)) for i in range(n)]


def canonical(outcomes):
    return json.dumps([[r.to_dict(), e.to_dict()] for r, e in outcomes],
                      sort_keys=True)


def serial(pts):
    return [_guarded_execute(p, None) for p in pts]


def test_rejects_zero_workers():
    with pytest.raises(ValueError):
        PoolSupervisor(0, None)


def test_empty_batch():
    assert PoolSupervisor(2, None).run([]) == []


def test_supervised_matches_serial():
    pts = points(3)
    want = serial(pts)
    assert all(tag[0] == "ok" for tag in want)
    supervisor = PoolSupervisor(2, None)
    got = supervisor.run(pts)
    assert canonical([t[1] for t in got]) == \
        canonical([t[1] for t in want])
    assert supervisor.workers_lost == 0
    # Observability: every point leased exactly once, nothing requeued.
    leased = [e for e in supervisor.events if e["ev"] == "leased"]
    assert sorted(e["index"] for e in leased) == list(range(3))
    assert not [e for e in supervisor.events if e["ev"] == "requeued"]


def test_sigkilled_worker_loses_only_its_point():
    pts = points(4, measure=2_500)
    want = serial(pts)
    killed = {}

    def on_event(record):
        if record["ev"] == "leased" and not killed \
                and record["index"] >= 1:
            killed["pid"] = record["pid"]
            os.kill(record["pid"], signal.SIGKILL)

    supervisor = PoolSupervisor(2)
    got = supervisor.run(pts, on_event=on_event)
    assert killed, "chaos hook never fired"
    assert supervisor.workers_lost >= 1
    requeued = [e for e in supervisor.events if e["ev"] == "requeued"]
    assert len(requeued) >= 1
    assert all(tag[0] == "ok" for tag in got), got
    assert canonical([t[1] for t in got]) == \
        canonical([t[1] for t in want])


def test_poison_point_settles_as_crash_after_max_requeues(monkeypatch):
    """A point whose host is killed on every lease is abandoned after
    ``MAX_REQUEUES`` losses; the other points still complete."""
    from repro.experiments import supervisor as supervisor_mod
    monkeypatch.setattr(supervisor_mod, "MAX_REQUEUES", 1)
    pts = points(2)
    want = serial(pts)

    def on_event(record):
        if record["ev"] == "leased" and record["index"] == 0:
            os.kill(record["pid"], signal.SIGKILL)

    supervisor = PoolSupervisor(2)
    got = supervisor.run(pts, on_event=on_event)
    assert got[0][0] == "crash"
    assert "giving up" in got[0][1]
    assert got[1][0] == "ok"
    assert canonical([got[1][1]]) == canonical([want[1][1]])
    requeued = [e for e in supervisor.events if e["ev"] == "requeued"]
    assert len(requeued) == 1  # bounded: lost, retried once, abandoned


def test_on_done_fires_per_point_in_completion_order():
    pts = points(3)
    done = []
    supervisor = PoolSupervisor(2)
    got = supervisor.run(pts, on_done=lambda i, tag: done.append(i))
    assert sorted(done) == list(range(3))
    assert all(tag[0] == "ok" for tag in got)


# ---------------------------------------------------------------------------
# one pool for many runs
# ---------------------------------------------------------------------------
def leased_pids(supervisor):
    return {e["pid"] for e in supervisor.events if e["ev"] == "leased"}


def kill_on_lease(killed):
    """An ``on_event`` hook that SIGKILLs the first worker to lease a
    point other than point 0 (once per ``killed`` dict)."""
    def on_event(record):
        if record["ev"] == "leased" and not killed \
                and record["index"] >= 1:
            killed["pid"] = record["pid"]
            os.kill(record["pid"], signal.SIGKILL)
    return on_event


def test_pool_is_reused_across_runs():
    pts = points(4, measure=300)
    want = canonical([t[1] for t in serial(pts)])
    with PoolSupervisor(2) as supervisor:
        first = supervisor.run(pts)
        pool_pids = {w.proc.pid for w in supervisor._pool.values()}
        assert leased_pids(supervisor) <= pool_pids
        second = supervisor.run(pts)
        # Which worker leases which point is a race (one fast worker
        # may take all four); which processes serve the run is not.
        assert {w.proc.pid for w in supervisor._pool.values()} == pool_pids
        assert leased_pids(supervisor) <= pool_pids
        assert len(pool_pids) == supervisor.spawned == supervisor.workers
        # The event log is per run; nothing was spawned for the second.
        assert not [e for e in supervisor.events if e["ev"] == "spawned"]
    assert canonical([t[1] for t in first]) == want
    assert canonical([t[1] for t in second]) == want


def test_kill_on_lease_looped_on_one_pool():
    """The scenario of ``test_sigkilled_worker_loses_only_its_point``,
    over and over against one long-lived pool.  With workers sharing a
    ``multiprocessing.Queue`` about one kill in four landed on a worker
    holding the queue's lock and stalled the whole pool for minutes."""
    import time
    pts = points(4, measure=300)
    want = canonical([t[1] for t in serial(pts)])
    with PoolSupervisor(2) as supervisor:
        for _ in range(24):
            killed = {}
            start = time.monotonic()
            got = supervisor.run(pts, on_event=kill_on_lease(killed))
            assert time.monotonic() - start < 30
            assert killed, "chaos hook never fired"
            assert all(tag[0] == "ok" for tag in got), got
            assert canonical([t[1] for t in got]) == want
            requeued = [e for e in supervisor.events
                        if e["ev"] == "requeued"]
            assert len(requeued) == 1
        assert supervisor.workers_lost == 24
        assert supervisor.spawned == 2 + 24


def test_worker_killed_while_idle_costs_no_point():
    pts = points(2, measure=300)
    with PoolSupervisor(2) as supervisor:
        supervisor.run(pts)
        victim = min(leased_pids(supervisor))
        os.kill(victim, signal.SIGKILL)
        # Block until it is dead, leaving it for the supervisor to reap.
        os.waitid(os.P_PID, victim, os.WEXITED | os.WNOWAIT)
        got = supervisor.run(pts)
        assert all(tag[0] == "ok" for tag in got)
        assert supervisor.workers_lost == 1 and supervisor.spawned == 3
        assert victim not in leased_pids(supervisor)
        assert not [e for e in supervisor.events if e["ev"] == "requeued"]


def test_close_is_idempotent_and_leaves_no_children():
    import multiprocessing
    supervisor = PoolSupervisor(2)
    supervisor.run(points(2, measure=300))
    assert len(multiprocessing.active_children()) == 2
    supervisor.close()
    supervisor.close()
    assert multiprocessing.active_children() == []
    # Closed is not dead: the next run spawns a fresh pool.
    assert all(t[0] == "ok" for t in supervisor.run(points(2, measure=300)))
    supervisor.close()
    assert multiprocessing.active_children() == []


def test_dropped_supervisor_takes_its_workers_along():
    import gc
    import multiprocessing
    supervisor = PoolSupervisor(2)
    supervisor.run(points(2, measure=300))
    assert len(multiprocessing.active_children()) == 2
    del supervisor
    gc.collect()
    assert multiprocessing.active_children() == []


def test_aborted_run_takes_the_pool_along():
    """A run that ends by exception may leave a pipe mid-message, so no
    worker survives it."""
    import multiprocessing

    def on_done(index, tag):
        raise KeyboardInterrupt

    supervisor = PoolSupervisor(2)
    with pytest.raises(KeyboardInterrupt):
        supervisor.run(points(4, measure=300), on_done=on_done)
    assert multiprocessing.active_children() == []


def test_leases_go_out_longest_first_results_in_submission_order():
    rates = [0.02, 0.10, 0.05, 0.10, 0.01]
    pts = [DesignPoint(
        cfg=SimConfig(design=Design.NO_PG, noc=NoCConfig(width=4, height=4),
                      warmup_cycles=50, measure_cycles=200,
                      drain_cycles=500),
        traffic=uniform_spec(rate, seed=1)) for rate in rates]
    estimates = [p.work_estimate for p in pts]
    assert estimates == [16 * rate * 250 for rate in rates]
    with PoolSupervisor(1) as supervisor:  # one worker: a total order
        got = supervisor.run(pts)
    leased = [e["index"] for e in supervisor.events if e["ev"] == "leased"]
    assert leased == [1, 3, 2, 0, 4]  # ties keep submission order
    assert canonical([t[1] for t in got]) == \
        canonical([t[1] for t in serial(pts)])


def test_parsec_work_estimate_uses_the_profile_rate():
    from repro.experiments.parallel import parsec_spec
    from repro.traffic.parsec import PROFILES
    cfg = SimConfig(design=Design.NORD, noc=NoCConfig(width=4, height=4),
                    warmup_cycles=100, measure_cycles=900)
    point = DesignPoint(cfg=cfg, traffic=parsec_spec("canneal"))
    assert point.work_estimate == 16 * PROFILES["canneal"].rate * 1_000


def test_between_points_cleanup_collects_the_finished_network():
    """A worker now outlives its sweep, and every finished ``Network``
    is a reference cycle: without the clean-up each one would sit in the
    worker until a gen-2 collection happened by."""
    import gc
    from repro.experiments.supervisor import _between_points
    from repro.noc.network import Network
    point = points(1, measure=300)[0]

    def networks_of_the_point():
        return [o for o in gc.get_objects()
                if isinstance(o, Network) and o.cfg is point.cfg]

    gc.collect()
    gc.disable()  # or an automatic pass may do the clean-up's job
    try:
        assert _guarded_execute(point, None)[0] == "ok"
        assert len(networks_of_the_point()) == 1  # SoANetwork is-a Network
        _between_points()
        assert networks_of_the_point() == []
    finally:
        gc.enable()


def _worker_reporting_its_modules(conn):
    """Child side: the real worker loop, its pipe tapped so that
    ``ready`` is followed by what the worker has imported by then."""
    import sys
    from repro.experiments.supervisor import _worker_main

    class Tap:
        recv = conn.recv

        @staticmethod
        def send(msg):
            conn.send(msg)
            if msg == ("ready",):
                conn.send(("modules", sorted(sys.modules)))

    _worker_main(Tap())


def test_ready_worker_has_the_simulator_loaded():
    """The harness modules no longer import the simulator (a cache hit
    must not), so the worker does it by name before ``ready``: the first
    lease pays for simulating, not for compiling a kernel."""
    import multiprocessing
    ctx = multiprocessing.get_context("spawn")
    parent_conn, child_conn = ctx.Pipe()
    proc = ctx.Process(target=_worker_reporting_its_modules,
                       args=(child_conn,), daemon=True)
    proc.start()
    try:
        child_conn.close()
        msg = ("hb",)
        while msg[0] != "modules":  # heartbeats, then ready, then this
            assert parent_conn.poll(60), "worker never reported ready"
            msg = parent_conn.recv()
        parent_conn.send(None)  # the supervisor's goodbye
        proc.join(30)
        assert not proc.is_alive()
    finally:
        proc.kill()
        proc.join()
    for name in ("repro.noc.network", "repro.noc.soa", "repro.noc.ref",
                 "repro.noc.bufferless", "repro.traffic.synthetic",
                 "repro.traffic.parsec", "repro.metrics.sampler",
                 "repro.trace.recorder"):
        assert name in msg[1], f"{name} not imported before ready"


def test_workers_that_never_come_up_trip_the_breaker():
    """A broken worker environment must end the run with an error per
    point, not an endless respawn loop."""
    def on_event(record):
        if record["ev"] == "spawned":
            os.kill(record["pid"], signal.SIGKILL)

    with PoolSupervisor(2) as supervisor:
        got = supervisor.run(points(3, measure=300), on_event=on_event)
    assert [tag[0] for tag in got] == ["error"] * 3
    assert "worker pool unusable" in got[0][1]
    assert 4 <= supervisor.workers_lost <= supervisor.spawned <= 6


def test_frozen_worker_is_killed_and_its_point_requeued(monkeypatch):
    from repro.experiments import supervisor as supervisor_mod
    monkeypatch.setattr(supervisor_mod, "HEARTBEAT_STALE", 2.0)
    frozen = {}

    def on_event(record):
        if record["ev"] == "leased" and not frozen:
            frozen["pid"] = record["pid"]
            os.kill(record["pid"], signal.SIGSTOP)

    pts = points(3, measure=300)
    with PoolSupervisor(2) as supervisor:
        got = supervisor.run(pts, on_event=on_event)
    assert canonical([t[1] for t in got]) == \
        canonical([t[1] for t in serial(pts)])
    lost = [e for e in supervisor.events if e["ev"] == "worker-lost"]
    assert [e["reason"] for e in lost] == ["heartbeats went silent"]
    assert len([e for e in supervisor.events if e["ev"] == "requeued"]) == 1
