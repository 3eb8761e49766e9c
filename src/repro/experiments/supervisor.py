"""Supervised, long-lived worker pool for sweep execution.

A pool lives as long as its owner (a :class:`SweepRunner`, the chaos
harness, a test), not as long as one sweep: workers are spawned at the
first :meth:`PoolSupervisor.run` that needs them, kept across calls -
``run-all`` is eight sweeps, and each worker imports the simulator once
instead of eight times - and released by :meth:`PoolSupervisor.close`
(or ``with``, or a finalizer when the supervisor is dropped).

Each worker talks to the supervisor over its *own* duplex pipe; the
supervisor multiplexes the pipes and the process sentinels with
``multiprocessing.connection.wait``.  No lock is shared between
workers, so a worker that dies - at any instruction - can take nothing
with it but the point it was running (a queue shared by all workers
cannot promise that: a process SIGKILLed inside ``put``/``get`` dies
holding the queue's lock and starves every other worker).

* The supervisor *assigns* each point to an idle worker; the assignment
  is the lease.  Pending points go out longest-first by
  :attr:`DesignPoint.work_estimate`, so the long points do not end up
  as a straggler tail.
* A dead worker (SIGKILL, OOM, segfault) is seen at once through its
  sentinel and forfeits its lease - the lost point goes back to the
  head of the line (bounded by :data:`MAX_REQUEUES`) and a replacement is
  spawned; every *other* point is untouched.
* A wedged worker - lease older than the outer guard, or heartbeats
  gone silent while the process still shows alive - is killed and
  handled the same way (the lease-expiry case reports ``timeout`` so
  the runner's retry policy applies).
* Completions are delivered to the caller *as they happen* via
  ``on_done``, so journal/cache writes land before any later crash.
* A run that ends by exception (an interrupt, a failing ``on_done``)
  takes the whole pool with it: a pipe may have been left mid-message,
  and the next run simply spawns afresh.

Determinism: outcomes are keyed by submission index, so the returned
list is in submission order regardless of scheduling, and each point's
result is independent of which worker ran it and of what that worker
ran before (points share no state; a finished point's network holds no
reference cycle, so it is freed as soon as its outcome is sent).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import weakref
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Seconds between worker heartbeats.
HEARTBEAT_PERIOD = 1.0
#: A live-looking process whose heartbeats stopped this long ago is
#: treated as frozen and killed.  Generous: heartbeats come from a
#: dedicated daemon thread, so only a truly stuck process goes silent.
HEARTBEAT_STALE = 60.0
#: How long ``close()`` lets idle workers exit on their own before it
#: kills them.
SHUTDOWN_GRACE = 5.0
#: How often one point may be lost to a dying worker before it is
#: reported as a crash instead of re-enqueued (guards against a
#: "poison" point that reliably kills its host).
MAX_REQUEUES = 2


def _worker_main(conn) -> None:
    """Worker process entry point (spawn-safe, module top level)."""
    parent = os.getppid()
    # The heartbeat thread and the main thread share the pipe's write
    # side.  The lock is local to this process: it dies with it.
    send_lock = threading.Lock()

    def send(msg: Tuple) -> None:
        with send_lock:
            conn.send(msg)

    def beat() -> None:
        while True:
            time.sleep(HEARTBEAT_PERIOD)
            if os.getppid() != parent:
                # Orphaned (parent SIGKILLed): nobody is reading our
                # results and nobody will tell us to exit.
                os._exit(2)
            try:
                send(("hb",))
            except OSError:  # pipe torn down: the process is exiting
                return

    threading.Thread(target=beat, daemon=True).start()
    # Imported here (not at module top) so the heavy simulator import
    # happens once per worker, after the heartbeat is up.  Nothing the
    # parent-side harness imports loads the simulator (a cache hit must
    # not), so every module a point can execute in is named: a lease
    # pays for simulating, never for compiling a kernel.
    from .parallel import _guarded_execute
    from .. import checkpoint, faults  # noqa: F401
    from ..metrics import sampler  # noqa: F401
    from ..noc import bufferless, network, ref, soa  # noqa: F401
    from ..power import model  # noqa: F401
    from ..trace import recorder  # noqa: F401
    from ..traffic import synthetic  # noqa: F401
    send(("ready",))
    while True:
        try:
            task = conn.recv()
        except EOFError:  # supervisor gone without saying goodbye
            return
        if task is None:
            return
        generation, index, point, timeout = task
        send(("done", generation, index, _guarded_execute(point, timeout)))


class _Worker:
    """Supervisor-side record of one live worker process."""

    __slots__ = ("wid", "proc", "conn", "ready", "lease", "since",
                 "last_beat")

    def __init__(self, wid: int, proc, conn) -> None:
        self.wid = wid
        self.proc = proc
        self.conn = conn
        #: Imports done, waiting on its pipe: may be assigned a point.
        self.ready = False
        #: Index of the point it is running (None = idle), and since when.
        self.lease: Optional[int] = None
        self.since = 0.0
        self.last_beat = time.monotonic()


def _shutdown(pool: Dict[int, _Worker], grace: float) -> None:
    """Stop every worker in ``pool``: ask, wait up to ``grace``, kill.

    Module-level (and handed the dict, not the supervisor) so the
    supervisor's finalizer can call it without keeping its owner alive.
    """
    workers = list(pool.values())
    pool.clear()
    for worker in workers:
        try:
            worker.conn.send(None)
        except OSError:
            pass  # already dead; join() below reaps it
    deadline = time.monotonic() + grace
    for worker in workers:
        _discard(worker, max(0.0, deadline - time.monotonic()))


def _discard(worker: _Worker, grace: float) -> None:
    """Wait ``grace`` for one worker to exit, kill it if it has not, and
    release its pipe and process handles."""
    worker.proc.join(grace)
    if worker.proc.is_alive():
        worker.proc.kill()
        worker.proc.join()
    worker.conn.close()
    worker.proc.close()


class PoolSupervisor:
    """Run batches of design points under supervised worker processes.

    ``workers`` and ``timeout`` are plain attributes, read at the start
    of each :meth:`run`; ``timeout`` travels with each task, so changing
    it between runs needs no new pool.
    """

    def __init__(self, workers: int, timeout: Optional[float] = None) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.workers = workers
        self.timeout = timeout
        #: Observability: every spawn/lease/requeue/worker-loss event of
        #: the most recent :meth:`run`.
        self.events: List[Dict[str, Any]] = []
        #: Workers started / lost (killed, crashed, frozen) over the
        #: supervisor's lifetime.
        self.spawned = 0
        self.workers_lost = 0
        self._pool: Dict[int, _Worker] = {}
        #: Bumped per run and echoed in every ``done``: a point index
        #: means something only within the run that assigned it.
        self._generation = 0
        # A supervisor that is dropped without close() takes its
        # workers along (they are idle: half a second is plenty).
        weakref.finalize(self, _shutdown, self._pool, 0.5)

    # -- lifetime ----------------------------------------------------------
    def close(self) -> None:
        """Stop the workers.  Idempotent; a later :meth:`run` spawns a
        fresh pool."""
        _shutdown(self._pool, SHUTDOWN_GRACE)

    def __enter__(self) -> "PoolSupervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- main loop ---------------------------------------------------------
    def run(self, points: List[Any], *,
            on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
            on_done: Optional[Callable[[int, Tuple], None]] = None
            ) -> List[Tuple]:
        """Execute ``points``; returns their tagged outcomes in
        submission order.  ``on_event`` sees every spawn/lease/requeue/
        worker-loss record as it happens, ``on_done`` every completion
        (point index, tagged outcome)."""
        n = len(points)
        if n == 0:
            return []
        self.events = events = []
        self._generation += 1
        generation = self._generation
        pool = self._pool
        timeout = self.timeout
        # Lease expiry is generous, so a slow worker is judged by its
        # own between-cycle deadline first; the lease catches a worker
        # wedged inside one cycle, which that deadline cannot see.
        guard = None if timeout is None else 2 * timeout + 30
        outcomes: List[Optional[Tuple]] = [None] * n
        requeues = [0] * n
        # Ascending (estimate, then later submission first), handed out
        # from the end: longest first, ties in submission order.
        pending = sorted(range(n),
                         key=lambda i: (points[i].work_estimate, -i))
        done_count = 0
        #: Consecutive worker deaths with no lease held; reset by any
        #: lease.  A broken worker environment (import failure,
        #: unpicklable __main__ under spawn) then surfaces as an error
        #: instead of an endless respawn loop.
        futile_deaths = 0
        futile_limit = max(4, 2 * self.workers)

        def emit(ev: str, **payload: Any) -> None:
            record = {"ev": ev, **payload}
            events.append(record)
            if on_event is not None:
                on_event(record)

        def settle(index: int, tag: Tuple) -> None:
            nonlocal done_count
            outcomes[index] = tag
            done_count += 1
            if on_done is not None:
                on_done(index, tag)

        def spawn() -> None:
            ctx = multiprocessing.get_context("spawn")
            ours, theirs = ctx.Pipe(duplex=True)
            wid = self.spawned
            proc = ctx.Process(target=_worker_main, args=(theirs,),
                               daemon=True)
            proc.start()
            theirs.close()  # or the worker's death would not read as EOF
            self.spawned += 1
            pool[wid] = _Worker(wid, proc, ours)
            emit("spawned", worker=wid, pid=proc.pid)

        def assign(worker: _Worker, index: int) -> None:
            nonlocal futile_deaths
            try:
                worker.conn.send((generation, index, points[index], timeout))
            except OSError:
                # Died idle: the point was never handed out, and the
                # sentinel reaps the worker on the next wait.
                worker.ready = False
                pending.append(index)
                return
            worker.lease = index
            worker.since = time.monotonic()
            futile_deaths = 0
            emit("leased", index=index, worker=worker.wid,
                 pid=worker.proc.pid)

        def drain(worker: _Worker, now: float) -> bool:
            """Handle everything the worker has sent; False once its end
            of the pipe is closed (it is dead or dying)."""
            while True:
                try:
                    if not worker.conn.poll():
                        return True
                    msg = worker.conn.recv()
                except (EOFError, OSError):
                    return False
                worker.last_beat = now
                if msg[0] == "ready":
                    worker.ready = True
                elif msg[0] == "done":
                    _, gen, index, tag = msg
                    if gen == generation and worker.lease == index:
                        worker.lease = None
                        if pending:
                            # Before the bookkeeping, so the worker
                            # computes while on_done writes.
                            assign(worker, pending.pop())
                        settle(index, tag)

        def reap(worker: _Worker, why: str) -> None:
            """A dead (or just killed) worker: forfeit its lease."""
            nonlocal futile_deaths
            del pool[worker.wid]
            _discard(worker, 0.0)
            self.workers_lost += 1
            emit("worker-lost", worker=worker.wid, reason=why)
            index = worker.lease
            if index is None:
                futile_deaths += 1
                return
            futile_deaths = 0
            if outcomes[index] is not None:
                return  # lease expiry settled it before killing the host
            if requeues[index] >= MAX_REQUEUES:
                settle(index, ("crash",
                               f"point lost {requeues[index] + 1} times "
                               f"({why}); giving up", {}))
                return
            requeues[index] += 1
            emit("requeued", index=index, reason=why,
                 attempt=requeues[index])
            pending.append(index)  # next out: it has waited longest

        clean = False
        try:
            now = time.monotonic()
            for worker in list(pool.values()):
                worker.last_beat = now  # nobody listened between runs
                if not worker.proc.is_alive():
                    reap(worker, "worker process died between runs")
            futile_deaths = 0
            while done_count < n:
                if futile_deaths >= futile_limit:
                    for index in range(n):
                        if outcomes[index] is None:
                            settle(index, (
                                "error",
                                f"worker pool unusable: {futile_deaths} "
                                "workers died before leasing any work "
                                "(broken worker environment?)", {}))
                    break
                while len(pool) < min(self.workers, n - done_count):
                    spawn()
                for worker in pool.values():
                    if not pending:
                        break
                    if worker.ready and worker.lease is None:
                        assign(worker, pending.pop())
                woken = wait([w.conn for w in pool.values()]
                             + [w.proc.sentinel for w in pool.values()],
                             timeout=1.0)
                now = time.monotonic()
                for worker in list(pool.values()):
                    dead = worker.proc.sentinel in woken
                    if (dead or worker.conn in woken) \
                            and (not drain(worker, now) or dead):
                        reap(worker, "worker process died")
                for worker in list(pool.values()):
                    if guard is not None and worker.lease is not None \
                            and now - worker.since > guard:
                        # Beyond the in-run deadline's reach: kill the
                        # host and report the point as timed out so the
                        # runner's retry policy applies.
                        settle(worker.lease, (
                            "timeout",
                            f"worker unresponsive after {guard:g}s "
                            "(in-run timeout did not fire)", {}))
                        reap(worker, "lease expired")
                    elif now - worker.last_beat > HEARTBEAT_STALE:
                        reap(worker, "heartbeats went silent")
            clean = True
        finally:
            if not clean:
                _shutdown(pool, 0.0)
        return outcomes  # type: ignore[return-value]
