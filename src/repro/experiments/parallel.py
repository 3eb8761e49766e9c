"""Parallel sweep execution with an on-disk result cache.

Every paper figure is a sweep over *independent* design points (a
``SimConfig`` plus a traffic specification), so the experiments are
embarrassingly parallel by construction.  This module provides the
shared machinery:

* :class:`DesignPoint` (traffic: :class:`repro.traffic.spec.TrafficSpec`)
  - declarative, picklable descriptions of one simulation run.  Unlike
  the closure-based traffic factories they replace, a spec can cross a
  process boundary and be hashed into a stable cache key;
* :func:`execute_point` - the spawn-safe worker: builds the network
  its design names (the bufferless one included), runs it, evaluates
  energy;
* :class:`ResultCache` - the content-addressed store of finished
  points (and of Figure 6's placement curve) under ``~/.cache/repro``
  (override with ``REPRO_CACHE_DIR``), keyed by :meth:`DesignPoint.
  cache_key`;
* :class:`SweepRunner` - fans a batch of design points across a pool
  of spawned worker processes that lives as long as the runner
  (:mod:`repro.experiments.supervisor`), checking the cache first and
  writing misses back.  Every setting is a constructor argument; the
  per-point ones (:data:`INHERITED`) are filled in on submitted points;
* :func:`install` / :func:`get_runner` / :func:`submit` - the
  process-wide runner the experiments submit through.  A command
  installs a fresh one built from its own flags; there is no way to
  adjust the installed one in part.

Determinism: a design point fully determines its result.  Each worker
builds its own ``Network`` and traffic generator from the point's seed,
no state is shared across processes, and results are returned in
submission order - so serial (``jobs=1``) and parallel (``jobs=N``)
execution produce identical ``RunResult``s, and a cache hit
deserializes to a value equal to what a fresh run would compute.
"""

from __future__ import annotations

import json
import os
import random
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple)

from .._lazy import lazy_exports
from ..config import Design, SimConfig, stable_hash
from ..errors import (CreditAccountingError, DeadlockError, LivelockError,
                      RunTimeout, SimulationError, SimulationHang,
                      SweepInterrupted)
from ..noc.backend import resolve_backend, select_kernel
from ..traffic.parsec import PROFILES
from ..traffic.spec import TrafficSpec

if TYPE_CHECKING:  # pragma: no cover
    # Describing, keying and looking up a point must not load the
    # simulator, nor running one the store (DESIGN.md section 2).
    from ..checkpoint import CheckpointSpec
    from ..faults import FaultPlan
    from ..metrics.spec import MetricsSpec
    from ..noc.network import Network
    from ..trace.spec import TraceSpec
    from .journal import SweepOutcome

# The store's names, re-exported from the journal on first access.
_, __getattr__, __dir__ = lazy_exports(globals(), {"journal": (
    "SweepJournal", "SweepOutcome", "completed_outcomes", "decode_outcome",
    "encode_outcome", "load_journal", "seal", "unseal", "write_atomic")})


# ---------------------------------------------------------------------------
# declarative design points
# ---------------------------------------------------------------------------
def uniform_spec(rate: float, seed: int = 1) -> TrafficSpec:
    return TrafficSpec(kind="uniform", rate=rate, seed=seed)


def bitcomp_spec(rate: float, seed: int = 1) -> TrafficSpec:
    return TrafficSpec(kind="bitcomp", rate=rate, seed=seed)


def tornado_spec(rate: float, seed: int = 1) -> TrafficSpec:
    return TrafficSpec(kind="tornado", rate=rate, seed=seed)


def parsec_spec(benchmark: str, seed: int = 1) -> TrafficSpec:
    return TrafficSpec(kind="parsec", benchmark=benchmark, seed=seed)


#: Named network-preparation hooks.  Workers look hooks up by name, so a
#: hook must be registered here (in a module the worker imports) rather
#: than passed as a closure.
PREPARE_HOOKS: Dict[str, Callable[[Network], None]] = {}


def register_prepare(name: str):
    """Decorator registering a spawn-safe network-preparation hook."""

    def deco(fn: Callable[[Network], None]):
        PREPARE_HOOKS[name] = fn
        return fn

    return deco


@register_prepare("force_all_off")
def _force_all_off(net: Network) -> None:
    """Pin every NoRD router off (Figure 7's threshold calibration)."""
    from ..powergate.nord import NoRDController
    for ctrl in net.controllers:
        if isinstance(ctrl, NoRDController):
            ctrl.force_off = True


@dataclass(frozen=True)
class DesignPoint:
    """One independent simulation: config + traffic (+ optional hook).

    ``cfg.design`` selects the datapath: one of the paper's four designs
    on the buffered network, or ``Design.BUFFERLESS`` for the Section
    6.8 deflection network, which takes no fault plan and no metrics
    sampler (it has no power-gate controllers or NIs)."""

    cfg: SimConfig
    traffic: TrafficSpec
    #: Name of a :data:`PREPARE_HOOKS` entry run on the fresh network.
    prepare: Optional[str] = None
    #: Optional fault-injection plan (see :mod:`repro.faults`).
    faults: Optional[FaultPlan] = None
    #: The four fields below are the ones a :class:`SweepRunner` fills
    #: in, from its own setting of the same name, on points that leave
    #: them ``None`` (:data:`INHERITED`); a value given here wins.
    #:
    #: Optional event-trace request (see :mod:`repro.trace`).  A pure
    #: observer: it never enters :meth:`cache_key`, and a traced run's
    #: ``RunResult`` is identical to an untraced one.  Traced points
    #: skip the cache *read* (a hit would produce no artifacts) but
    #: still write their result back.
    trace: Optional[TraceSpec] = None
    #: Optional telemetry request (see :mod:`repro.metrics`).  Exactly
    #: the ``trace`` policy: a pure observer, absent from
    #: :meth:`cache_key`, skips the cache read but writes back.
    metrics: Optional[MetricsSpec] = None
    #: Pinned simulation kernel: ``"ref"``, ``"soa"`` or ``None`` (=
    #: defer to the runner's ``backend`` (``--backend``), then to
    #: ``soa`` - see :func:`repro.noc.network.select_kernel`).  The
    #: selected kernel enters :meth:`cache_key` - the two kernels are
    #: proven result-identical, but keying them separately keeps a
    #: drifting kernel from silently poisoning the shared cache.
    backend: Optional[str] = None
    #: Optional periodic checkpointing (:mod:`repro.checkpoint`).
    #: Excluded from :meth:`cache_key` - a checkpointed run's result is
    #: byte-identical to an uncheckpointed one - and, unlike trace or
    #: metrics, checkpointed points still take the cache *read* path:
    #: a hit simply means there is nothing left to checkpoint.
    checkpoint: Optional[CheckpointSpec] = None

    def __post_init__(self) -> None:
        if self.prepare is not None and self.prepare not in PREPARE_HOOKS:
            raise ValueError(f"unknown prepare hook {self.prepare!r}; "
                             f"known: {sorted(PREPARE_HOOKS)}")
        if self.cfg.design == Design.BUFFERLESS and (
                self.faults is not None or self.metrics is not None):
            raise ValueError("fault injection and metrics sampling are "
                             "not supported on the bufferless network")
        if self.backend is not None:
            resolve_backend(self.backend)  # raises on unknown names

    @property
    def work_estimate(self) -> float:
        """Relative host cost: flits offered over the timed window.
        Only the pool's dispatch order (longest first) reads it."""
        profile = PROFILES.get(self.traffic.benchmark)  # PARSEC only
        rate = self.traffic.rate if profile is None else profile.rate
        return self.cfg.noc.num_nodes * rate * (
            self.cfg.warmup_cycles + self.cfg.measure_cycles)

    def resolved_backend(self) -> str:
        """The kernel this point will actually run on (``ref``/``soa``):
        exactly what ``Network(...)`` dispatches to in
        :func:`execute_point` (the bufferless datapath, which has one
        implementation, keys on it all the same)."""
        return select_kernel(self.backend)

    def cache_key(self) -> str:
        """Content hash identifying this point's result on disk.

        An *empty* fault plan keys identically to no plan at all: the
        two are proven behaviourally identical, so they share a cache
        entry.  ``trace`` is deliberately absent: tracing does not
        change the result, so traced and untraced runs share an entry.
        The ``backend`` field is :meth:`resolved_backend`: no fault
        plan, trace or metrics recorder moves a point to another kernel.
        """
        faults = None
        if self.faults is not None and not self.faults.is_empty:
            faults = self.faults.to_key()
        return stable_hash({
            "code": code_version(),
            "config": self.cfg.to_dict(),
            "traffic": self.traffic.to_key(),
            "prepare": self.prepare,
            "faults": faults,
            "backend": self.resolved_backend(),
        })


def point_basename(point: DesignPoint, spec=None) -> str:
    """Deterministic basename for a point's artifacts: the one the
    observer ``spec`` (the point's ``trace`` / ``metrics``) names, else
    derived from the point's content.

    Stable across processes and ``--jobs`` settings (it hashes the
    point's content, never scheduling state), so parallel and serial
    runs of the same sweep produce identically-named files.
    """
    if spec is not None and spec.basename:
        return spec.basename
    t = point.traffic
    parts = [str(point.cfg.design), t.kind]
    if t.rate:
        parts.append(f"{t.rate:g}")
    if t.benchmark:
        parts.append(t.benchmark)
    parts.append(f"s{t.seed}")
    parts.append(point.cache_key()[:12])
    return "_".join(parts)


def execute_point(point: DesignPoint,
                  timeout: Optional[float] = None) -> SweepOutcome:
    """Run one design point end to end (spawn-safe worker function).

    With ``point.checkpoint`` the run saves a checkpoint every
    ``interval`` cycles and first looks for one an earlier attempt of
    the same point (same cache key, so same code) left behind by
    a crash or timeout, resuming from it instead of cycle 0.  The file
    is removed on success.

    With ``timeout`` (seconds) the run raises :class:`RunTimeout` at the
    first cycle boundary past its wall-clock deadline, after saving the
    checkpoint due there.  Without a checkpoint or a timeout the run
    loop gets no per-cycle hook at all.
    """
    import pickle
    from .. import checkpoint as ck
    from ..noc.network import Network, RunProgress
    from ..power.model import PowerModel
    deadline = None if timeout is None else time.perf_counter() + timeout
    cfg = point.cfg
    spec = point.checkpoint
    ckpt = on_cycle = None
    prior_wall = 0.0
    if spec is not None:
        key = point.cache_key()
        path = ck.checkpoint_path(spec, point_basename(point))
        ckpt = ck.load_checkpoint(path, key=key)
    if ckpt is not None:
        # The snapshot carries the observers and the effects of the
        # prepare hook, so neither is built or applied again.
        net = Network.restore(ckpt.snapshot)
        traffic = pickle.loads(ckpt.traffic_blob)
        progress, prior_wall = ckpt.progress, ckpt.wall_clock_s
    else:
        trace = metrics = None
        if point.trace is not None:
            trace = point.trace.build()
        if point.metrics is not None:
            metrics = point.metrics.build()
        net = Network(cfg, fault_plan=point.faults, trace=trace,
                      metrics=metrics, backend=point.backend)
        progress = RunProgress(cfg.warmup_cycles, cfg.measure_cycles,
                               cfg.drain_cycles)
        if point.prepare is not None:
            PREPARE_HOOKS[point.prepare](net)
        traffic = point.traffic.build(net.mesh)
    t0 = time.perf_counter()
    if spec is not None or deadline is not None:
        last_saved = progress.total_cycles_done

        def on_cycle(n: Network, prog: RunProgress) -> None:
            nonlocal last_saved
            if spec is not None \
                    and prog.total_cycles_done - last_saved >= spec.interval:
                last_saved = prog.total_cycles_done
                ck.save_checkpoint(path, ck.SimCheckpoint(
                    key=key,
                    cycle=n.now,
                    wall_clock_s=prior_wall + (time.perf_counter() - t0),
                    snapshot=n.snapshot(),
                    progress=prog,
                    traffic_blob=pickle.dumps(
                        traffic, protocol=pickle.HIGHEST_PROTOCOL),
                ))
            if deadline is not None and time.perf_counter() > deadline:
                raise RunTimeout(_overran(timeout))

    result = net.run_segment(traffic, progress, on_cycle=on_cycle)
    elapsed = prior_wall + (time.perf_counter() - t0)
    result.wall_clock_s = elapsed
    if elapsed > 0:
        result.simulated_cycles_per_sec = net.now / elapsed
    if spec is not None:
        ck.discard_checkpoint(path)
    report = PowerModel(cfg).evaluate(result)
    if net.trace is not None:
        from ..trace.recorder import export_trace
        export_trace(net.trace, point.trace,
                     point_basename(point, point.trace))
    if net.metrics is not None:
        from ..metrics.sampler import export_metrics
        export_metrics(net.metrics, point.metrics,
                       point_basename(point, point.metrics), net,
                       traffic=point.traffic.to_key())
    return result, report


# ---------------------------------------------------------------------------
# guarded execution (worker-side fault containment)
# ---------------------------------------------------------------------------
#: Tagged worker return values: ``("ok", outcome)`` on success, else
#: ``(kind, message, diagnostics)`` with ``kind`` one of the keys below.
GuardedOutcome = Tuple[Any, ...]

#: Failure kinds worth a retry: hangs may clear under a different
#: schedule only for genuinely racy externals, but the issue-driving
#: cases are worker crashes and wall-clock timeouts on loaded hosts.
RETRYABLE_KINDS = frozenset({"hang", "timeout", "crash"})
#: Retry rounds back off with *full jitter*: round ``n`` sleeps a
#: uniform ``[0, min(RETRY_BACKOFF * 2**(n-1), RETRY_BACKOFF_MAX)]``
#: seconds, so concurrent runners recovering from the same incident do
#: not stampede in lockstep and a high attempt count cannot sleep for
#: hours.
RETRY_BACKOFF = 1.0
RETRY_BACKOFF_MAX = 30.0


def _overran(timeout: float) -> str:
    return f"run exceeded the {timeout:g}s wall-clock timeout"


def _guarded_execute(point: DesignPoint,
                     timeout: Optional[float]) -> GuardedOutcome:
    """Run ``execute_point`` under a wall-clock budget, catching failures.

    Runs in the worker process (or in-process for ``jobs=1``, on any
    thread).  Returns a tagged tuple instead of raising so one bad run
    cannot poison a worker batch.  ``execute_point`` checks the deadline
    between cycles; an attempt that returns but still overran its
    budget outside the cycle loop (building the network, pricing, a slow
    ``gc`` callback) reads ``timeout`` as well.
    """
    start = time.perf_counter()
    try:
        outcome = execute_point(point, timeout=timeout)
        if timeout is not None and time.perf_counter() - start > timeout:
            return ("timeout", _overran(timeout), {})
        return ("ok", outcome)
    except SweepInterrupted:
        # SIGINT/SIGTERM landing mid-run: not a failure of this point -
        # the runner's interrupt path (journal flush, resume hint) owns
        # it, so it must not be contained here.
        raise
    except RunTimeout as exc:
        return ("timeout", str(exc), {})
    except SimulationError as exc:  # typed: its diagnostics ride along
        kind = "hang" if isinstance(exc, SimulationHang) else "error"
        return (kind, str(exc), exc.diagnostics)
    except Exception as exc:  # noqa: BLE001 - contained, reported upstream
        return ("error", f"{type(exc).__name__}: {exc}", {})


@dataclass
class FailedRun:
    """Record of a design point that failed all its attempts."""

    point: DesignPoint
    kind: str  # "hang" | "timeout" | "crash" | "error"
    message: str
    diagnostics: Dict[str, Any] = field(default_factory=dict)
    attempts: int = 1

    def to_exception(self) -> Exception:
        """Rebuild the failure as a raisable typed exception."""
        if self.kind == "timeout":
            return RunTimeout(self.message)
        cls = {"deadlock": DeadlockError, "livelock": LivelockError,
               "credit-accounting": CreditAccountingError}.get(
                   self.diagnostics.get("kind"),
                   SimulationHang if self.kind == "hang" else None)
        if cls is None:
            return RuntimeError(self.message)
        return cls(self.message, self.diagnostics)


# ---------------------------------------------------------------------------
# code-version fingerprint
# ---------------------------------------------------------------------------
_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """SHA-256 over every ``.py`` source file of the ``repro`` package.

    Any code change invalidates all cached results - simulator results
    are only reproducible for the exact code that produced them.  It is
    the stores' one staleness rule: every key a stored record is looked
    up by (a cache entry, Figure 6's curve, a journal ``done`` record, a
    checkpoint) hashes it, and ``repro`` holds no file but ``.py``
    ones, so no record written by other code is ever read back.
    Computed once per process and memoized.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import hashlib
        import repro
        pkg = Path(repro.__file__).parent
        digest = hashlib.sha256()
        for path in sorted(pkg.rglob("*.py")):
            digest.update(str(path.relative_to(pkg)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _CODE_VERSION = digest.hexdigest()
    return _CODE_VERSION


# ---------------------------------------------------------------------------
# on-disk result cache
# ---------------------------------------------------------------------------
def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``.  Resolved per call so tests can redirect it."""
    explicit = os.environ.get("REPRO_CACHE_DIR")
    if explicit:
        return Path(explicit)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


class ResultCache:
    """Content-addressed store of sealed JSON records.

    One JSON file per key: ``key`` and the ``body`` / ``sha256`` pair
    :func:`~repro.experiments.journal.seal` makes of the dict a codec
    makes of the value (by default a design point's ``(RunResult,
    EnergyReport)``, the fields a journal ``done`` record carries too;
    Figure 6's placement curve passes its own codec).  Writes are atomic
    (temp file + rename) so concurrent runners can share a cache.  Every
    key hashes :func:`code_version`, so an entry older code wrote is
    never looked up; an *unreadable* file - truncated JSON, a body that
    does not match its checksum or its codec, a ``key`` that is not the
    one it is filed under, I/O error - is quarantined: renamed to
    ``<key>.corrupt`` (preserved for post-mortem, never re-read) and
    counted in ``self.quarantined``.
    """

    def __init__(self, directory: Optional[Path] = None) -> None:
        self._directory = Path(directory) if directory is not None else None
        #: Corrupt entries renamed aside since this cache was created.
        self.quarantined = 0

    @property
    def directory(self) -> Path:
        return self._directory if self._directory is not None \
            else default_cache_dir()

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str,
            decode: Optional[Callable[[Dict[str, Any]], Any]] = None) -> Any:
        """The value filed under ``key``, or None.  ``decode`` maps the
        verified body's dict back to its value (by default, an outcome
        record's: :func:`~repro.experiments.journal.decode_outcome`)."""
        from .journal import decode_outcome, unseal
        path = self.path_for(key)
        try:
            data = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, ValueError):  # unreadable, undecodable, not JSON
            return self._quarantine(path)
        if not isinstance(data, dict):
            return self._quarantine(path)
        # A record filed under another key's name passes its checksum but
        # answers a different question; a body that is not what was
        # written fails it.
        value = unseal(data, decode or decode_outcome) \
            if data.get("key") == key else None
        return self._quarantine(path) if value is None else value

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside so it reads as a miss forever."""
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:
            pass  # e.g. the file vanished; either way it stays a miss
        self.quarantined += 1
        return None

    def put(self, key: str, value: Any,
            encode: Optional[Callable[[Any], Dict[str, Any]]] = None
            ) -> None:
        """File ``value`` under ``key`` as the dict ``encode`` makes of
        it (by default, an outcome record's:
        :func:`~repro.experiments.journal.encode_outcome`)."""
        from .journal import encode_outcome, seal
        self.put_sealed(key, seal((encode or encode_outcome)(value)))

    def put_sealed(self, key: str, sealed: Dict[str, str]) -> None:
        """File what :func:`~repro.experiments.journal.seal` made."""
        from .journal import write_atomic
        payload = {"key": key, **sealed}
        write_atomic(self.path_for(key), json.dumps(
            payload, sort_keys=True, separators=(",", ":")).encode("utf-8"))

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed."""
        removed = 0
        directory = self.directory
        if directory.is_dir():
            for path in directory.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed


# ---------------------------------------------------------------------------
# the sweep runner
# ---------------------------------------------------------------------------
@dataclass
class SweepStats:
    """Cumulative cache/bookkeeping counters of one runner."""

    hits: int = 0
    misses: int = 0
    executed: int = 0
    #: Points satisfied from a ``--resume`` journal instead of running.
    resumed: int = 0
    #: Extra execution attempts beyond the first, across all points.
    retried: int = 0
    #: Points that exhausted every attempt (partial mode only accrues
    #: these; strict mode raises on the first one instead).
    failures: int = 0
    #: Wall-clock seconds spent actually simulating (executed points
    #: only; cache hits contribute nothing).
    sim_seconds: float = 0.0
    #: Simulated cycles behind :attr:`sim_seconds` (warmup + measure +
    #: drain), so ``sim_cycles / sim_seconds`` is the sweep's aggregate
    #: simulation rate.
    sim_cycles: int = 0
    #: Executed points per kernel that ran them (``RunResult.kernel``).
    kernels: Counter = field(default_factory=Counter)
    #: Pool health: worker processes started, workers lost (killed,
    #: crashed, frozen) and points handed out again after such a loss.
    workers_spawned: int = 0
    workers_lost: int = 0
    requeued: int = 0

    def snapshot(self) -> Tuple[int, int]:
        return (self.hits, self.misses)

    @property
    def sim_rate(self) -> float:
        """Aggregate simulated-cycles/sec over everything executed."""
        if self.sim_seconds <= 0:
            return 0.0
        return self.sim_cycles / self.sim_seconds


#: The ``DesignPoint`` fields a runner fills in, from its own attribute
#: of the same name, on points that leave them ``None``.
INHERITED = ("trace", "metrics", "checkpoint", "backend")


class SweepRunner:
    """Executes batches of :class:`DesignPoint` with caching + workers.

    ``jobs=1`` (the default) runs in-process and needs no picklability
    beyond what the cache already requires; ``jobs=N`` fans cache
    misses across ``N`` spawned worker processes.  Results always come
    back in submission order.

    Settings are constructor arguments: a command builds one runner
    from its flags and :func:`install` s it, so nothing survives from
    the command before.  Those named in :data:`INHERITED` are per-point
    fields that :meth:`run` fills in on submitted points (how ``--trace``
    / ``--backend`` reach the experiments, and the workers: they ride
    inside the pickled point).

    The worker pool belongs to the runner, not to one :meth:`run`: it is
    spawned by the first round that has two or more points to execute
    (a fully cached sweep never spawns one), serves every later
    :meth:`run`, and is released by :meth:`close` - or ``with
    SweepRunner(...) as runner:``, or when the runner is dropped.

    Resilience knobs:

    * ``timeout`` - per-run wall-clock budget in seconds (``None`` =
      unlimited).  ``execute_point`` checks the deadline between
      cycles, on any thread; a pool adds an outer ``2 * timeout + 30``
      lease guard on the parent side in case a worker is wedged inside
      a cycle or below the Python level;
    * ``retries`` - how many extra attempts a *retryable* failure
      (hang, timeout, worker crash) gets, each retry round after a
      jittered backoff (:data:`RETRY_BACKOFF`);
    * ``partial`` - when ``True``, points that exhaust their attempts
      yield ``None`` in the result list and a :class:`FailedRun` in
      ``self.failures`` instead of aborting the whole sweep.

    Crash safety (see :mod:`repro.checkpoint`,
    :mod:`repro.experiments.journal`,
    :mod:`repro.experiments.supervisor`):

    * ``checkpoint`` - long points persist periodic mid-run checkpoints
      and a killed/timed-out attempt resumes instead of restarting;
    * ``journal_path`` - write-ahead journal of every
      queued/leased/done/failed transition, fsynced per record.  While a
      journal is active, the first SIGINT/SIGTERM stops the sweep
      gracefully - the journal and all partial results are already on
      disk - and raises :class:`SweepInterrupted` for the CLI to print
      the resume command (a second signal hard-exits);
    * ``resume`` - satisfy points recorded ``done`` in the journal
      without re-running them (they also backfill the result cache).

    Failed runs are never written to the cache or journaled as done.
    """

    def __init__(self, jobs: int = 1, use_cache: bool = True,
                 cache: Optional[ResultCache] = None,
                 timeout: Optional[float] = None, retries: int = 0,
                 partial: bool = False,
                 trace: Optional[TraceSpec] = None,
                 metrics: Optional[MetricsSpec] = None,
                 checkpoint: Optional[CheckpointSpec] = None,
                 backend: Optional[str] = None,
                 journal_path: Optional[Path] = None,
                 resume: bool = False) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if backend is not None:
            resolve_backend(backend)  # raises on unknown names
        self.jobs = jobs
        self.use_cache = use_cache
        self.cache = cache if cache is not None else ResultCache()
        self.timeout = timeout
        self.retries = retries
        self.partial = partial
        self.trace = trace
        self.metrics = metrics
        self.checkpoint = checkpoint
        self.backend = backend
        self.journal_path = Path(journal_path) \
            if journal_path is not None else None
        self.resume = resume
        self.stats = SweepStats()
        #: ``FailedRun`` records accumulated in partial mode.
        self.failures: List[FailedRun] = []
        #: The worker pool, once a round needed one (tests and the chaos
        #: harness inspect its lease/requeue event log).
        self.supervisor = None
        #: Results the experiments share in-process (the PARSEC sweep
        #: behind Figures 8-12).  Kept here so that it lives exactly as
        #: long as the settings it was computed under.
        self.memo: Dict[Any, Any] = {}
        self._journal = None

    def close(self) -> None:
        """Release the worker pool.  Idempotent; the runner stays usable
        (a later pooled round spawns a fresh pool)."""
        if self.supervisor is not None:
            self.supervisor.close()
            self.supervisor = None

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(self,
            points: Sequence[DesignPoint]) -> List[Optional[SweepOutcome]]:
        from .journal import (SweepJournal, completed_outcomes,
                              encode_outcome, load_journal, seal)
        points = [self._inherit(p) for p in points]
        outcomes: List[Optional[SweepOutcome]] = [None] * len(points)
        journaling = self.journal_path is not None
        # Journal records and resume matching go by content key, so keys
        # are needed whenever a journal is active, cache or not.
        keys: List[Optional[str]] = [
            point.cache_key() if (self.use_cache or journaling) else None
            for point in points]
        resumed: Dict[str, SweepOutcome] = {}
        if self.resume and journaling and self.journal_path.exists():
            # Verify and decode only what this sweep asks for: a journal
            # holds every sweep of the command, and each one reloads it.
            wanted = set(keys)
            resumed = completed_outcomes(
                [record for record in load_journal(self.journal_path)
                 if record.get("key") in wanted])
        miss_indices: List[int] = []
        for i, point in enumerate(points):
            # A traced/instrumented point must actually execute (a
            # journal/cache hit would produce no artifacts), but its
            # result is still recorded under the observer-free key.
            observer_free = point.trace is None and point.metrics is None
            if observer_free and keys[i] in resumed:
                outcomes[i] = resumed[keys[i]]
                self.stats.resumed += 1
                if self.use_cache:  # backfill: journal -> cache
                    self.cache.put(keys[i], outcomes[i])
                continue
            if self.use_cache and observer_free:
                cached = self.cache.get(keys[i])
                if cached is not None:
                    outcomes[i] = cached
                    self.stats.hits += 1
                    continue
            self.stats.misses += 1
            miss_indices.append(i)
        self.stats.executed += len(miss_indices)

        old_handlers = self._install_signal_handlers() if journaling \
            else {}
        if journaling:
            self._journal = SweepJournal(self.journal_path)
            self._journal.append({"ev": "sweep", "total": len(points),
                                  "executing": len(miss_indices),
                                  "resume": self.resume})
            for i in miss_indices:
                self._journal.append({"ev": "queued", "key": keys[i],
                                      "point": point_basename(points[i])})

        def point_complete(i: int, tag: GuardedOutcome) -> None:
            """Fires as each point finishes - before any later crash."""
            if tag[0] != "ok":
                return
            # Recorded immediately (not at end-of-round) so an interrupt
            # mid-round still counts and returns it.
            outcomes[i] = tag[1]
            if not self.use_cache and self._journal is None:
                return
            sealed = seal(encode_outcome(tag[1]))  # one encoding, both stores
            if self.use_cache:
                self.cache.put_sealed(keys[i], sealed)
            if self._journal is not None:
                self._journal.append({"ev": "done", "key": keys[i],
                                      **sealed})

        try:
            # Execute misses in rounds: round 0 is the first attempt,
            # each further round retries the still-retryable failures.
            pending = list(miss_indices)
            last_failure: Dict[int, GuardedOutcome] = {}
            for attempt in range(self.retries + 1):
                if not pending:
                    break
                if attempt > 0:
                    # Full jitter, capped: sleeping the deterministic
                    # maximum synchronizes every recovering runner onto
                    # the same retry instant.
                    delay = min(RETRY_BACKOFF * (2 ** (attempt - 1)),
                                RETRY_BACKOFF_MAX)
                    if delay > 0:
                        time.sleep(random.uniform(0.0, delay))
                    self.stats.retried += len(pending)
                tagged = self._execute([points[i] for i in pending],
                                       [keys[i] for i in pending],
                                       pending, point_complete)
                still_failing: List[int] = []
                for i, tag in zip(pending, tagged):
                    if tag[0] == "ok":
                        outcomes[i] = tag[1]
                        run_result = tag[1][0]
                        self.stats.kernels[run_result.kernel] += 1
                        if run_result.wall_clock_s > 0:
                            self.stats.sim_seconds += run_result.wall_clock_s
                            self.stats.sim_cycles += int(
                                run_result.simulated_cycles_per_sec
                                * run_result.wall_clock_s + 0.5)
                        last_failure.pop(i, None)
                        continue
                    last_failure[i] = tag
                    if tag[0] in RETRYABLE_KINDS:
                        still_failing.append(i)
                    # Non-retryable errors are final: no more rounds.
                pending = still_failing
        except SweepInterrupted as exc:
            completed = sum(1 for o in outcomes if o is not None)
            exc.diagnostics.setdefault("journal", str(self.journal_path))
            exc.diagnostics["completed"] = completed
            exc.diagnostics["total"] = len(points)
            self._journal_append({"ev": "interrupted",
                                  "completed": completed,
                                  "total": len(points)})
            raise
        finally:
            self._restore_signal_handlers(old_handlers)
            if self._journal is not None:
                self._journal.close()
                self._journal = None

        for i, tag in sorted(last_failure.items()):
            kind, message = tag[0], tag[1]
            diagnostics = tag[2] if len(tag) > 2 else {}
            attempts = 1 + (self.retries if kind in RETRYABLE_KINDS else 0)
            failed = FailedRun(point=points[i], kind=kind, message=message,
                               diagnostics=diagnostics, attempts=attempts)
            if journaling:
                with SweepJournal(self.journal_path) as journal:
                    journal.append({"ev": "failed", "key": keys[i],
                                    "kind": kind, "message": message})
            if not self.partial:
                raise failed.to_exception()
            self.failures.append(failed)
            self.stats.failures += 1
        return outcomes

    def _inherit(self, point: DesignPoint) -> DesignPoint:
        """``point`` with the :data:`INHERITED` settings it leaves
        ``None`` filled in from this runner's - but no metrics on a
        bufferless point, which has nothing the sampler reads."""
        fill = {name: getattr(self, name) for name in INHERITED
                if getattr(point, name) is None
                and getattr(self, name) is not None}
        if "metrics" in fill and point.cfg.design == Design.BUFFERLESS:
            del fill["metrics"]
            print(f"[metrics] {point_basename(point)} not sampled: the "
                  f"bufferless network has no power-gate controllers or "
                  f"NIs")
        return replace(point, **fill) if fill else point

    # -- journal / signal plumbing ------------------------------------------
    def _journal_append(self, record: Dict[str, Any]) -> None:
        if self._journal is not None:
            self._journal.append(record)

    def _install_signal_handlers(self) -> Dict[int, Any]:
        """Arrange for the first SIGINT/SIGTERM to stop the sweep
        gracefully (raise :class:`SweepInterrupted` at the next safe
        bytecode boundary) and a second one to hard-exit.  Only possible
        from the main thread; elsewhere the default handling stands."""
        import signal
        import threading
        if threading.current_thread() is not threading.main_thread():
            return {}
        fired = {"flag": False}

        def _on_signal(signum, frame):
            if fired["flag"]:
                os._exit(130)
            fired["flag"] = True
            raise SweepInterrupted(
                f"sweep interrupted by signal {signum}; partial results "
                f"and journal are on disk", {"signal": signum})

        old: Dict[int, Any] = {}
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                old[signum] = signal.signal(signum, _on_signal)
            except (OSError, ValueError):
                pass
        return old

    @staticmethod
    def _restore_signal_handlers(old: Dict[int, Any]) -> None:
        import signal
        for signum, handler in old.items():
            try:
                signal.signal(signum, handler)
            except (OSError, ValueError):
                pass

    def run_one(self, point: DesignPoint) -> SweepOutcome:
        outcome = self.run([point])[0]
        if outcome is None:  # only reachable in partial mode
            raise self.failures[-1].to_exception()
        return outcome

    # -- execution backends -------------------------------------------------
    def _execute(self, points: List[DesignPoint],
                 keys: List[Optional[str]], indices: List[int],
                 on_complete: Callable[[int, GuardedOutcome], None]
                 ) -> List[GuardedOutcome]:
        if not points:
            return []
        if min(self.jobs, len(points)) <= 1:
            tags = []
            for point, key, i in zip(points, keys, indices):
                self._journal_append({"ev": "leased", "key": key,
                                      "pid": os.getpid(), "worker": -1})
                tag = _guarded_execute(point, self.timeout)
                on_complete(i, tag)
                tags.append(tag)
            return tags
        return self._execute_pool(points, keys, indices, on_complete)

    def _execute_pool(self, points: List[DesignPoint],
                      keys: List[Optional[str]], indices: List[int],
                      on_complete: Callable[[int, GuardedOutcome], None]
                      ) -> List[GuardedOutcome]:
        # Spawn (not fork): workers import repro from scratch, so the
        # parent's in-process caches and module state cannot leak in and
        # results match a fresh serial run bit for bit.  The supervisor
        # (one lease per point, heartbeats) confines any worker death to
        # the point it was running; see repro.experiments.supervisor.
        from .supervisor import PoolSupervisor

        def on_event(record: Dict[str, Any]) -> None:
            ev = record["ev"]
            if ev == "leased":
                self._journal_append({"ev": "leased",
                                      "key": keys[record["index"]],
                                      "pid": record["pid"],
                                      "worker": record["worker"]})
            elif ev == "requeued":
                self.stats.requeued += 1
                self._journal_append({"ev": "requeued",
                                      "key": keys[record["index"]],
                                      "reason": record["reason"]})
            elif ev == "spawned":
                self.stats.workers_spawned += 1
            elif ev == "worker-lost":
                self.stats.workers_lost += 1

        if self.supervisor is not None \
                and self.supervisor.workers != self.jobs:
            self.close()  # runner.jobs changed since the last round
        if self.supervisor is None:
            self.supervisor = PoolSupervisor(self.jobs)
        self.supervisor.timeout = self.timeout
        return self.supervisor.run(
            points, on_event=on_event,
            on_done=lambda local, tag: on_complete(indices[local], tag))


# ---------------------------------------------------------------------------
# process-wide default runner (installed by the CLI, one per command)
# ---------------------------------------------------------------------------
_default_runner: Optional[SweepRunner] = None


def get_runner() -> SweepRunner:
    """The process-wide runner the figure experiments submit through
    (one with default settings until a command installs its own)."""
    return _default_runner or install(SweepRunner())


def install(runner: SweepRunner) -> SweepRunner:
    """Make ``runner`` the process-wide runner and release the worker
    pool of the one it replaces.  How a command's settings take effect:
    whole, so none of the previous command's survive."""
    global _default_runner
    if _default_runner is not None:
        _default_runner.close()
    _default_runner = runner
    return runner


def submit(points: Sequence[DesignPoint]) -> List[SweepOutcome]:
    """Run a batch of design points through the default runner."""
    return get_runner().run(points)
