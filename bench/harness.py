"""Shared plumbing of the benchmark: paths, a scrubbed environment,
sample summaries, spans, host calibration and a child-process runner.

Nothing here imports ``repro``: the run-all workloads measure the CLI
purely from outside, and only the kernel workloads and the traced
direct-call probes load the package (from ``src/`` of this checkout).
"""

from __future__ import annotations

import contextlib
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
                    TypeVar)

T = TypeVar("T")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Behaviour switches of the program that must not leak in from the
#: caller's shell: they select another kernel or another code path than
#: the one a plain user runs.
SCRUBBED = ("REPRO_BACKEND", "REPRO_FAST", "REPRO_NO_SKIP",
            "REPRO_EMPTY_FAULTPLAN")

#: Wall-clock budget of one child process.  The whole benchmark run has
#: 180 s, so a child that needs more than this is hung, not slow.
CHILD_TIMEOUT_S = 150.0


def jobs() -> int:
    """Worker processes the run-all workloads ask the CLI for."""
    return min(2, os.cpu_count() or 1)


def require_program() -> None:
    """Exit non-zero unless the checkout holds the program under test.

    Never fall back to a ``repro`` installed elsewhere: the numbers must
    describe this checkout's sources.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"bench: {SRC}/repro is missing; run from a "
                         f"checkout that holds the program\n")
        raise SystemExit(2)


def enter_program() -> None:
    """Prepare this process to run the program in-process (kernel
    workloads, direct-call probes): the checkout's ``src`` first on the
    path, the behaviour switches dropped."""
    require_program()
    for name in SCRUBBED:
        os.environ.pop(name, None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def budget_loop(seconds: float, quick: bool,
                min_iterations: int = 1) -> Iterator[int]:
    """Yield 0, 1, ... until one more iteration as long as the last
    would overrun ``seconds`` (``--quick``: exactly once)."""
    start = time.perf_counter()
    done = 0
    while True:
        t0 = time.perf_counter()
        yield done
        done += 1
        now = time.perf_counter()
        if quick or (done >= min_iterations
                     and now + (now - t0) > start + seconds):
            return


def child_env(cache_dir: Path) -> Dict[str, str]:
    """Environment for a CLI child: switches scrubbed, the result cache
    redirected (``~/.cache/repro`` is never touched), ``src`` importable
    in the child and in the pool workers it spawns."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = str(SRC)
    return env


@contextlib.contextmanager
def scratch_dir() -> Iterator[Path]:
    """A temp dir inside the checkout (the benchmark may write nowhere
    else), removed on exit even after a failure or Ctrl-C."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# ---------------------------------------------------------------------------
# sample summaries
# ---------------------------------------------------------------------------
def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of a timing's samples."""
    values = sorted(samples)
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"value": med, "q1": q1, "q3": q3, "n": len(values)}


def scaled(summary: Dict[str, float], factor: float) -> Dict[str, float]:
    """A summary in another unit (``factor`` > 0)."""
    return {**summary, "value": summary["value"] * factor,
            "q1": summary["q1"] * factor, "q3": summary["q3"] * factor}


def inverted(summary: Dict[str, float], numerator: float) -> Dict[str, float]:
    """``numerator / x`` of a summary of positive ``x`` (a rate from a
    time); the quartiles swap."""
    return {**summary, "value": numerator / summary["value"],
            "q1": numerator / summary["q3"], "q3": numerator / summary["q1"]}


def exact(value: float) -> Dict[str, float]:
    """A single measured or counted value."""
    return {"value": value, "q1": value, "q3": value, "n": 1}


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------
@dataclass
class Spans:
    """Spans recorded by the benchmark around its calls into the program
    (name, start, end, parent; ``point`` is the id shared by the spans of
    one design point).  Kept in memory, written out with the metrics."""

    records: List[Dict[str, object]] = field(default_factory=list)
    _stack: List[int] = field(default_factory=list)

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, point: Optional[str] = None) -> int:
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.records.append({"id": len(self.records), "name": name,
                             "start": start, "end": end, "parent": parent,
                             "point": point})
        return len(self.records) - 1

    @contextlib.contextmanager
    def span(self, name: str, point: Optional[str] = None) -> Iterator[int]:
        span_id = self.add(name, time.time(), 0.0, point=point)
        self._stack.append(span_id)
        try:
            yield span_id
        finally:
            self._stack.pop()
            self.records[span_id]["end"] = time.time()


# ---------------------------------------------------------------------------
# host state
# ---------------------------------------------------------------------------
#: What :func:`host_calib_ms` reads on the reference host (2-vCPU Xeon
#: 2.1 GHz VM) when nothing else runs on it.
CALIB_REF_MS = 14.0
CALIB_ITERATIONS = 200_000


def _spin(iterations: int) -> None:
    acc = 0
    for i in range(iterations):
        acc += i * i % 7


def host_calib_ms() -> float:
    """A fixed pure-Python loop: moves when the machine, not the
    program, changed speed."""
    t0 = time.perf_counter()
    _spin(CALIB_ITERATIONS)
    return (time.perf_counter() - t0) * 1e3


class _CpuSampler(threading.Thread):
    """Calibration samples from one CPU while a child process runs.

    Pinned to its CPU and timed in thread CPU time, so that queueing
    behind the child's workers does not count - only how fast the CPU
    executes (frequency, hypervisor steal, a busy sibling thread)."""

    PERIOD_S = 0.1
    #: A quarter of the calibration loop, to keep the duty cycle at a
    #: few percent of each CPU.
    DIVISOR = 4

    def __init__(self, cpu: int) -> None:
        super().__init__(daemon=True)
        self.cpu = cpu
        self.samples: List[Tuple[float, float]] = []  # (when, loop ms)
        self.stop = threading.Event()

    def run(self) -> None:
        with contextlib.suppress(OSError):  # no right to pin: float
            os.sched_setaffinity(threading.get_native_id(), {self.cpu})
        while not self.stop.is_set():
            c0 = time.thread_time()
            _spin(CALIB_ITERATIONS // self.DIVISOR)
            ms = (time.thread_time() - c0) * 1e3 * self.DIVISOR
            self.samples.append((time.perf_counter(), ms))
            self.stop.wait(self.PERIOD_S)


class HostClock:
    """Normalises host times to the machine's speed when they were taken.

    The reference host is a shared VM: it slows down by 20-60% for
    seconds to tens of seconds at a time, which no statistic over one
    20 s run can reject - but the same pure-Python loop slows down with
    it.  So every timed call comes with calibration samples and its wall
    time is scaled by ``CALIB_REF_MS`` over their mean: a time reads as
    seconds on the reference host when quiet.  In-process calls are
    bracketed by one sample before and one after (:meth:`measure`);
    child processes run under per-CPU sampler threads
    (:meth:`sampling`, :meth:`child_factor`).  Medians of such times
    repeat within a few percent between runs where raw ones differ by
    10-30%.  A change to the program cannot move the calibration loop,
    so ratios between two commits are preserved; raw walls are kept in
    the record beside the normalised ones.
    """

    #: A sample this fresh still describes "now" (building a network and
    #: collecting garbage between two runs takes less).
    REUSE_S = 0.1
    #: Sample at most this many CPUs of the affinity mask.
    MAX_SAMPLERS = 8

    def __init__(self) -> None:
        self.samples_ms: List[float] = []
        self._taken = float("-inf")
        self._samplers: List[_CpuSampler] = []

    def sample(self) -> float:
        self.samples_ms.append(host_calib_ms())
        self._taken = time.perf_counter()
        return self.samples_ms[-1]

    def measure(self, fn: Callable[[], T]) -> Tuple[T, float]:
        """Run ``fn`` between two samples; returns its result and the
        factor that scales a wall time taken inside it to the reference
        host speed."""
        fresh = time.perf_counter() - self._taken < self.REUSE_S
        before = self.samples_ms[-1] if fresh else self.sample()
        result = fn()
        after = self.sample()
        return result, CALIB_REF_MS / ((before + after) / 2.0)

    @contextlib.contextmanager
    def sampling(self) -> Iterator[None]:
        """Sample every CPU this process may use while children run.
        Never around in-process timing: the samplers share the GIL."""
        cpus = sorted(os.sched_getaffinity(0))[:self.MAX_SAMPLERS]
        self._samplers = [_CpuSampler(cpu) for cpu in cpus]
        for sampler in self._samplers:
            sampler.start()
        try:
            yield
        finally:
            for sampler in self._samplers:
                sampler.stop.set()
            for sampler in self._samplers:
                sampler.join()
                self.samples_ms.extend(ms for _, ms in sampler.samples)
            self._samplers = []

    def child_factor(self, start: float, end: float) -> float:
        """The scaling factor for a child that ran from ``start`` to
        ``end`` (``perf_counter``): the CPUs' mean loop time over that
        interval; its workers may have been on any of them."""
        if not self._samplers:
            raise RuntimeError("child timed outside HostClock.sampling()")
        margin = _CpuSampler.PERIOD_S
        per_cpu = []
        for sampler in self._samplers:
            inside = [ms for when, ms in list(sampler.samples)
                      if start - margin <= when <= end + margin]
            if inside:
                per_cpu.append(statistics.fmean(inside))
        if not per_cpu:
            raise RuntimeError("no calibration sample during the child")
        return CALIB_REF_MS / statistics.fmean(per_cpu)


def loadavg1() -> float:
    return os.getloadavg()[0]


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------
@dataclass
class ChildResult:
    returncode: int
    wall_s: float
    stdout: str
    stderr: str
    peak_rss_mb: float
    timed_out: bool = False
    #: ``wall_s`` at the reference host speed (see :class:`HostClock`).
    norm_s: float = 0.0


def run_child(argv: Sequence[str], env: Dict[str, str],
              cwd: Optional[Path] = None,
              timeout: float = CHILD_TIMEOUT_S) -> ChildResult:
    """Run one child in its own process group and time it from outside.

    On timeout or any interruption of this process (Ctrl-C included) the
    whole group is killed - the CLI's pool workers with it - and reaped
    before returning, so no process outlives the benchmark.  Peak RSS is
    the child's own ``wait4`` figure, which covers the workers it reaped.
    """
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT_DIR) as out, \
            tempfile.TemporaryFile(dir=OUT_DIR) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(list(argv), env=env, cwd=cwd, stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL,
                                start_new_session=True)
        killed = threading.Event()

        def kill_group() -> None:
            killed.set()
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)

        watchdog = threading.Timer(timeout, kill_group)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill_group()
            with contextlib.suppress(ChildProcessError):
                os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildResult(
            returncode=proc.returncode, wall_s=wall,
            stdout=out.read().decode("utf-8", "replace"),
            stderr=err.read().decode("utf-8", "replace"),
            peak_rss_mb=usage.ru_maxrss / 1024.0, timed_out=killed.is_set())


#: Set-up probes: each sample is the mean of a few back-to-back spawns
#: (one 0.2 s interpreter start is too short to calibrate or repeat).
SETUP_SAMPLES = 5
SPAWNS_PER_SAMPLE = 3


def setup_samples(args: Sequence[str], tmp: Path, clock: "HostClock",
                  spans: Spans, quick: bool) -> List[float]:
    """Spawn-to-exit time of ``python <args>``, several times; the clock
    must be sampling."""
    samples = []
    for _ in range(1 if quick else SETUP_SAMPLES):
        total = 0.0
        spawns = 1 if quick else SPAWNS_PER_SAMPLE
        for _ in range(spawns):
            child = python_child(args, tmp / "unused-cache", clock)
            if child.returncode != 0:
                raise RuntimeError(f"set-up probe {list(args)} failed:\n"
                                   f"{child.stderr}")
            end = time.time()
            spans.add("bench.setup_probe", end - child.wall_s, end)
            total += child.norm_s
        samples.append(total / spawns)
    return samples


def python_child(args: Sequence[str], cache_dir: Path,
                 clock: Optional[HostClock] = None) -> ChildResult:
    """``python <args>`` from the checkout root with the child env; with
    a clock (which must be sampling), ``norm_s`` is filled in."""
    def spawn() -> ChildResult:
        return run_child([sys.executable, *args], child_env(cache_dir),
                         cwd=ROOT)
    start = time.perf_counter()
    child = spawn()
    if clock is not None:
        child.norm_s = child.wall_s * clock.child_factor(
            start, time.perf_counter())
    return child
