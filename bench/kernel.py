"""The two kernel workloads: in-process ``Network.run``, no harness.

``kernel_lowload`` is the paper's headline regime (Figs. 3, 8-13):
PARSEC ``blackscholes`` on the 4x4 mesh plus uniform 0.02 on the 8x8
mesh - routers mostly idle or gated, so the active-set skip, the
power-gate phase and the NI bypass path do most of the work.
``kernel_busy`` is uniform 0.10 on the 8x8 mesh, the one operating point
where the paper quotes 64-node latencies - routers awake and occupied,
which is where ``fig14``/``fig15`` spend their time.

The untraced pass times the default kernel (``Network(cfg)``) only; the
traced pass interleaves it with the fast kernel, profiles the phases and
times the observers.  Every host time is normalised to the machine's
speed at the moment it was taken (``harness.HostClock``).  Run as a script, this file is the set-up probe:
it builds one round's networks and traffic and exits, and the parent
times it from spawn to exit.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import harness
from checks import Tally, conservation_problems, result_mismatches
from harness import HostClock, Spans, exact, inverted, scaled, summarize

WORKLOADS = ("kernel_lowload", "kernel_busy")

#: Paper's 64-node latencies at uniform 0.10 (Section 6.7), by design.
PAPER_LATENCY_CYCLES = {"No_PG": 36.0, "Conv_PG_OPT": 52.0, "NoRD": 44.0}

#: ``--quick`` windows: enough cycles to gate, wake and drain, nothing
#: that is worth comparing.
QUICK_WINDOWS = {"warmup_cycles": 50, "measure_cycles": 200,
                 "drain_cycles": 600}

FAST = {"backend": "soa", "fast": True}
MIN_ROUNDS = 2


@dataclass(frozen=True)
class Point:
    """One design point of a workload."""

    design: str
    scale: str
    side: int
    traffic: object  # repro.experiments.parallel.TrafficSpec

    @property
    def label(self) -> str:
        t = self.traffic
        what = t.benchmark or f"{t.kind}{t.rate:g}"
        return f"{self.design}/{what}/{self.side}x{self.side}"


#: blackscholes alternates global active and quiet phases of some 300
#: and 500 cycles, so a 4,500-cycle window holds five or six of them and
#: its packet count swings 4x with the traffic seed (1,790 to 7,126 over
#: seeds 11-20) - host time would measure the seed, not the program.
#: The PARSEC stream is therefore the same for every ``--seed``; the
#: uniform points, whose volume barely depends on it, follow the seed.
PARSEC_TRAFFIC_SEED = 1


def point_set(workload: str, seed: int) -> List[Point]:
    from repro.config import Design
    from repro.experiments import parallel
    if workload == "kernel_lowload":
        parsec = parallel.parsec_spec("blackscholes",
                                      seed=PARSEC_TRAFFIC_SEED)
        uniform = parallel.uniform_spec(0.02, seed=seed)
        return ([Point(d, "bench", 4, parsec) for d in Design.ALL]
                + [Point(d, "smoke", 8, uniform)
                   for d in (Design.CONV_PG_OPT, Design.NORD)])
    if workload == "kernel_busy":
        uniform = parallel.uniform_spec(0.10, seed=seed)
        return [Point(d, "smoke", 8, uniform)
                for d in (Design.NO_PG, Design.CONV_PG_OPT, Design.NORD)]
    raise ValueError(f"unknown kernel workload {workload!r}")


def build(point: Point, seed: int, quick: bool, spans: Optional[Spans] = None,
          **kernel):
    """Config, network and traffic source of one run; returns the
    network, the traffic and the constructor's wall time."""
    from repro.experiments.common import build_config
    from repro.noc.network import Network
    cfg = build_config(point.design, point.scale, width=point.side,
                       height=point.side, seed=seed,
                       **(QUICK_WINDOWS if quick else {}))
    t0 = time.time()
    net = Network(cfg, **kernel)
    t1 = time.time()
    traffic = point.traffic.build(net.mesh)
    if spans is not None:
        spans.add("noc.network_ctor", t0, t1, point=point.label)
        spans.add("traffic.build", t1, time.time(), point=point.label)
    return net, traffic, t1 - t0


@dataclass
class Run:
    """One timed ``net.run``."""

    result: object
    wall_s: float
    #: ``wall_s`` at the reference host speed (``harness.HostClock``);
    #: every host time reported from these runs is this one.
    norm_s: float
    cycles: int
    outstanding: int
    ctor_s: float


def timed_run(point: Point, seed: int, quick: bool, clock: HostClock,
              spans: Optional[Spans] = None, **kernel) -> Run:
    net, traffic, ctor_s = build(point, seed, quick, spans, **kernel)
    gc.collect()

    def simulate():
        t0 = time.perf_counter()
        result = net.run(traffic)
        return result, time.perf_counter() - t0, time.time()

    (result, wall, end), factor = clock.measure(simulate)
    if spans is not None:
        spans.add("noc.run", end - wall, end, point=point.label)
    return Run(result, wall, wall * factor, net.now, net.outstanding_flits,
               ctor_s)


def warm_up(points: List[Point], seed: int, quick: bool, **kernel) -> None:
    """Touch every point's code paths briefly so lazy imports and
    allocator growth are not charged to the first timed round."""
    for point in points:
        net, traffic, _ = build(point, seed, quick, **kernel)
        net.run(traffic, warmup=0, measure=100, drain=0)


class Rounds:
    """Timed rounds over a point set with the per-run checks applied."""

    def __init__(self, points: List[Point], seed: int, quick: bool,
                 tally: Tally, spans: Spans) -> None:
        self.points, self.seed, self.quick = points, seed, quick
        self.tally, self.spans = tally, spans
        #: First result per point (a default-kernel one: it runs first in
        #: every interleave), which every later run on either kernel
        #: must reproduce field for field.
        self.reference: Dict[str, Run] = {}
        self.clock = HostClock()

    def run_one(self, point: Point, samples: Dict[str, List[Run]],
                **kernel) -> Optional[Run]:
        try:
            run = timed_run(point, self.seed, self.quick, self.clock,
                            self.spans, **kernel)
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            self.tally.record(1, [f"{point.label}: {type(exc).__name__}: "
                                  f"{exc}"])
            return None
        ref = self.reference.setdefault(point.label, run)
        problems = conservation_problems(point.label, run.result,
                                         run.outstanding)
        if run is not ref:
            problems += result_mismatches(point.label, ref.result, run.result)
            if run.cycles != ref.cycles:
                problems.append(f"{point.label}: ran {run.cycles} cycles, "
                                f"first run {ref.cycles}")
        self.tally.record(1, problems)
        samples.setdefault(point.label, []).append(run)
        return run

    def round(self, kernels: Dict[str, dict],
              samples: Dict[str, Dict[str, List[Run]]]) -> None:
        """Every point once per kernel, kernels interleaved per point."""
        with self.spans.span("bench.round"):
            for point in self.points:
                for name, kernel in kernels.items():
                    self.run_one(point, samples.setdefault(name, {}),
                                 **kernel)


def round_walls(samples: Dict[str, List[Run]]) -> List[float]:
    """Host time of each complete round (sum over its points)."""
    n = min(len(runs) for runs in samples.values())
    return [sum(runs[r].norm_s for runs in samples.values())
            for r in range(n)]


# ---------------------------------------------------------------------------
# the two passes
# ---------------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, traced: bool,
        quick: bool) -> Dict[str, object]:
    harness.enter_program()
    tally, spans = Tally(), Spans()
    with spans.span("bench.workload"):
        points = point_set(workload, seed)
        rounds = Rounds(points, seed, quick, tally, spans)
        body = _traced if traced else _untraced
        metrics, counts, samples = body(workload, rounds, seconds)
    return {"metrics": metrics, "deterministic": counts, "tally": tally,
            "spans": spans.records, "calib_ms": rounds.clock.samples_ms,
            # Every net.run, per kernel and point: [raw wall, normalised].
            "samples": {kernel: {label: [[r.wall_s, r.norm_s] for r in runs]
                                 for label, runs in by_point.items()}
                        for kernel, by_point in samples.items()}}


def _untraced(workload: str, rounds: Rounds, seconds: float):
    # This file, run as a script, is the set-up probe (see the bottom).
    probe = [__file__, workload, str(rounds.seed)] + ["--quick"] * rounds.quick
    with harness.scratch_dir() as tmp, rounds.clock.sampling():
        setup = harness.setup_samples(probe, tmp, rounds.clock, rounds.spans,
                                      rounds.quick)
    samples: Dict[str, Dict[str, List[Run]]] = {}
    warm_up(rounds.points, rounds.seed, rounds.quick)
    for _ in harness.budget_loop(seconds, rounds.quick, MIN_ROUNDS):
        rounds.round({"default": {}}, samples)
    runs = samples.get("default", {})
    if len(runs) < len(rounds.points):
        return {}, {}, samples  # a point never ran; the tally says why
    walls = summarize(round_walls(runs))
    ref = [rounds.reference[p.label] for p in rounds.points]
    cycles = sum(r.cycles for r in ref)
    metrics = {
        "setup_s": summarize(setup),
        "wall_s": walls,
        "sim_cycles_per_s": inverted(walls, cycles),
        "points_per_s": inverted(walls, len(rounds.points)),
        "peak_rss_mb": exact(harness.self_peak_rss_mb()),
    }
    return metrics, _counts(rounds), samples


def _counts(rounds: Rounds) -> Dict[str, float]:
    """Simulated figures: they repeat exactly for one seed, and a change
    that only speeds the simulator up must leave them alone."""
    ref = [rounds.reference[p.label] for p in rounds.points
           if p.label in rounds.reference]
    res = [r.result for r in ref]
    packets = sum(r.packets_measured for r in res) or 1
    router_cycles = sum(a.total_cycles for r in res for a in r.routers) or 1
    measured_kcycles = sum(r.cycles for r in res) / 1e3
    counts = {
        "noc.sim_cycles": sum(r.cycles for r in ref),
        "noc.flit_hops": sum(r.link_flits for r in res),
        "noc.packets_measured": sum(r.packets_measured for r in res),
        "noc.avg_packet_latency_cycles":
            sum(r.total_latency for r in res) / packets,
        "noc.avg_hops": sum(r.total_hops for r in res) / packets,
        "routing.misroutes_per_packet":
            sum(r.total_misroutes for r in res) / packets,
        "routing.bypass_hops_per_packet":
            sum(r.total_bypass_hops for r in res) / packets,
        "powergate.off_frac":
            sum(a.cycles_off for r in res for a in r.routers) / router_cycles,
        "powergate.wakeups_per_kcycle":
            sum(r.total_wakeups for r in res) / measured_kcycles,
        "powergate.wakeup_stall_cycles_per_packet":
            sum(r.total_wakeup_stalls for r in res) / packets,
    }
    paper = [abs(r.avg_packet_latency - PAPER_LATENCY_CYCLES[p.design])
             / PAPER_LATENCY_CYCLES[p.design]
             for p, r in zip(rounds.points, res)
             if p.traffic.rate == 0.10 and p.design in PAPER_LATENCY_CYCLES]
    if paper and not rounds.quick:
        counts["noc.paper_lat_err_pct"] = 100.0 * statistics.mean(paper)
    return counts


def _traced(workload: str, rounds: Rounds, seconds: float):
    from repro.noc import activity
    import layers
    points, seed, quick, spans = (rounds.points, rounds.seed, rounds.quick,
                                  rounds.spans)
    samples: Dict[str, Dict[str, List[Run]]] = {}
    warm_up(points, seed, quick)
    warm_up(points, seed, quick, **FAST)
    # Interleaved default/fast rounds for most of the budget; the
    # profiled round and the observers below take the rest.
    for _ in harness.budget_loop(seconds * 0.6, quick):
        rounds.round({"default": {}, "fast": FAST}, samples)
    default, fast = samples.get("default", {}), samples.get("fast", {})
    if len(default) < len(points) or len(fast) < len(points):
        return {}, {}, samples
    metrics: Dict[str, Dict[str, float]] = {}
    default_wall = statistics.median(round_walls(default))
    fast_wall = statistics.median(round_walls(fast))
    cycles = sum(rounds.reference[p.label].cycles for p in points)
    metrics["noc.soa.sim_cycles_per_s_fast"] = exact(cycles / fast_wall)
    metrics["noc.soa.fast_speedup"] = exact(default_wall / fast_wall)
    metrics["noc.host_us_per_flit_hop"] = exact(
        default_wall * 1e6 / sum(rounds.reference[p.label].result.link_flits
                                 for p in points))
    for runs, prefix in ((default, "noc.step_us."),
                         (fast, "noc.soa.step_us_fast.")):
        by_design: Dict[str, Tuple[float, int]] = {}
        for point in points:
            wall = statistics.median(r.norm_s for r in runs[point.label])
            w, c = by_design.get(point.design, (0.0, 0))
            by_design[point.design] = (
                w + wall, c + rounds.reference[point.label].cycles)
        for design, (wall, cyc) in by_design.items():
            metrics[prefix + design] = exact(wall / cyc * 1e6)
    metrics["noc.network_ctor_ms"] = scaled(summarize(
        [r.ctor_s for runs in default.values() for r in runs]), 1e3)
    metrics["noc.soa.network_ctor_ms_fast"] = scaled(summarize(
        [r.ctor_s for runs in fast.values() for r in runs]), 1e3)

    # One profiled round on the default kernel: per-phase host time and
    # active-set occupancy, as `--profile` reports them.
    activity.enable_profiling(True)
    activity.reset_profile()
    try:
        profiled: Dict[str, Dict[str, List[Run]]] = {}
        first_span = len(spans.records)
        rounds.round({"default": {}}, profiled)
    finally:
        activity.enable_profiling(False)
    profile = activity.global_profile()
    prof_runs = profiled.get("default", {})
    if profile.cycles and len(prof_runs) == len(points):
        run_wall = sum(r[0].wall_s for r in prof_runs.values())
        run_norm = sum(r[0].norm_s for r in prof_runs.values())
        in_phases = sum(secs for _, secs, _ in profile.rows())
        for phase, secs, occupancy in profile.rows():
            metrics[f"noc.phase.{phase}.us_per_cycle"] = exact(
                secs * (run_norm / run_wall) / profile.cycles * 1e6)
            metrics[f"noc.phase.{phase}.share"] = exact(secs / in_phases)
            if phase != "stats":  # stats shares the router active set
                metrics[f"noc.occupancy.{phase}"] = exact(occupancy)
        metrics["noc.run.outside_phase_frac"] = exact(
            1.0 - in_phases / run_wall)
        metrics["noc.profile_overhead_frac"] = exact(
            run_norm / default_wall - 1.0)
        # Phase totals as children of each profiled run's span, scaled
        # by that run's share of the profiled cycles, so the span file
        # gives noc.run's self time (the outside-phase remainder).
        for rec in spans.records[first_span:]:
            if rec["name"] != "noc.run":
                continue
            share = (rounds.reference[rec["point"]].cycles / profile.cycles)
            cursor = rec["start"]
            for phase, secs, _ in profile.rows():
                spans.add(f"noc.phase.{phase}", cursor,
                          cursor + secs * share, parent=rec["id"],
                          point=rec["point"])
                cursor += secs * share

    metrics.update(layers.observer_overheads(points, seed, quick, default,
                                             rounds.clock, rounds.tally))
    metrics.update(layers.core_probes(quick))
    metrics.update(layers.traffic_probes(seed, quick))
    metrics.update(layers.host_probes(rounds.clock, spans))
    counts = _counts(rounds)
    metrics.update({name: exact(value) for name, value in counts.items()})
    return metrics, counts, samples


if __name__ == "__main__":
    harness.enter_program()
    for _point in point_set(sys.argv[1], int(sys.argv[2])):
        build(_point, int(sys.argv[2]), "--quick" in sys.argv[3:])
