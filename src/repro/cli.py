"""Command-line interface: ``nord`` / ``python -m repro``.

Subcommands:

* ``nord run-all [--scale bench] [--seed 1] [--jobs N] [--no-cache]`` -
  regenerate every paper table/figure;
* ``nord <experiment>`` - one experiment (``fig8``, ``fig14``, ``area``,
  ...; see ``nord list``);
* ``nord simulate --design NoRD --traffic uniform --rate 0.1`` - a single
  simulation run with a summary printout;
* ``nord list`` - list available experiments.

``--jobs N`` fans independent design points across N worker processes;
the on-disk result cache under ``~/.cache/repro`` (override with
``REPRO_CACHE_DIR``) makes repeated runs near-instant unless
``--no-cache`` is given.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .checkpoint import CheckpointSpec
from .config import Design, NoCConfig, SimConfig
from .core.ring import build_ring
from .experiments import parallel
from .experiments.common import SCALES
from .experiments.runner import EXPERIMENTS, run_all, run_experiment
from .faults import FaultPlan, FaultState, LinkFault, RouterFailure
from .metrics.spec import DEFAULT_INTERVAL, MetricsSpec
from .noc import activity
from .noc.backend import BACKENDS
from .noc.topology import Mesh
from .stats.report import format_table
from .trace.spec import DEFAULT_LIMIT, TraceSpec
from .traffic.parsec import BENCHMARKS


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", choices=sorted(SCALES), default="bench",
                        help="simulation length preset")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                        help="worker processes for design-point sweeps "
                             "(1 = serial, the default)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not update the on-disk result "
                             "cache (see REPRO_CACHE_DIR)")
    parser.add_argument("--backend", choices=BACKENDS,
                        default=None,
                        help="pin the simulation kernel: the object-"
                             "graph reference ('ref') or the struct-of-"
                             "arrays kernel ('soa'); default: "
                             "REPRO_BACKEND, then 'soa' unless the run "
                             "injects faults or forces dense scans "
                             "('ref'); traced runs stay on 'soa'")
    parser.add_argument("--timeout", type=float, default=None, metavar="SEC",
                        help="per-run wall-clock budget in seconds "
                             "(default: unlimited)")
    parser.add_argument("--retries", type=_nonneg_int, default=0,
                        metavar="N",
                        help="retry hung/timed-out/crashed runs up to N "
                             "times with exponential backoff (default: 0)")
    parser.add_argument("--partial", action="store_true",
                        help="keep going when a run fails every attempt: "
                             "report partial results instead of aborting")
    parser.add_argument("--profile", action="store_true",
                        help="report per-phase cycle-kernel timing and "
                             "active-set occupancy after the run")
    trace = parser.add_argument_group("event tracing")
    trace.add_argument("--trace", action="store_true",
                       help="record flit-level events for every executed "
                            "run and export JSONL + digest artifacts")
    trace.add_argument("--trace-dir", default="traces", metavar="DIR",
                       help="directory for trace artifacts "
                            "(default: ./traces)")
    trace.add_argument("--trace-limit", type=_positive_int,
                       default=DEFAULT_LIMIT, metavar="N",
                       help="ring-buffer capacity in events; oldest "
                            "events are evicted beyond it (default: "
                            f"{DEFAULT_LIMIT})")
    trace.add_argument("--trace-chrome", action="store_true",
                       help="also export Chrome-trace JSON (loadable at "
                            "https://ui.perfetto.dev)")
    metrics = parser.add_argument_group("telemetry")
    metrics.add_argument("--metrics", action="store_true",
                         help="sample time-series telemetry for every "
                              "executed run and export JSONL/CSV/"
                              "Prometheus artifacts")
    metrics.add_argument("--metrics-interval", type=_positive_int,
                         default=DEFAULT_INTERVAL, metavar="N",
                         help="sampling window in cycles (default: "
                              f"{DEFAULT_INTERVAL})")
    metrics.add_argument("--metrics-dir", default="metrics", metavar="DIR",
                         help="directory for metrics artifacts "
                              "(default: ./metrics)")
    metrics.add_argument("--metrics-html", action="store_true",
                         help="also build the single-file HTML report "
                              "(implies --metrics)")
    crash = parser.add_argument_group("crash safety")
    crash.add_argument("--checkpoint-interval", type=_positive_int,
                       default=None, metavar="N",
                       help="persist a mid-run checkpoint every N cycles "
                            "so killed/timed-out runs resume instead of "
                            "restarting (default: off, zero overhead)")
    crash.add_argument("--checkpoint-dir", default="checkpoints",
                       metavar="DIR",
                       help="directory for checkpoint files "
                            "(default: ./checkpoints)")
    crash.add_argument("--journal", default=None, metavar="PATH",
                       help="write-ahead sweep journal (fsync-per-record "
                            "JSONL); required for --resume")
    crash.add_argument("--resume", action="store_true",
                       help="skip points already recorded done in the "
                            "--journal and re-run only the rest")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nord",
        description="NoRD (MICRO 2012) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_all = sub.add_parser("run-all", help="run every paper experiment")
    _add_common(p_all)

    sub.add_parser("list", help="list available experiments")

    for name, (_, description) in EXPERIMENTS.items():
        p = sub.add_parser(name, help=description)
        _add_common(p)

    p_sim = sub.add_parser("simulate", help="run one simulation")
    _add_common(p_sim)
    p_sim.set_defaults(usage_error=p_sim.error)
    p_sim.add_argument("--design", choices=Design.ALL, default=Design.NORD)
    p_sim.add_argument("--traffic", default="uniform",
                       choices=("uniform", "bitcomp", "tornado",
                                "transpose", "hotspot") + BENCHMARKS)
    p_sim.add_argument("--rate", type=float, default=0.1,
                       help="flits/node/cycle (synthetic traffic only)")
    p_sim.add_argument("--width", type=int, default=4)
    p_sim.add_argument("--height", type=int, default=4)
    fault = p_sim.add_argument_group("fault injection")
    fault.add_argument("--fail-router", type=int, default=None,
                       metavar="NODE",
                       help="hard-fail this router mid-run")
    fault.add_argument("--fail-cycle", type=int, default=60,
                       metavar="CYC",
                       help="cycle at which --fail-router dies "
                            "(default: 60)")
    fault.add_argument("--corrupt-rate", type=float, default=0.0,
                       metavar="P",
                       help="per-link per-flit corruption probability")
    fault.add_argument("--drop-rate", type=float, default=0.0, metavar="P",
                       help="per-link per-flit drop probability")
    fault.add_argument("--retransmit", action="store_true",
                       help="enable NI retransmission on timeout for "
                            "lost/corrupted packets")
    return parser


def _runner(parser: argparse.ArgumentParser,
            args: argparse.Namespace) -> parallel.SweepRunner:
    """The command's settings as one fresh runner: everything the
    ``_add_common`` flags say, and nothing any earlier command said."""
    if args.resume and args.journal is None:
        parser.error("--resume requires --journal")
    trace = metrics = checkpoint = None
    if args.trace:
        trace = TraceSpec(directory=args.trace_dir, limit=args.trace_limit,
                          chrome=args.trace_chrome)
    if args.metrics or args.metrics_html:  # --metrics-html implies it
        metrics = MetricsSpec(directory=args.metrics_dir,
                              interval=args.metrics_interval)
    if args.checkpoint_interval is not None:
        checkpoint = CheckpointSpec(directory=args.checkpoint_dir,
                                    interval=args.checkpoint_interval)
    return parallel.SweepRunner(
        jobs=args.jobs, use_cache=not args.no_cache, timeout=args.timeout,
        retries=args.retries, partial=args.partial, trace=trace,
        metrics=metrics, checkpoint=checkpoint, backend=args.backend,
        journal_path=args.journal, resume=args.resume)


def _trace_summary(spec) -> None:
    """Print where trace artifacts went, ``[trace``-prefixed so the
    byte-identity CI diff can filter these (and only these) lines."""
    if spec is None:
        return
    from pathlib import Path
    directory = Path(spec.directory)
    digests = sorted(directory.glob("*.digest.json"))
    print(f"[trace] {len(digests)} run(s) traced; artifacts in "
          f"{directory}/")


def _metrics_finish(spec, html: bool) -> None:
    """Export the kernel profile, summarize artifacts and (optionally)
    build the HTML report.  Every line is ``[metrics``-prefixed so the
    byte-identity CI diff can filter these (and only these) lines."""
    if spec is None:
        return
    from pathlib import Path
    directory = Path(spec.directory)
    if activity.profiling_enabled():
        from .metrics.sampler import export_profile
        export_profile(activity.global_profile(), directory)
    runs = sorted(directory.glob("*.metrics.jsonl"))
    print(f"[metrics] {len(runs)} run(s) sampled; artifacts in "
          f"{directory}/")
    if html:
        from .metrics import report as report_mod
        out = report_mod.write_report(directory)
        print(f"[metrics] report: {out}")


def _resume_hint(exc, argv: Optional[List[str]]) -> int:
    """Report an interrupted sweep and how to pick it back up."""
    words = list(argv if argv is not None else sys.argv[1:])
    if "--resume" not in words:
        words.append("--resume")
    diag = exc.diagnostics
    done, total = diag.get("completed"), diag.get("total")
    progress = f" after {done}/{total} points" if done is not None else ""
    print(f"\n[interrupted] sweep stopped{progress}; journal: "
          f"{diag.get('journal', '?')}", file=sys.stderr)
    print("[interrupted] resume with: nord " + " ".join(words),
          file=sys.stderr)
    return 130


def _timing_line(result) -> str:
    """Host-timing footer for one run (contains " took " so the CI
    byte-identity diffs drop it alongside the other wall-clock lines)."""
    if result.wall_clock_s <= 0:
        return "[run took 0.0s; served from cache]"
    return (f"[run took {result.wall_clock_s:.1f}s; "
            f"{result.simulated_cycles_per_sec:,.0f} simulated cyc/s; "
            f"kernel: {result.kernel}]")


def _fault_plan(args: argparse.Namespace):
    """Build the FaultPlan the simulate flags describe (None if none)."""
    failures = ()
    if args.fail_router is not None:
        failures = (RouterFailure(args.fail_router, args.fail_cycle),)
    links = ()
    if args.corrupt_rate or args.drop_rate:
        links = (LinkFault(corrupt_rate=args.corrupt_rate,
                           drop_rate=args.drop_rate),)
    if not failures and not links and not args.retransmit:
        return None
    return FaultPlan(router_failures=failures, link_faults=links,
                     seed=args.seed, retransmit=args.retransmit)


def _simulate(args: argparse.Namespace) -> None:
    scale = SCALES[args.scale]
    cfg = SimConfig(
        design=args.design,
        noc=NoCConfig(width=args.width, height=args.height),
        warmup_cycles=scale.warmup,
        measure_cycles=scale.measure,
        drain_cycles=scale.drain,
        seed=args.seed,
    )
    if args.traffic in BENCHMARKS:
        spec = parallel.parsec_spec(args.traffic, seed=args.seed)
    else:
        spec = parallel.TrafficSpec(kind=args.traffic, rate=args.rate,
                                    seed=args.seed)
    try:  # the run's own validators: a bad flag is a usage error
        faults = _fault_plan(args)
        mesh = Mesh(args.width, args.height)
        if args.design == Design.NORD:
            build_ring(mesh)
        FaultState(faults or FaultPlan(), mesh.num_nodes)
        spec.build(mesh)
    except ValueError as exc:
        args.usage_error(str(exc))
    result, energy = parallel.get_runner().run_one(
        parallel.DesignPoint(cfg=cfg, traffic=spec, faults=faults))
    rows = [
        ("design", args.design),
        ("traffic", args.traffic),
        ("measured cycles", result.cycles),
        ("packets measured", result.packets_measured),
        ("avg packet latency (cyc)", f"{result.avg_packet_latency:.2f}"),
        ("avg hops", f"{result.avg_hops:.2f}"),
        ("throughput (flits/node/cyc)",
         f"{result.throughput_flits_per_node_cycle:.4f}"),
        ("router off fraction", f"{result.avg_off_fraction:.3f}"),
        ("router wakeups", result.total_wakeups),
        ("NoC power (W)", f"{energy.avg_power_w:.3f}"),
        ("router static energy (uJ)",
         f"{energy.router_static_j * 1e6:.2f}"),
        ("PG overhead energy (uJ)", f"{energy.pg_overhead_j * 1e6:.2f}"),
    ]
    if faults is not None:
        rows += [
            ("delivered fraction", f"{result.delivered_fraction:.4f}"),
            ("packets failed", result.packets_failed),
            ("packets corrupted", result.packets_corrupted),
            ("packets retransmitted", result.packets_retransmitted),
            ("flits corrupted/dropped",
             f"{result.flits_corrupted}/{result.flits_dropped}"),
        ]
    print(format_table(("metric", "value"), rows, title="simulation"))
    print(_timing_line(result))


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        for name, (_, description) in EXPERIMENTS.items():
            print(f"{name:8s} {description}")
        return 0
    # Everything a command's flags set takes effect here, whole: the
    # runner (every point the command submits - simulate's one included
    # - inherits its observers and kernel pin) and the profile switch.
    runner = parallel.install(_runner(parser, args))
    activity.enable_profiling(args.profile)
    activity.reset_profile()
    from .errors import SweepInterrupted
    try:
        if args.command == "run-all":
            run_all(args.scale, args.seed)
        elif args.command == "simulate":
            _simulate(args)
        else:
            print(run_experiment(args.command, args.scale, args.seed))
    except SweepInterrupted as exc:
        # The runner already flushed the journal and partial results;
        # tell the user how to pick the sweep back up and exit 130 like
        # an uncaught SIGINT would.
        return _resume_hint(exc, argv)
    finally:
        # The worker pool outlives each sweep; it must not outlive the
        # command (interrupted or not).
        runner.close()
    if args.profile:
        print(activity.global_profile().summary())
    _trace_summary(runner.trace)
    _metrics_finish(runner.metrics, args.metrics_html)
    return 0


if __name__ == "__main__":
    sys.exit(main())
