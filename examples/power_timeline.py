#!/usr/bin/env python
"""Power-state timeline: watch routers sleep and wake under real traffic.

Runs a NoRD network on a bursty PARSEC-like workload with the
``repro.metrics`` telemetry attached, renders one ASCII strip per
router from the sampler's windows (the paper's Figure 2(b) sleep/wake
intervals, per router, over live traffic), and folds the collected
artifacts into a self-contained HTML report with SVG timelines and a
per-router OFF-duty heatmap.  A Conv_PG strip is printed for contrast:
note how much more often it flips state (every flip costs a breakeven
time of energy).

Usage::

    python examples/power_timeline.py [benchmark] [cycles]

The metrics artifacts and ``report.html`` land in
``./power_timeline_metrics``.
"""

import sys
from pathlib import Path

from repro.config import Design, SimConfig
from repro.experiments.common import example_scale
from repro.metrics import MetricsSpec, export_metrics
from repro.metrics.report import write_report
from repro.noc.network import Network
from repro.traffic.parsec import BENCHMARKS, make_traffic

#: Dominant-state character per sampling window (majority of cycles).
ON, OFF, WAKING = "#", ".", "~"


def run_design(design: str, benchmark: str, cycles: int, interval: int,
               outdir: Path):
    """Run one design with telemetry attached; returns (MetricsRun, net)."""
    cfg = SimConfig(design=design, warmup_cycles=0,
                    measure_cycles=cycles, drain_cycles=0)
    spec = MetricsSpec(directory=str(outdir), interval=interval,
                       basename=f"{design}_{benchmark}")
    metrics = spec.build()
    net = Network(cfg, metrics=metrics)
    traffic = make_traffic(net.mesh, benchmark, seed=7)
    net.run(traffic)
    export_metrics(metrics, spec, f"{design}_{benchmark}", net,
                   traffic={"kind": "parsec", "benchmark": benchmark,
                            "seed": 7})
    return metrics, net


def render_strips(metrics) -> str:
    """One line per router, one char per sampling window: the window's
    dominant power state as recorded by the :class:`TimelineSampler`."""
    tl = metrics.timeline
    if not tl.windows:
        return "(no sampling windows recorded)"
    num_nodes = len(tl.node_off[0])
    lines = []
    for node in range(num_nodes):
        chars = []
        for snap, window in enumerate(tl.windows):
            off = tl.node_off[snap][node]
            waking = tl.node_waking[snap][node]
            if 2 * off >= window:
                chars.append(OFF)
            elif 2 * waking >= window:
                chars.append(WAKING)
            else:
                chars.append(ON)
        lines.append(f"r{node:<3d} |{''.join(chars)}|")
    lines.append(f"      ({ON} on, {OFF} off, {WAKING} waking; "
                 f"1 char = {tl.interval}-cycle window, dominant state)")
    return "\n".join(lines)


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "blackscholes"
    default_cycles = {"smoke": 400, "bench": 2_400,
                      "full": 24_000}[example_scale()]
    cycles = int(sys.argv[2]) if len(sys.argv) > 2 else default_cycles
    if benchmark not in BENCHMARKS:
        raise SystemExit(f"unknown benchmark; choose from {list(BENCHMARKS)}")
    interval = max(1, cycles // 110)
    outdir = Path("power_timeline_metrics")
    outdir.mkdir(parents=True, exist_ok=True)

    for design in (Design.CONV_PG, Design.NORD):
        print(f"\n=== {design} on {benchmark} ({cycles} cycles, "
              f"1 char = {interval} cycles) ===")
        metrics, net = run_design(design, benchmark, cycles, interval,
                                  outdir)
        print(render_strips(metrics))
        offs = metrics.timeline.mean_node_off_fraction()
        print(f"mean off fraction: {sum(offs) / len(offs):.2f}")
        print(f"total wakeups: {sum(c.wakeups for c in net.controllers)}")

    report = write_report(outdir, title=f"power timeline: {benchmark}")
    print(f"\nmetrics artifacts in {outdir}/; HTML report: {report}")


if __name__ == "__main__":
    main()
