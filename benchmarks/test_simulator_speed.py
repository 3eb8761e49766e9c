"""Micro-benchmarks of the simulator core (not a paper figure).

These keep an eye on the cycle-loop cost so the figure benches stay
tractable; they use real timing (multiple rounds) unlike the one-shot
figure regenerations.
"""

from repro.config import Design, small_config
from repro.noc.network import Network
from repro.traffic.synthetic import uniform_random


def _run(design, rate, cycles):
    cfg = small_config(design, warmup=0, measure=cycles)
    net = Network(cfg)
    traffic = uniform_random(net.mesh, rate, seed=1)

    def step_all():
        for _ in range(cycles):
            net._inject_arrivals(traffic)
            net.step()

    return step_all


def test_cycle_loop_no_pg(benchmark):
    benchmark.pedantic(_run(Design.NO_PG, 0.1, 500), rounds=3, iterations=1)


def test_cycle_loop_nord(benchmark):
    benchmark.pedantic(_run(Design.NORD, 0.1, 500), rounds=3, iterations=1)


def test_cycle_loop_conv_pg(benchmark):
    benchmark.pedantic(_run(Design.CONV_PG, 0.1, 500), rounds=3,
                       iterations=1)


def test_placement_analysis_speed(benchmark):
    from repro.core.placement import PlacementAnalysis
    from repro.core.ring import build_ring
    from repro.noc.topology import Mesh
    mesh = Mesh(4, 4)
    ring = build_ring(mesh)
    # What fig6 calls, on a fresh analysis each round (results are
    # memoised per instance).
    benchmark.pedantic(
        lambda: PlacementAnalysis(mesh, ring).greedy_selection(),
        rounds=5, iterations=1)
