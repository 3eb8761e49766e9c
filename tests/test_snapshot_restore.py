"""Kernel snapshot/restore: the differential oracle (crash safety).

The contract: run N cycles straight == run k cycles, ``snapshot()``,
``restore()`` (in-process or in a fresh interpreter), run the remaining
N - k.  The final :class:`RunResult` must be field-identical and a
traced run must produce an identical event-stream digest, on both the
reference and the struct-of-arrays kernel - pinned, and as the unpinned
default.
"""

import dataclasses
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import Design, NoCConfig, SimConfig
from repro.experiments.parallel import tornado_spec, uniform_spec
from repro.faults import FaultPlan, WakeupFault
from repro.metrics.sampler import MetricsSpec, export_metrics
from repro.noc.network import (Network, NetworkSnapshot, RunProgress,
                               SNAPSHOT_VERSION)
from repro.trace.recorder import EventTrace

SRC = Path(__file__).resolve().parent.parent / "src"


def small_cfg(design=Design.NORD):
    return SimConfig(design=design, noc=NoCConfig(width=4, height=4),
                     warmup_cycles=80, measure_cycles=300,
                     drain_cycles=500)


def run_straight(cfg, spec, backend=None, trace=None, metrics=None,
                 plan=None):
    net = Network(cfg, backend=backend, trace=trace, metrics=metrics,
                  fault_plan=plan)
    result = net.run(spec.build(net.mesh))
    return result, net


def run_split(cfg, spec, k, backend=None, trace=None, metrics=None,
              plan=None):
    """Run ``k`` cycles, snapshot, restore from pickled bytes, finish."""
    net = Network(cfg, backend=backend, trace=trace, metrics=metrics,
                  fault_plan=plan)
    traffic = spec.build(net.mesh)
    progress = RunProgress(cfg.warmup_cycles, cfg.measure_cycles,
                           cfg.drain_cycles)
    result = net.run_segment(traffic, progress, max_cycles=k)
    if result is not None:
        return result, net  # run finished before the split point
    blob = pickle.dumps((net.snapshot(), traffic, progress),
                        protocol=pickle.HIGHEST_PROTOCOL)
    snap2, traffic2, progress2 = pickle.loads(blob)
    net2 = Network.restore(snap2)
    result = net2.run_segment(traffic2, progress2)
    assert result is not None
    return result, net2


@pytest.mark.parametrize("design", Design.ALL)
@pytest.mark.parametrize("backend", ["ref", "soa"])
def test_split_equals_straight_all_designs(design, backend):
    cfg = small_cfg(design)
    spec = uniform_spec(0.10, seed=3)
    want, _ = run_straight(cfg, spec, backend=backend)
    got, net = run_split(cfg, spec, 137, backend=backend)
    assert got.to_dict() == want.to_dict()
    assert net.backend == backend


# The three ``*fast*`` tests below keep their pre-merge ids (the former
# fast mode *is* the soa kernel now); they cover the *unpinned* dispatch,
# i.e. the kernel an untagged run gets.
@pytest.mark.parametrize("design", Design.ALL + (Design.BUFFERLESS,))
def test_split_equals_straight_fast_mode(design):
    """The mailboxes (credit/flit/inject/eject batches) are pickled
    state: a mid-run split must carry the in-flight mail across the
    process boundary, and the restored network must keep its class
    identity.  The bufferless datapath, which the design selects, runs
    on the same protocol with its wires in flight."""
    from repro.noc.bufferless import BufferlessNetwork
    from repro.noc.soa import SoANetwork
    cfg = small_cfg(design)
    spec = uniform_spec(0.10, seed=3)
    want, _ = run_straight(cfg, spec)
    got, net = run_split(cfg, spec, 137)
    assert got.to_dict() == want.to_dict()
    assert type(net) is (BufferlessNetwork if design == Design.BUFFERLESS
                         else SoANetwork)


@pytest.mark.parametrize("design", [Design.CONV_PG, Design.NORD])
def test_faulted_soa_split_equals_straight(design):
    """The fault state - RNG, failed routers and ports, pending
    retransmissions, the link-fault table - rides inside a soa
    snapshot: a faulted run split after the router failure finishes
    exactly as a straight one (and as the reference)."""
    plan = FaultPlan(
        router_failures=FaultPlan.single_router_failure(5, 60)
        .router_failures,
        link_faults=FaultPlan.uniform_link_noise(
            corrupt_rate=5e-3, drop_rate=1e-3).link_faults,
        wakeup_faults=(WakeupFault(6, delay=20),),
        seed=11, retransmit=True, retransmit_timeout=150)
    cfg = small_cfg(design)
    spec = uniform_spec(0.10, seed=3)
    want, _ = run_straight(cfg, spec, plan=plan)
    got, net = run_split(cfg, spec, 200, plan=plan)
    assert net.backend == "soa" and net._faults.failed_nodes == {5}
    assert got.to_dict() == want.to_dict()
    ref, _ = run_straight(cfg, spec, backend="ref", plan=plan)
    assert ref.to_dict() == want.to_dict()
    assert want.flits_corrupted > 0


@pytest.mark.parametrize("k", [0, 1, 80, 299, 300, 301, 379, 380, 381])
def test_split_at_phase_boundaries_fast_mode(k):
    """Phase-boundary splits on the soa kernel: the warmup->measure and
    measure->drain side effects (start/stop measurement, counter
    snapshots) must commute with snapshotting the mailbox state."""
    cfg = small_cfg(Design.NORD)
    spec = tornado_spec(0.12, seed=5)
    want, _ = run_straight(cfg, spec)
    got, net = run_split(cfg, spec, k)
    assert got.to_dict() == want.to_dict()
    assert net.backend == "soa"


def test_fast_split_matches_reference_straight():
    """The strongest cross-check: a split soa run equals an unsplit
    reference-kernel run."""
    cfg = small_cfg(Design.NORD)
    spec = uniform_spec(0.10, seed=3)
    want, _ = run_straight(cfg, spec, backend="ref")
    got, net = run_split(cfg, spec, 200)
    assert got.to_dict() == want.to_dict()
    assert net.backend == "soa"


@pytest.mark.parametrize("k", [0, 1, 80, 379, 380, 381])
def test_split_at_phase_boundaries(k):
    """Splitting exactly at (and around) the warmup->measure and
    measure->drain transitions must not disturb the boundary side
    effects (start/stop measurement, counter snapshots) - on the
    reference kernel; the ``_fast_mode`` twin above covers soa."""
    cfg = small_cfg(Design.NORD)
    spec = tornado_spec(0.12, seed=5)
    want, _ = run_straight(cfg, spec, backend="ref")
    got, _ = run_split(cfg, spec, k, backend="ref")
    assert got.to_dict() == want.to_dict()


def test_trace_digest_survives_snapshot():
    """The event trace rides inside the snapshot: a split traced run
    yields the same canonical-stream digest as a straight one, on
    either kernel (and the kernels agree)."""
    cfg = small_cfg(Design.NORD)
    spec = uniform_spec(0.10, seed=3)
    digests = []
    for backend in ("ref", "soa"):
        _, net_a = run_straight(cfg, spec, backend, trace=EventTrace())
        _, net_b = run_split(cfg, spec, 200, backend, trace=EventTrace())
        assert net_a.backend == net_b.backend == backend
        assert net_a.trace.digest() == net_b.trace.digest(), backend
        digests.append(net_a.trace.digest())
    assert digests[0] == digests[1]


def test_metered_soa_split_equals_straight(tmp_path):
    """The sampler rides inside the snapshot on the soa kernel too: a
    metered run split mid-measure writes the artifacts a straight one
    writes, byte for byte."""
    cfg = small_cfg(Design.NORD)
    spec = uniform_spec(0.10, seed=3)
    mspec = MetricsSpec(directory=str(tmp_path), interval=50)

    def artifacts(result, net, name):
        assert net.backend == "soa"
        export_metrics(net.metrics, mspec, name, net)
        return result.to_dict(), [
            (tmp_path / (name + suffix)).read_bytes()
            for suffix in (".metrics.jsonl", ".metrics.csv", ".prom")]

    want = artifacts(*run_straight(cfg, spec, metrics=mspec.build()),
                     "straight")
    got = artifacts(*run_split(cfg, spec, 200, metrics=mspec.build()),
                    "split")
    assert got == want
    assert want[1][0].count(b"\n") > 5  # snapshots were sampled


def test_snapshot_is_versioned_and_restore_rejects_drift():
    cfg = small_cfg(Design.NO_PG)
    net = Network(cfg)
    snap = net.snapshot()
    assert isinstance(snap, NetworkSnapshot)
    assert snap.version == SNAPSHOT_VERSION
    assert snap.backend == net.backend
    bad = dataclasses.replace(snap, version=SNAPSHOT_VERSION + 1)
    with pytest.raises(ValueError, match="snapshot"):
        Network.restore(bad)


def test_restore_resumes_packet_id_counter():
    """The pid counter is network state: it rides in the blob, so a
    restored network hands out the pid the original would have - however
    many packets other networks in the process made in between."""
    cfg = small_cfg(Design.NORD)
    spec = uniform_spec(0.10, seed=3)
    net = Network(cfg)
    traffic = spec.build(net.mesh)
    progress = RunProgress(cfg.warmup_cycles, cfg.measure_cycles,
                           cfg.drain_cycles)
    assert net.run_segment(traffic, progress, max_cycles=150) is None
    snap = net.snapshot()
    assert not hasattr(snap, "next_packet_id")
    other = Network(cfg)
    assert other.inject_packet(0, 1, 1).pid == 0
    restored = Network.restore(snap)
    want = net.inject_packet(0, 1, 1).pid
    assert want > 0
    assert restored.inject_packet(0, 1, 1).pid == want


def test_restore_in_fresh_process_matches():
    """End-to-end crash shape: snapshot here, finish the run in a brand
    new interpreter, compare against the uninterrupted result."""
    cfg = small_cfg(Design.NORD)
    spec = uniform_spec(0.10, seed=3)
    want, _ = run_straight(cfg, spec)

    net = Network(cfg)
    traffic = spec.build(net.mesh)
    progress = RunProgress(cfg.warmup_cycles, cfg.measure_cycles,
                           cfg.drain_cycles)
    assert net.run_segment(traffic, progress, max_cycles=137) is None
    blob = pickle.dumps((net.snapshot(), traffic, progress),
                        protocol=pickle.HIGHEST_PROTOCOL)

    code = (
        "import pickle, sys, json\n"
        "from repro.noc.network import Network\n"
        "snap, traffic, progress = pickle.loads(sys.stdin.buffer.read())\n"
        "net = Network.restore(snap)\n"
        "result = net.run_segment(traffic, progress)\n"
        "print(json.dumps(result.to_dict(), sort_keys=True))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], input=blob,
                          capture_output=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    got = json.loads(proc.stdout.decode())
    assert got == json.loads(json.dumps(want.to_dict(), sort_keys=True))
