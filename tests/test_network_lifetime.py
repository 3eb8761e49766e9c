"""A dropped network frees itself, and a fresh one stays small.

Lifetime contract: no component of a network stores the kernel (the
kernel passes itself to the NIs' and the reference routers' entry
points), so a network's object graph holds no reference cycle and
reference counting frees it the moment its last user lets go.  With
the cyclic collector off, a network that ran, was snapshotted and
restored, and carried every observer and a fault plan, leaves nothing
for ``gc.collect()`` to find.  A failure names the attribute that
points back at the network.

Memory guard: the bytes ``Network(cfg)`` allocates (tracemalloc, a
count rather than a clock) stay under :data:`CTOR_BUDGET_KB` for the
8x8 NoRD mesh on the default kernel.  A fresh network's footprint is
mostly empty per-VC queues: 1,280 VC buffers and 256 bypass latches.
"""

import gc
import tracemalloc
from collections import Counter

import pytest

from repro.config import Design, small_config
from repro.experiments.common import build_config
from repro.experiments.parallel import uniform_spec
from repro.faults import FaultPlan, LinkFault, RouterFailure, WakeupFault
from repro.metrics import MetricsRun
from repro.noc.network import Datapath, Network, RunProgress
from repro.trace.recorder import EventTrace

#: Every design the simulator builds (Bufferless is its own datapath).
DESIGNS = Design.ALL + (Design.BUFFERLESS,)

#: Upper bound on ``Network(cfg)``'s allocation for 8x8 NoRD on the
#: default kernel: 884 KB measured (Python 3.11) with list-backed VC
#: buffers and latches, 1,944 KB when they were deques.
CTOR_BUDGET_KB = 1_000


def _observers(design):
    """What the network carries: a trace always; a metrics sampler and
    a fault plan (a hard-fail, a slow wakeup, noisy links with
    retransmission) where the design takes them - the bufferless
    network has no power-gate controllers or NIs to sample or fault."""
    kwargs = {"trace": EventTrace()}
    if design != Design.BUFFERLESS:
        kwargs["metrics"] = MetricsRun(interval=10)
        kwargs["fault_plan"] = FaultPlan(
            router_failures=(RouterFailure(5, 30),),
            wakeup_faults=(WakeupFault(6, delay=3),),
            link_faults=(LinkFault(corrupt_rate=0.01),),
            retransmit=True, retransmit_timeout=50)
    return kwargs


def _run_snapshot_restore(design, backend):
    """Run 200 cycles, snapshot, restore, step the copy; drop it all."""
    net = Network(small_config(design), backend=backend, **_observers(design))
    traffic = uniform_spec(0.1, seed=3).build(net.mesh)
    progress = RunProgress(50, 1_000, 0)
    assert net.run_segment(traffic, progress, max_cycles=200) is None
    copy = Datapath.restore(net.snapshot())
    assert copy.run_segment(traffic, progress, max_cycles=20) is None
    assert copy.now == net.now + 20


def _back_references(garbage):
    """``Owner.attribute`` for each field in ``garbage`` holding a
    network: the reference that closes a cycle through the kernel."""
    holders = set()
    for obj in garbage:
        if isinstance(obj, Datapath):
            continue
        fields = dict(getattr(obj, "__dict__", {}))
        for name in getattr(type(obj), "__slots__", ()):
            if hasattr(obj, name):
                fields[name] = getattr(obj, name)
        holders.update(f"{type(obj).__name__}.{name}"
                       for name, value in fields.items()
                       if isinstance(value, Datapath))
    return sorted(holders)


@pytest.mark.parametrize("backend", ["soa", "ref"])
@pytest.mark.parametrize("design", DESIGNS)
def test_dropped_network_leaves_no_cycle(design, backend):
    # A first pass pays for lazy imports, whose module state may hold
    # cycles of its own (pickle's exception classes do).
    _run_snapshot_restore(design, backend)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        _run_snapshot_restore(design, backend)
        unreachable = gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    kinds = Counter(type(obj).__name__ for obj in garbage).most_common(5)
    assert unreachable == 0, (
        f"{design}/{backend}: {unreachable} objects outlived the dropped "
        f"networks; held by {_back_references(garbage) or 'no field'}, "
        f"most common {kinds}")


def test_network_construction_allocates_within_budget():
    cfg = build_config(Design.NORD, "smoke", width=8, height=8)
    Network(cfg)  # lazy imports and one-time caches
    tracemalloc.start()
    try:
        net = Network(cfg)
        allocated, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert net.backend == "soa"
    assert allocated < CTOR_BUDGET_KB * 1024, (
        f"Network(8x8 NoRD) allocated {allocated // 1024} KB, budget "
        f"{CTOR_BUDGET_KB} KB")
