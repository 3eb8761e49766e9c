"""Parked VA waiters in the soa kernel, and the NI's latched-flit count.

A ``WAITING_VA`` VC whose request list comes back empty, and can no
longer grow (escape-only, or past the escape patience), parks on the
output ports it requests and skips VA until an owner on one of them is
released (DESIGN.md section 9, "Parked waiters").  The evidence here:

* the reference kernel and the default kernel agree (``RunResult``,
  final cycle and event trace) on saturated NoRD points, where almost
  every head waits in VA, and on the points that never park much;
* a split run equals a straight one when the snapshot holds parked VCs;
* a mutation self-test: dropping an unpark site makes that differential
  fail, so it cannot pass vacuously;
* the ``owner_released`` hook, which no sweep point exercises;
* a host-independent guard that parking actually skips work;
* the NI's latched-flit count equals its latches on every cycle.
"""

import functools
import pickle
import sys

import pytest

from repro.config import Design
from repro.experiments import parallel
from repro.experiments.common import build_config
from repro.noc.network import Network, RunProgress
from repro.noc.soa import SoANetwork
from repro.noc.topology import NUM_PORTS
from repro.trace.recorder import EventTrace
from tests.tracediff import assert_same_events

#: (design, mesh side, uniform rate, seed, prepare hook) at smoke scale.
NORD_03 = (Design.NORD, 4, 0.3, 1, None)
NORD_04 = (Design.NORD, 4, 0.4, 1, None)
NORD_05 = (Design.NORD, 4, 0.5, 1, None)
POINTS = [
    NORD_03, NORD_04, NORD_05,
    (Design.NORD, 8, 0.2, 2, None),
    (Design.CONV_PG_OPT, 4, 0.5, 1, None),
    (Design.NORD, 4, 0.1, 1, "force_all_off"),  # a fig7 point
]


def _label(point):
    design, side, rate, seed, prepare = point
    return f"{design}-{side}x{side}-{rate}-s{seed}" + (
        f"-{prepare}" if prepare else "")


def build(point, backend=None, trace=None):
    design, side, rate, seed, prepare = point
    cfg = build_config(design, "smoke", width=side, height=side, seed=seed)
    net = Network(cfg, backend=backend, trace=trace)
    if prepare is not None:
        parallel.PREPARE_HOOKS[prepare](net)
    return net, parallel.uniform_spec(rate, seed=seed).build(net.mesh)


def run(point, backend=None, trace=None):
    """``(RunResult, final cycle)``, or the exception a run raised."""
    net, traffic = build(point, backend, trace)
    try:
        return net.run(traffic), net.now
    except Exception as exc:  # a wedged mutant counts as a divergence
        return exc


@functools.lru_cache(maxsize=None)
def reference(point):
    """The reference run, traced: ``(run(...), canonical event lines)``."""
    trace = EventTrace()
    return run(point, "ref", trace), trace.canonical_lines()


@pytest.mark.parametrize("point", POINTS, ids=_label)
def test_default_kernel_matches_reference(point):
    trace = EventTrace()
    got = run(point, trace=trace)
    want, want_events = reference(point)
    assert got == want, f"kernel drift on {_label(point)}"
    assert_same_events(want_events, trace.canonical_lines(), _label(point))


def test_split_with_parked_waiters_equals_straight():
    net, traffic = build(NORD_05)
    assert type(net) is SoANetwork
    cfg = net.cfg
    progress = RunProgress(cfg.warmup_cycles, cfg.measure_cycles,
                           cfg.drain_cycles)
    while sum(net._parked) < 10:
        assert net.run_segment(traffic, progress, max_cycles=1) is None
    parked = list(net._parked)
    snap2, traffic2, progress2 = pickle.loads(pickle.dumps(
        (net.snapshot(), traffic, progress)))
    net2 = Network.restore(snap2)
    assert net2._parked == parked
    got = net2.run_segment(traffic2, progress2)
    assert (got, net2.now) == run(NORD_05)


# ---------------------------------------------------------------------------
# mutation self-test: a missing unpark must not survive the differential
# ---------------------------------------------------------------------------

#: Unpark sites by the function that calls ``_unpark``: the router's
#: tail traversal (its one site), the LOCAL eject tail, and
#: the NI bypass eject/forward release.
ROUTER_TAIL = ("_phase_routers",)
LOCAL_EJECT = ("_phase_links",)
BYPASS = ("release_upstream_owner",)


def _drop_unparks_from(monkeypatch, callers):
    orig = SoANetwork._unpark

    def mutant(self, o):
        if sys._getframe(1).f_code.co_name not in callers:
            orig(self, o)

    monkeypatch.setattr(SoANetwork, "_unpark", mutant)


@pytest.mark.parametrize("callers, point", [
    (ROUTER_TAIL, NORD_03),
    (ROUTER_TAIL, NORD_04),
    (ROUTER_TAIL, NORD_05),
    # 0.3 and 0.4 never park a VC on a LOCAL port
    (LOCAL_EJECT, NORD_05),
    (BYPASS, NORD_03),
], ids=["router-tail-0.3", "router-tail-0.4", "router-tail-0.5",
        "local-eject-0.5", "bypass-0.3"])
def test_dropped_unpark_is_caught(monkeypatch, callers, point):
    want, _ = reference(point)
    _drop_unparks_from(monkeypatch, callers)
    assert run(point) != want, (
        "the differential missed a dropped unpark site")


def test_owner_released_hook_unparks_that_port_only():
    """The NI's ring-allocation reset releases an owner outside the
    datapath; the hook must wake the waiters parked on that port and
    leave the others parked."""
    net, traffic = build(NORD_05)
    cfg = net.cfg
    progress = RunProgress(cfg.warmup_cycles, cfg.measure_cycles,
                           cfg.drain_cycles)
    while sum(1 for q in net._park_on if q) < 2:
        assert net.run_segment(traffic, progress, max_cycles=1) is None
    o = next(o for o, q in enumerate(net._park_on) if q)
    here = set(net._park_on[o])
    elsewhere = {f for o2, q in enumerate(net._park_on) if o2 != o
                 for f in q if f not in here and net._parked[f]}
    assert elsewhere
    net.owner_released(o // NUM_PORTS, o % NUM_PORTS)
    assert net._park_on[o] == []
    assert not any(net._parked[f] for f in here)
    assert all(net._parked[f] for f in elsewhere)


@pytest.mark.parametrize("backend", ["ref", "soa"])
def test_ring_allocation_reset_reports_the_release(monkeypatch, backend):
    """``reset_pending_ring_allocation`` clears the ring out-port owner
    and reports it through ``owner_released`` (a no-op on ``ref``)."""
    net, _ = build(NORD_03, backend)
    calls = []
    monkeypatch.setattr(type(net), "owner_released",
                        lambda self, node, port: calls.append((node, port)))
    node = net.ring.order[3]
    ni = net.nis[node]
    ni.inj_path, ni.inj_out_vc, ni.inj_sent = "ring", 2, 0
    ni._ring_owner[2] = 99
    ni.reset_pending_ring_allocation()
    assert ni._ring_owner[2] is None
    assert calls == [(node, net.ring.outport[node])]
    Network.owner_released(net, node, 0)  # the reference hook is inert


def test_parking_skips_most_va_evaluations(monkeypatch):
    """Host-independent guard: on the saturated NoRD 4x4 uniform 0.5
    point (about 635,000 evaluations without parking, about 56,000
    with it), VA candidate lists are rebuilt at most 100,000 times."""
    calls = 0
    orig = SoANetwork._va_candidates

    def counting(self, node, f):
        nonlocal calls
        calls += 1
        return orig(self, node, f)

    monkeypatch.setattr(SoANetwork, "_va_candidates", counting)
    run(NORD_05)
    assert 0 < calls <= 100_000


# ---------------------------------------------------------------------------
# the NI's latched-flit count
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", ["ref", "soa"])
def test_latched_count_matches_the_latches(monkeypatch, backend):
    handed_over = 0
    orig = Network._on_nord_wake

    def on_wake(self, node):
        nonlocal handed_over
        before = self.nis[node]._latched
        orig(self, node)
        handed_over += before - self.nis[node]._latched

    monkeypatch.setattr(Network, "_on_nord_wake", on_wake)
    net, traffic = build((Design.NORD, 4, 0.1, 1, None), backend)
    cfg = net.cfg
    checked = 0

    def on_cycle(n, _):
        nonlocal checked
        for ni in n.nis:
            assert ni._latched == sum(map(len, ni.latch)), (
                f"NI {ni.node} latched count drifted at cycle {n.now}")
        checked += 1

    net.run_segment(traffic, RunProgress(cfg.warmup_cycles,
                                         cfg.measure_cycles,
                                         cfg.drain_cycles),
                    on_cycle=on_cycle)
    assert checked == net.now
    assert handed_over > 0, "no wake-up handed latched flits over"
