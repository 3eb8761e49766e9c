"""Differential harness for the SoA kernel's batched commit paths.

The SoA kernel (DESIGN.md section 9) batches credit returns, link
traversals and single-candidate allocator commits as flat passes over
the SoA lists, replaying the reference visit order only for contended
rounds.  The result must stay :class:`RunResult` field-identical to the
reference kernel for every configuration it serves.

Four layers of evidence live here:

* a golden matrix (every design x every traffic kind; three requests -
  ``ref`` pinned, ``soa`` pinned, and the unpinned default),
* a hypothesis differential over random (design, kind, rate, seed),
  comparing the two kernels' event traces as well,
* flit/credit conservation checked directly in the flat lists and the
  mailboxes while a run is in flight, and
* oracle self-tests: a deliberately broken VA commit, a disjoint VA
  round committing the wrong preference, a clash-free SA round
  skipping its output-pointer writes, a power-gate promotion blind to
  WU edges and an aggressive-bypass send booked a cycle late must each
  make the differential harness fail, proving the harness has teeth;
  flits delivered in mailbox order rather than link order must fail
  the trace differential while passing the RunResult one.

The file predates the kernel merge (the "fast mode" it names *is* the
soa kernel now) and keeps its name and test ids only because the tier-1
floor tracks tests by id; new kernel-identity tests go to
tests/test_kernel_identity.py.  The ``fast=`` keyword tests at the end
cover the keyword ``Network`` still accepts (and ignores) for the
frozen benchmark.
"""

import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import Design, small_config
from repro.faults import FaultPlan
from repro.noc import soa
from repro.noc.network import Network, RunProgress
from repro.noc.soa import SoANetwork
from repro.noc.topology import NUM_PORTS, OPPOSITE, LOCAL
from repro.trace.recorder import EventTrace
from repro.traffic.synthetic import (bit_complement, tornado, transpose,
                                     uniform_random)
from tests.tracediff import assert_same_events

TRAFFIC_MAKERS = {
    "uniform": uniform_random,
    "tornado": tornado,
    "transpose": transpose,
    "bitcomp": bit_complement,
}


def run_once(design, kind, *, backend="ref", rate=0.1,
             seed=3, width=4, height=4, warmup=60, measure=300, drain=None,
             trace=None):
    """One deterministic run (recording into ``trace`` when given)."""
    cfg = small_config(design, width=width, height=height,
                       warmup=warmup, measure=measure)
    net = Network(cfg, backend=backend, trace=trace)
    traffic = TRAFFIC_MAKERS[kind](net.mesh, rate, seed=seed)
    return net, net.run(traffic, drain=drain)


def assert_identical(res_a, res_b, label):
    if res_a == res_b:
        return
    diffs = []
    for fld in res_a.__dataclass_fields__:
        a, b = getattr(res_a, fld), getattr(res_b, fld)
        if a != b:
            diffs.append(f"{fld}: {a!r} != {b!r}")
    raise AssertionError(f"kernel drift ({label}):\n" + "\n".join(diffs))


class TestGoldenMatrix:
    """ref == soa == the unpinned default, for every design x kind."""

    @pytest.mark.parametrize("design", Design.ALL)
    @pytest.mark.parametrize("kind", sorted(TRAFFIC_MAKERS))
    def test_three_kernels_agree(self, design, kind):
        # Three *requests*: the third is what an untagged run gets.
        net_ref, res_ref = run_once(design, kind, backend="ref")
        net_soa, res_soa = run_once(design, kind, backend="soa")
        net_dflt, res_dflt = run_once(design, kind, backend=None)
        assert type(net_ref) is Network
        assert type(net_soa) is SoANetwork
        assert type(net_dflt) is SoANetwork
        assert_identical(res_ref, res_soa, f"{design}/{kind} soa")
        assert_identical(res_ref, res_dflt, f"{design}/{kind} default")

    def test_high_rate_nord(self):
        # Saturating NoRD exercises bypass latches, ring-link batching
        # and the wake-time credit recount (the mail-aware
        # _restore_pred_credit) far harder than the golden rate.
        _, res_ref = run_once(Design.NORD, "uniform", rate=0.25, seed=7)
        _, res_soa = run_once(Design.NORD, "uniform", rate=0.25, seed=7,
                              backend="soa")
        assert_identical(res_ref, res_soa, "NoRD saturated")


class TestHypothesisDifferential:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(design=st.sampled_from(Design.ALL),
           kind=st.sampled_from(sorted(TRAFFIC_MAKERS)),
           rate=st.floats(min_value=0.01, max_value=0.3),
           seed=st.integers(min_value=0, max_value=2**16))
    def test_random_point_identity(self, design, kind, rate, seed):
        trace_ref, trace_soa = EventTrace(), EventTrace()
        _, res_ref = run_once(design, kind, rate=rate, seed=seed,
                              warmup=40, measure=200, trace=trace_ref)
        _, res_soa = run_once(design, kind, rate=rate, seed=seed,
                              warmup=40, measure=200, backend="soa",
                              trace=trace_soa)
        label = f"{design}/{kind} rate={rate} seed={seed}"
        assert_identical(res_ref, res_soa, label)
        assert_same_events(trace_ref.canonical_lines(),
                           trace_soa.canonical_lines(), label)


# ---------------------------------------------------------------------------
# conservation in the flat arrays
# ---------------------------------------------------------------------------

def _flits_in_flight(net):
    """Every flit between NI injection and NI ejection, including the
    mailboxes."""
    total = sum(len(dq) for dq in net._fifo)
    for row in net.links_out:
        for link in row:
            if link is not None:
                total += len(link.flits._queue)
    for line in net.inject_lines:
        total += len(line._queue)
    for line in net.eject_lines:
        total += len(line._queue)
    total += (len(net._flit_box) + len(net._flit_mid)
              + len(net._flit_due))
    total += len(net._inj_box) + len(net._inj_due)
    total += len(net._ej_box) + len(net._ej_mid) + len(net._ej_due)
    for ni in net.nis:
        total += sum(len(q) for q in ni.latch)
    return total


def _check_credit_books(net, design):
    """The flow-control invariant, per (output port, vc): credits held
    upstream + flits in flight (queue or mail) + credit returns in
    flight (queue or mail) + flits buffered (or latched) downstream
    add up to the buffer depth."""
    v_per = net._V
    ring = getattr(net, "ring", None)
    for node in range(net.mesh.num_nodes):
        for port in range(NUM_PORTS):
            if port == LOCAL:
                continue
            o = node * NUM_PORTS + port
            down = net._up_node[o]
            if down < 0:
                continue
            in_port = OPPOSITE[port]
            link = net.links_out[node][port]
            is_ring_in = (design == Design.NORD
                          and ring.inport[down] == in_port)
            for vc in range(v_per):
                c = o * v_per + vc
                held = net._credit[c]
                assert 0 <= held <= net._maxc[c], (
                    f"credit counter {c} out of range: {held}")
                flits_q = sum(1 for _, (w, pk, v2) in link.flits._queue
                              if v2 == vc)
                flits_m = sum(1 for box in (net._flit_box, net._flit_mid,
                                            net._flit_due)
                              for e in box if e[0] == o and e[3] == vc)
                creds_q = sum(1 for _, v2 in link.credits._queue
                              if v2 == vc)
                creds_m = sum(1 for box in (net._credit_box,
                                            net._credit_due)
                              for cc in box if cc == c)
                buffered = len(net._fifo[(down * NUM_PORTS + in_port)
                                         * v_per + vc])
                latched = (len(net.nis[down].latch[vc])
                           if is_ring_in else 0)
                total = (held + flits_q + flits_m + creds_q + creds_m
                         + buffered + latched)
                assert total == net._maxc[c], (
                    f"credit conservation broken on link {node}->"
                    f"{down} port {port} vc {vc}: held={held} "
                    f"flits={flits_q}+{flits_m} creds={creds_q}+"
                    f"{creds_m} buf={buffered} latch={latched} "
                    f"!= {net._maxc[c]}")


class TestConservation:
    @pytest.mark.parametrize("design", [Design.CONV_PG, Design.NORD])
    def test_flit_and_credit_conservation(self, design):
        cfg = small_config(design, width=4, height=4)
        net = Network(cfg, backend="soa")
        assert type(net) is SoANetwork
        traffic = uniform_random(net.mesh, 0.2, seed=5)
        prog = RunProgress(50, 250, 400)
        checks = 0

        def on_cycle(n, p):
            nonlocal checks
            if n.now % 25 != 0:
                return
            checks += 1
            injected = sum(ni.n_injected_flits for ni in n.nis)
            ejected = sum(ni.n_ejected_flits for ni in n.nis)
            assert injected - ejected == _flits_in_flight(n), (
                f"flit conservation broken at cycle {n.now}")
            _check_credit_books(n, design)

        net.run_segment(traffic, prog, on_cycle=on_cycle)
        assert checks > 5


# ---------------------------------------------------------------------------
# oracle self-tests: broken commits must not survive the harness
# ---------------------------------------------------------------------------

class TestOracleSelfTest:
    def test_seeded_off_by_one_is_caught(self, monkeypatch):
        """Seed a deliberate off-by-one into the VA commit (an extra
        VA-grant count) and assert the differential harness reports
        drift - if this test ever passes with the fault in place, the
        harness is vacuous."""
        orig = SoANetwork._commit_va

        def off_by_one(self, node, f, resource, is_escape, port):
            orig(self, node, f, resource, is_escape, port)
            self._nva[node] += 1  # the deliberate bug

        monkeypatch.setattr(SoANetwork, "_commit_va", off_by_one)
        _, res_ref = run_once(Design.NORD, "uniform")
        _, res_soa = run_once(Design.NORD, "uniform", backend="soa")
        with pytest.raises(AssertionError, match="kernel drift"):
            assert_identical(res_ref, res_soa, "seeded fault")

    def test_disjoint_va_last_preference_is_caught(self, monkeypatch):
        """Mutant: a VA round of several waiters with disjoint request
        lists commits each waiter's last preference instead of its
        first (the arbiter pointers move as before)."""
        rounds = 0
        orig = SoANetwork._va_grant_all

        def last_preference(self, node, waiting):
            nonlocal rounds
            if len(waiting) > 1:
                rounds += 1
                waiting = [(f, cands[::-1]) for f, cands in waiting]
            return orig(self, node, waiting)

        _, res_ref = run_once(Design.NORD, "uniform", rate=0.3)
        monkeypatch.setattr(SoANetwork, "_va_grant_all", last_preference)
        _, res_soa = run_once(Design.NORD, "uniform", rate=0.3,
                              backend="soa")
        assert rounds > 0, "no multi-waiter disjoint VA round ran"
        with pytest.raises(AssertionError, match="kernel drift"):
            assert_identical(res_ref, res_soa, "disjoint-VA mutant")

    def test_clash_free_sa_skipped_pointer_is_caught(self, monkeypatch):
        """Mutant: an SA round whose nominees target distinct output
        ports traverses them all but leaves the output arbiters'
        pointers where they were."""
        rounds = 0
        orig = SoANetwork._sa_outputs

        def no_pointer_write(self, node, noms, now):
            nonlocal rounds
            routes = [self._route[f] for f in noms]
            if len(set(routes)) < len(routes):
                return orig(self, node, noms, now)
            rounds += 1
            sa_out = self._sa_out[node]
            kept = [(r, sa_out[r]._last) for r in routes]
            orig(self, node, noms, now)
            for r, last in kept:
                sa_out[r]._last = last

        _, res_ref = run_once(Design.NO_PG, "uniform", rate=0.3)
        monkeypatch.setattr(SoANetwork, "_sa_outputs", no_pointer_write)
        _, res_soa = run_once(Design.NO_PG, "uniform", rate=0.3,
                              backend="soa")
        assert rounds > 0, "no clash-free multi-nominee SA round ran"
        with pytest.raises(AssertionError, match="kernel drift"):
            assert_identical(res_ref, res_soa, "clash-free SA mutant")

    def test_promotion_ignoring_wu_edges_is_caught(self, monkeypatch):
        """Mutant: the PG phase wakes a quiescent controller only for a
        queued injection and ignores the WU edges (``_wu_now``) its
        stalled neighbours raised this cycle."""
        ignored = 0
        orig = SoANetwork._promote_stimulated

        def no_wu_edges(self, now, nord):
            nonlocal ignored
            ignored += sum(1 for node in self._wu_now
                           if node in self._pg_quiescent
                           and not self.nis[node].inject_pending)
            wu_now, self._wu_now = self._wu_now, set()
            try:
                orig(self, now, nord)
            finally:
                self._wu_now = wu_now

        # No drain: without injections a stall on a router only a WU
        # edge can wake never ends, and the mutant would wedge.
        _, res_ref = run_once(Design.CONV_PG, "uniform", rate=0.03,
                              drain=0)
        monkeypatch.setattr(SoANetwork, "_promote_stimulated", no_wu_edges)
        _, res_soa = run_once(Design.CONV_PG, "uniform", rate=0.03,
                              drain=0, backend="soa")
        assert ignored > 0, "no WU edge reached a quiescent controller"
        with pytest.raises(AssertionError, match="kernel drift"):
            assert_identical(res_ref, res_soa, "WU-blind promotion mutant")

    def test_late_aggressive_bypass_send_is_caught(self, monkeypatch):
        """Mutant: an aggressive-bypass NI send (due one cycle sooner)
        enters the flit box like a normal send instead of the mid list,
        on the ``discussion`` experiment's NoRD spec + aggressive
        point."""
        from repro.experiments import discussion_optimizations as disc
        from repro.experiments.parallel import uniform_spec
        fast_sends = 0
        orig = SoANetwork.send_flit

        def late(self, node, out_port, flit, out_vc, now, *, fast=False):
            nonlocal fast_sends
            fast_sends += fast
            orig(self, node, out_port, flit, out_vc, now)

        cfg = disc._config(Design.NORD, speculative=True, aggressive=True,
                           scale="smoke", seed=1)
        spec = uniform_spec(disc.RATE, seed=1)

        def run(backend):
            net = Network(cfg, backend=backend)
            return net.run(spec.build(net.mesh))

        res_ref = run("ref")
        monkeypatch.setattr(SoANetwork, "send_flit", late)
        res_soa = run("soa")
        assert fast_sends > 0, "no aggressive-bypass send ran"
        with pytest.raises(AssertionError, match="kernel drift"):
            assert_identical(res_ref, res_soa, "late fast-send mutant")

    def test_loose_ring_clamp_is_caught(self, monkeypatch):
        """Mutant: NoRD's gate-off clamps the ring predecessor's credits
        to ``bypass_depth + 1`` instead of the bypass-latch depth.  The
        transition code is one body both kernels run, so they carry the
        bug in step and the soa-vs-ref differential cannot see it; the
        NI's bypass-latch overflow check (``latch_write``) must."""
        clamps = 0
        orig = Network._on_nord_gate_off

        def loose(self, node):
            nonlocal clamps
            orig(self, node)
            pred = self.ring.predecessor[node]
            base = (pred * NUM_PORTS + self.ring.outport[pred]) * self._V
            for vc in range(self._V):
                if vc not in self.nis[node].lingering:
                    clamps += 1
                    self._maxc[base + vc] = self.cfg.pg.bypass_depth + 1
                    self._credit[base + vc] = self._maxc[base + vc]

        monkeypatch.setattr(Network, "_on_nord_gate_off", loose)
        for backend in ("soa", "ref"):
            with pytest.raises(RuntimeError,
                               match=r"bypass latch \d+ overflow"):
                run_once(Design.NORD, "uniform", backend=backend)
        assert clamps > 0, "no NoRD gate-off clamped a ring predecessor"

    def test_mailbox_order_delivery_is_caught(self, monkeypatch):
        """Mutant: the link phase delivers NoRD's due flits in mailbox
        order (NI-phase ring sends ahead of router sends) instead of
        link order.  Deliveries on different links commute, so the
        RunResult differential passes; the bypass-latch writes and
        buffer writes are recorded out of the reference's order, so
        the trace differential must fail."""
        trace_ref, trace_soa = EventTrace(), EventTrace()
        _, res_ref = run_once(Design.NORD, "uniform", trace=trace_ref)
        monkeypatch.setattr(soa, "_link_of", lambda entry: 0)
        _, res_soa = run_once(Design.NORD, "uniform", backend="soa",
                              trace=trace_soa)
        assert_identical(res_ref, res_soa, "mailbox-order mutant")
        with pytest.raises(AssertionError, match="trace drift"):
            assert_same_events(trace_ref.canonical_lines(),
                               trace_soa.canonical_lines(),
                               "mailbox-order mutant")

    def test_oracle_passes_without_fault(self):
        """Control arm: the same comparison is clean when nothing is
        seeded (so the failure above is caused by the seeded bug)."""
        _, res_ref = run_once(Design.NORD, "uniform")
        _, res_soa = run_once(Design.NORD, "uniform", backend="soa")
        assert_identical(res_ref, res_soa, "control")


# ---------------------------------------------------------------------------
# the retained ``fast=`` keyword and the pinned-soa fallback warning
# ---------------------------------------------------------------------------

class TestDispatch:
    def test_fast_implies_soa(self):
        # bench/kernel.py's traced pass still passes fast=True.
        net = Network(small_config(Design.NORD), fast=True)
        assert type(net) is SoANetwork
        net = Network(small_config(Design.NORD), backend="soa", fast=True)
        assert type(net) is SoANetwork

    def test_explicit_ref_backend_rejected(self):
        with pytest.raises(ValueError, match="names the 'soa' kernel"):
            Network(small_config(Design.NORD), backend="ref", fast=True)

    def test_env_ref_backend_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "ref")
        with pytest.raises(ValueError, match="names the 'soa' kernel"):
            Network(small_config(Design.NORD), fast=True)

    def test_dense_scan_falls_back_to_reference(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_SKIP", "1")
        with pytest.warns(RuntimeWarning, match="dense scans"):
            net = Network(small_config(Design.NORD), backend="soa")
        assert type(net) is Network

    def test_fallback_warning_is_one_time(self):
        """The fallback warning names the forcing feature and, under
        Python's default filter, fires once per call site - a
        thousand-point sweep must not emit a thousand warnings."""
        with pytest.warns(RuntimeWarning,
                          match="does not support fault injection"):
            Network(small_config(Design.NORD), backend="soa",
                    fault_plan=FaultPlan())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            for _ in range(100):
                Network(small_config(Design.NORD), backend="soa",
                        fault_plan=FaultPlan())
        assert [str(w.message) for w in caught] == [
            "the 'soa' kernel does not support fault injection; falling "
            "back to the 'ref' kernel (result-identical)"]
