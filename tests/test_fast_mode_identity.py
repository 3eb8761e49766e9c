"""Differential harness for the SoA kernel's batched commit paths.

The SoA kernel (DESIGN.md section 9) batches credit returns, link
traversals and single-candidate allocator commits as flat passes over
the SoA lists, replaying the reference visit order only for contended
rounds.  The result must stay :class:`RunResult` field-identical to the
reference kernel for every configuration it serves.

Four layers of evidence live here:

* a golden matrix (every design x every traffic kind; three requests -
  ``ref`` pinned, ``soa`` pinned, and the unpinned default),
* a hypothesis differential over random (design, kind, rate, seed,
  fault plan), comparing the two kernels' event traces as well, and
  one that draws only wakeup-fault plans on the gating designs, so
  slow and stuck wakeups are reached by strategy, not by chance,
* flit/credit conservation checked directly in the flat lists and the
  mailboxes while a run is in flight, and
* oracle self-tests: a deliberately broken VA commit, a disjoint VA
  round committing the wrong preference, a clash-free SA round
  skipping its output-pointer writes, a power-gate promotion blind to
  WU edges and an aggressive-bypass send booked a cycle late must each
  make the differential harness fail, proving the harness has teeth;
  flits delivered in mailbox order rather than link order must fail
  the trace differential while passing the RunResult one.  Four fault
  mutants - credit loss drawn in mailbox order, an SA that stalls at a
  failed port instead of dropping, a fail-armed controller demoted as
  if quiescent, a NoRD controller counted quiescent while it holds WU
  cycles toward a slow wakeup - must fail the faulted RunResult one.
  Both kernels step the one power-gate FSM, so a mutant of the step
  would change both sides alike; these mutants change what only soa
  does, deciding which controllers to skip.  The reference scans
  every component, so mutants of the skip bookkeeping - an NI latch
  that does not activate its NI, a buffer write that does not
  activate its router, a quiescent controller settled one cycle long
  - must fail it too.

The file predates the kernel merge (the "fast mode" it names *is* the
soa kernel now) and keeps its name and test ids only because the tier-1
floor tracks tests by id; new kernel-identity tests go to
tests/test_kernel_identity.py, whose differential helpers this file
uses.  The ``fast=`` keyword tests at the end
cover the keyword ``Network`` still accepts (and ignores) for the
frozen benchmark.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.config import Design, small_config
from repro.errors import SimulationHang
from repro.faults import FaultPlan, WakeupFault
from repro.noc import soa
from repro.noc.activity import ActiveSet
from repro.noc.network import Network, RunProgress
from repro.noc.ref import RefNetwork
from repro.noc.soa import SoANetwork
from repro.noc.topology import NUM_PORTS, OPPOSITE, LOCAL
from repro.powergate.controller import PowerState
from repro.powergate.nord import NoRDController
from repro.trace.recorder import EventTrace
from repro.traffic.synthetic import uniform_random
from tests.test_kernel_identity import assert_identical, run_once
from tests.tracediff import assert_same_events

#: The golden matrix's traffic kinds.
KINDS = ("bitcomp", "tornado", "transpose", "uniform")


class TestGoldenMatrix:
    """ref == soa == the unpinned default, for every design x kind."""

    @pytest.mark.parametrize("design", Design.ALL)
    @pytest.mark.parametrize("kind", KINDS)
    def test_three_kernels_agree(self, design, kind):
        # Three *requests*: the third is what an untagged run gets.
        net_ref, res_ref = run_once(design, kind, backend="ref")
        net_soa, res_soa = run_once(design, kind, backend="soa")
        net_dflt, res_dflt = run_once(design, kind, backend=None)
        assert type(net_ref) is RefNetwork
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


#: Random fault plans on the 4x4 mesh: none, a router hard-fail, noisy
#: links (credit loss included), or a stuck/slow wakeup.
_NODE = st.integers(min_value=0, max_value=15)
_RATE = st.floats(min_value=0.0, max_value=0.02)
RANDOM_PLANS = st.one_of(
    st.none(),
    st.builds(FaultPlan.single_router_failure, _NODE,
              st.integers(min_value=0, max_value=200)),
    st.builds(FaultPlan.uniform_link_noise, corrupt_rate=_RATE,
              drop_rate=_RATE, credit_loss_rate=_RATE,
              seed=st.integers(min_value=0, max_value=99),
              retransmit=st.booleans(), retransmit_timeout=st.just(100)),
    st.builds(lambda node, delay, ignore: FaultPlan(wakeup_faults=(
        WakeupFault(node, delay=delay, ignore=ignore),)),
        _NODE, st.integers(min_value=0, max_value=40), st.booleans()))


#: Wakeup-fault plans only: one to three faulty nodes, each honouring WU
#: only once it has been asserted for more than 1-40 cycles, or never.
WAKEUP_PLANS = st.lists(
    st.builds(WakeupFault, _NODE,
              delay=st.integers(min_value=1, max_value=40),
              ignore=st.booleans()),
    min_size=1, max_size=3, unique_by=lambda fault: fault.node,
).map(lambda faults: FaultPlan(wakeup_faults=tuple(faults)))


def slow_wakeup(node, delay):
    """A plan whose only fault: ``node`` honours WU only once it has
    been asserted for more than ``delay`` cycles in a row."""
    return FaultPlan(wakeup_faults=(WakeupFault(node, delay=delay),))


def outcome(design, kind, backend, trace, plan, **kwargs):
    """A run's result, or - when a fault plan's lost credits wedge it -
    its error (which must be the same on both kernels)."""
    try:
        return run_once(design, kind, backend=backend, trace=trace,
                        plan=plan, **kwargs)[1]
    except (RuntimeError, SimulationHang) as err:
        if plan is None:
            raise
        return f"{type(err).__name__}: {err}"


class TestHypothesisDifferential:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(design=st.sampled_from(Design.ALL),
           kind=st.sampled_from(KINDS),
           rate=st.floats(min_value=0.01, max_value=0.3),
           seed=st.integers(min_value=0, max_value=2**16),
           plan=RANDOM_PLANS)
    # NoRD slow-wakeup points where a controller once left soa's
    # active set holding WU cycles (``_wu_held``) that the reference's
    # next idle step resets, so the kernels disagreed.
    @example(design=Design.NORD, kind="bitcomp", rate=0.23830167501694166,
             seed=268, plan=slow_wakeup(13, 14))
    @example(design=Design.NORD, kind="bitcomp", rate=0.05856638913073688,
             seed=33451, plan=slow_wakeup(5, 18))
    @example(design=Design.NORD, kind="tornado", rate=0.0849420416469938,
             seed=33221, plan=slow_wakeup(6, 39))
    @example(design=Design.NORD, kind="uniform", rate=0.031226091461381077,
             seed=19310, plan=slow_wakeup(4, 22))
    def test_random_point_identity(self, design, kind, rate, seed, plan):
        self.assert_kernels_agree(design, kind, rate, seed, plan)

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(design=st.sampled_from((Design.NORD, Design.CONV_PG,
                                   Design.CONV_PG_OPT)),
           kind=st.sampled_from(KINDS),
           rate=st.floats(min_value=0.01, max_value=0.3),
           seed=st.integers(min_value=0, max_value=2**16),
           plan=WAKEUP_PLANS)
    # The point the ``wide`` profile found for a soa kernel that demotes
    # a controller holding WU cycles (total_wakeup_stalls 100 != 99).
    @example(design=Design.CONV_PG_OPT, kind="bitcomp", rate=0.2734375,
             seed=0, plan=slow_wakeup(0, 1))
    def test_random_wakeup_fault_identity(self, design, kind, rate, seed,
                                          plan):
        """Slow and stuck wakeups, drawn on purpose: the designs that
        gate, every draw a wakeup-fault plan."""
        self.assert_kernels_agree(design, kind, rate, seed, plan)

    @staticmethod
    def assert_kernels_agree(design, kind, rate, seed, plan):
        trace_ref, trace_soa = EventTrace(), EventTrace()
        res_ref = outcome(design, kind, "ref", trace_ref, plan, rate=rate,
                          seed=seed, warmup=40, measure=200)
        res_soa = outcome(design, kind, "soa", trace_soa, plan, rate=rate,
                          seed=seed, warmup=40, measure=200)
        label = f"{design}/{kind} rate={rate} seed={seed} plan={plan}"
        if isinstance(res_ref, str) or isinstance(res_soa, str):
            assert res_ref == res_soa, label
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
    total += (len(net._flit_box) + len(net._flit_mid)
              + len(net._flit_due))
    total += len(net._inj_box) + len(net._inj_due)
    total += len(net._ej_box) + len(net._ej_mid) + len(net._ej_due)
    for ni in net.nis:
        total += sum(len(q) for q in ni.latch)
    return total


def _check_credit_books(net, design):
    """The flow-control invariant, per (output port, vc): credits held
    upstream + flits in flight (mail) + credit returns in flight (mail)
    + flits buffered (or latched) downstream add up to the buffer
    depth."""
    v_per = net._V
    ring = net.ring
    for node in range(net.mesh.num_nodes):
        for port in range(NUM_PORTS):
            if port == LOCAL:
                continue
            o = node * NUM_PORTS + port
            down = net._up_node[o]
            if down < 0:
                continue
            in_port = OPPOSITE[port]
            is_ring_in = (design == Design.NORD
                          and ring.inport[down] == in_port)
            for vc in range(v_per):
                c = o * v_per + vc
                held = net._credit[c]
                assert 0 <= held <= net._maxc[c], (
                    f"credit counter {c} out of range: {held}")
                flits = sum(1 for box in (net._flit_box, net._flit_mid,
                                          net._flit_due)
                            for e in box if e[0] == o and e[3] == vc)
                creds = sum(1 for box in (net._credit_box,
                                          net._credit_due)
                            for cc in box if cc == c)
                buffered = len(net._fifo[(down * NUM_PORTS + in_port)
                                         * v_per + vc])
                latched = (len(net.nis[down].latch[vc])
                           if is_ring_in else 0)
                total = held + flits + creds + buffered + latched
                assert total == net._maxc[c], (
                    f"credit conservation broken on link {node}->"
                    f"{down} port {port} vc {vc}: held={held} "
                    f"flits={flits} creds={creds} buf={buffered} "
                    f"latch={latched} != {net._maxc[c]}")


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
            won = orig(self, node, noms, now)
            for r, last in kept:
                sa_out[r]._last = last
            return won

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

        def no_wu_edges(self, now):
            nonlocal ignored
            ignored += sum(1 for node in self._wu_now
                           if node in self._pg_quiescent
                           and not self.nis[node].inject_pending)
            wu_now, self._wu_now = self._wu_now, set()
            try:
                orig(self, now)
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

    def test_credit_loss_in_mailbox_order_is_caught(self, monkeypatch):
        """Mutant: credit loss is drawn in mailbox (send) order instead
        of the reference's link order, so other credits are lost."""
        class MailboxOrder(list):
            def sort(self, **kwargs):
                pass  # the mutant: no link sort

        orig = SoANetwork._phase_credits

        def unsorted(self, now):
            self._credit_due = MailboxOrder(self._credit_due)
            orig(self, now)

        plan = FaultPlan.uniform_link_noise(credit_loss_rate=0.02, seed=5)
        _, res_ref = run_once(Design.CONV_PG, "uniform", drain=0, plan=plan)
        monkeypatch.setattr(SoANetwork, "_phase_credits", unsorted)
        _, res_soa = run_once(Design.CONV_PG, "uniform", drain=0,
                              backend="soa", plan=plan)
        assert res_ref.credits_lost > 0
        with pytest.raises(AssertionError, match="kernel drift"):
            assert_identical(res_ref, res_soa, "credit-loss order mutant")

    def test_sa_stalling_at_failed_port_is_caught(self, monkeypatch):
        """Mutant: SA stalls a packet routed to a hard-failed router (as
        at a gated one) instead of dropping it."""
        stalls = 0
        orig = SoANetwork._sa_gated

        def stall(self, f, node, now):
            nonlocal stalls
            failed = self._failed
            stalls += failed[self._outo[f]]
            self._failed = [False] * len(failed)  # the mutant: blind
            try:
                orig(self, f, node, now)
            finally:
                self._failed = failed

        plan = FaultPlan.single_router_failure(5, 60)
        _, res_ref = run_once(Design.CONV_PG, "uniform", drain=0, plan=plan)
        monkeypatch.setattr(SoANetwork, "_sa_gated", stall)
        _, res_soa = run_once(Design.CONV_PG, "uniform", drain=0,
                              backend="soa", plan=plan)
        assert stalls > 0, "no packet met the failed port"
        with pytest.raises(AssertionError, match="kernel drift"):
            assert_identical(res_ref, res_soa, "failed-port stall mutant")

    def test_fail_armed_demotion_is_caught(self, monkeypatch):
        """Mutant: the PG phase demotes a fail-armed controller as if it
        were quiescent, though its idle step is never a no-op (it fails
        at the first clean flit boundary)."""
        armed = 0
        orig = SoANetwork._phase_pg

        def demote_armed(self, now):
            nonlocal armed
            orig(self, now)
            for node in self._pg_active.sorted():
                if self.controllers[node].fail_armed:
                    armed += 1
                    self._pg_active.discard(node)
                    self._pg_quiescent[node] = now

        plan = FaultPlan.single_router_failure(5, 60)
        _, res_ref = run_once(Design.CONV_PG, "uniform", drain=0, plan=plan)
        monkeypatch.setattr(SoANetwork, "_phase_pg", demote_armed)
        _, res_soa = run_once(Design.CONV_PG, "uniform", drain=0,
                              backend="soa", plan=plan)
        assert armed > 0, "no controller was fail-armed"
        with pytest.raises(AssertionError, match="kernel drift"):
            assert_identical(res_ref, res_soa, "fail-armed demotion mutant")

    def test_demotion_ignoring_held_wu_is_caught(self, monkeypatch):
        """Mutant: a gated-off NoRD controller counts as quiescent once
        its VC-request window is empty, though it holds WU cycles toward
        a slow wakeup (``_wu_held``) that the reference's next idle step
        resets - the rule the soa kernel demoted and promoted by before
        the controller declared ``idle_step_is_noop``.  Only soa asks
        the predicate; the reference steps every controller."""
        held = 0

        def ignore_held(self):
            nonlocal held
            if self.state == PowerState.OFF and not self.window_requests:
                held += bool(self._wu_held)
                return True
            return False

        point = dict(rate=0.23830167501694166, seed=268, warmup=40,
                     measure=200, plan=slow_wakeup(13, 14))
        _, res_ref = run_once(Design.NORD, "bitcomp", **point)
        monkeypatch.setattr(NoRDController, "idle_step_is_noop", ignore_held)
        _, res_soa = run_once(Design.NORD, "bitcomp", backend="soa",
                              **point)
        assert held > 0, "no controller held WU cycles on an empty window"
        with pytest.raises(AssertionError, match="kernel drift"):
            assert_identical(res_ref, res_soa, "held-WU demotion mutant")

    @staticmethod
    def assert_caught(design, kind, label, **kwargs):
        """The differential fails on the mutated default kernel: its
        RunResult drifts from the dense reference, or it loses track of
        flits and wedges."""
        _, res_ref = run_once(design, kind, **kwargs)
        try:
            _, res_soa = run_once(design, kind, backend="soa", **kwargs)
        except SimulationHang:
            return
        with pytest.raises(AssertionError, match="kernel drift"):
            assert_identical(res_ref, res_soa, label)

    def test_unactivated_latch_is_caught(self, monkeypatch):
        """Mutant: a bypass-latch write does not put its NI into the
        activity set, so a gated-off router's NI may not forward."""
        latched = 0

        def dead_hook(self, node):
            nonlocal latched
            latched += 1

        monkeypatch.setattr(SoANetwork, "note_ni_latched", dead_hook)
        self.assert_caught(Design.NORD, "uniform", "dead latch hook")
        assert latched > 0, "no flit was latched"

    def test_unactivated_router_is_caught(self, monkeypatch):
        """Mutant: a buffer write does not put its router into the
        activity set, so its busy edges go unrecorded."""
        class NoAdd(ActiveSet):
            def add(self, node):
                pass  # the mutant: the activation is dropped

        orig = SoANetwork._build_datapath

        def build(self):
            orig(self)
            self._active_routers = NoAdd()

        monkeypatch.setattr(SoANetwork, "_build_datapath", build)
        self.assert_caught(Design.NORD, "uniform", "dead router activation")

    def test_leave_quiescence_off_by_one_is_caught(self, monkeypatch):
        """Mutant: a controller leaving quiescence is credited one
        ``cycles_off`` too many.  Both kernels shared this method while
        the reference skipped too, so the differential could not see
        it; the dense reference steps every controller every cycle."""
        left = 0
        orig = SoANetwork._leave_quiescence

        def one_long(self, node, now):
            nonlocal left
            left += 1
            orig(self, node, now)
            self.controllers[node].cycles_off += 1  # the deliberate bug

        monkeypatch.setattr(SoANetwork, "_leave_quiescence", one_long)
        self.assert_caught(Design.CONV_PG, "uniform", "one-long settle",
                           rate=0.03)
        assert left > 0, "no controller left quiescence"

    def test_oracle_passes_without_fault(self):
        """Control arm: the same comparison is clean when nothing is
        seeded (so the failure above is caused by the seeded bug)."""
        _, res_ref = run_once(Design.NORD, "uniform")
        _, res_soa = run_once(Design.NORD, "uniform", backend="soa")
        assert_identical(res_ref, res_soa, "control")


# ---------------------------------------------------------------------------
# the retained ``fast=`` keyword
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
