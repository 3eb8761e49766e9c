"""VC buffers, and the flat output-port boundary (credits, VC owners,
gating tags) that both kernels, the NIs and the power-transition code
index on the network."""

import pytest

from repro.config import Design, small_config
from repro.noc.buffer import InputPort, VCState, VirtualChannel
from repro.noc.flit import Packet
from repro.noc.network import Network
from repro.noc.topology import EAST, LOCAL, NUM_PORTS, WEST
from repro.powergate.controller import PowerState
from repro.traffic.base import ScriptedTraffic


def _flits(n=1, length=None):
    return Packet(0, 1, length or n, 0).make_flits()


class TestVirtualChannel:
    def test_starts_idle_and_empty(self):
        vc = VirtualChannel(0, 5)
        assert vc.state == VCState.IDLE
        assert vc.empty and not vc.full
        assert vc.front() is None

    def test_push_pop_fifo_order(self):
        vc = VirtualChannel(0, 5)
        flits = _flits(3)
        for f in flits:
            vc.push(f)
        assert [vc.pop() for _ in range(3)] == flits

    def test_overflow_raises(self):
        vc = VirtualChannel(0, 2)
        vc.push(_flits()[0])
        vc.push(_flits()[0])
        assert vc.full
        with pytest.raises(OverflowError, match="credit protocol"):
            vc.push(_flits()[0])

    def test_reset_route_with_buffered_head_returns_to_routing(self):
        vc = VirtualChannel(0, 5)
        vc.push(_flits()[0])
        vc.state = VCState.ACTIVE
        vc.route_port = 2
        vc.out_vc = 1
        vc.flits_sent = 0
        vc.reset_route()
        assert vc.state == VCState.ROUTING
        assert vc.route_port is None
        assert vc.out_vc is None
        assert vc.va_wait == 0

    def test_reset_route_empty_returns_to_idle(self):
        vc = VirtualChannel(0, 5)
        vc.state = VCState.WAITING_VA
        vc.reset_route()
        assert vc.state == VCState.IDLE


class TestInputPort:
    def test_has_requested_vcs(self):
        port = InputPort(0, 4, 5)
        assert len(port.vcs) == 4
        assert port.empty

    def test_occupancy_counts_all_vcs(self):
        """Occupancy is read through ``Network.buffered_vcs``: every
        non-empty VC of every input port, with its flit count."""
        net = Network(small_config(Design.NO_PG), backend="ref")
        port = net.routers[0].in_ports[0]
        port.vcs[0].push(_flits()[0])
        port.vcs[1].push(_flits()[0])
        port.vcs[1].push(_flits()[0])
        assert list(net.buffered_vcs(0)) == [(0, 0, 1), (0, 1, 2)]
        assert not port.empty


KERNELS = ("ref", "soa")


def _net(design, backend):
    return Network(small_config(design), backend=backend)


def _ring_credit_base(net, node):
    """Flat index of the first credit of ``node``'s ring output port."""
    return (node * NUM_PORTS + net.ring.outport[node]) * net._V


def _run_until(net, traffic, done, limit=60):
    for _ in range(limit):
        net._inject_arrivals(traffic)
        net.step()
        if done():
            return
    raise AssertionError("condition never reached")


def _ni_with_flit(net):
    """A NoRD node's NI and a head flit bound two hops down the ring."""
    node = net.ring.order[0]
    flit = Packet(node, net.ring.order[2], 1, 0).make_flits()[0]
    return net.nis[node], flit


def _starved_active_vc(backend):
    """Step a 5-flit packet 0 -> 3 until router 0 holds it ACTIVE toward
    a mesh port with a flit buffered, and empty that port's credit for
    the packet's VC.  Returns the network and the VC: ``(in_port,
    VirtualChannel)`` on ref, the flat VC id on soa."""
    net = _net(Design.NO_PG, backend)
    traffic = ScriptedTraffic([(1, 0, 3, 5)], 16)
    if backend == "soa":
        def ready():
            return [f for f in range(net._fpn)
                    if net._st[f] == VCState.ACTIVE and net._fifo[f]
                    and net._route[f] != LOCAL]
        _run_until(net, traffic, ready)
        f = ready()[0]
        net._credit[net._outc[f]] = 0
        return net, f
    router = net.routers[0]

    def ready():
        return [(p, vc) for p, port in enumerate(router.in_ports)
                for vc in port.vcs if vc.state == VCState.ACTIVE
                and vc.fifo and vc.route_port != LOCAL]
    _run_until(net, traffic, ready)
    p, vc = ready()[0]
    net._credit[vc.route_port * net._V + vc.out_vc] = 0
    return net, (p, vc)


class TestCreditCounter:
    """Credits live in ``Network._credit`` / ``_maxc`` at
    ``c = (node * NUM_PORTS + port) * V + vc``, the NI's LOCAL side in
    ``ni.local_credit``.  Every site that takes or returns a credit
    keeps the flow-control check the old counter object made, with the
    same message; each is driven here on each kernel that has it (the
    NI and transition code is one body both kernels run)."""

    def test_starts_full(self):
        for backend in KERNELS:
            net = _net(Design.NORD, backend)
            depth = net.cfg.noc.buffer_depth
            assert net._credit == net._maxc == [depth] * len(net._credit)
            assert len(net._credit) == (net.mesh.num_nodes * NUM_PORTS
                                        * net._V)
            for ni in net.nis:
                assert ni.local_credit == [depth] * net._V

    def test_consume_restore_cycle(self):
        """A one-flit packet 0 -> 1 takes one credit of router 0's EAST
        port when it crosses and gets it back once router 1 frees the
        slot."""
        for backend in KERNELS:
            net = _net(Design.NO_PG, backend)
            traffic = ScriptedTraffic([(1, 0, 1, 1)], 16)
            base = EAST * net._V
            full = net.cfg.noc.buffer_depth * net._V
            seen = []
            for _ in range(30):
                net._inject_arrivals(traffic)
                net.step()
                seen.append(sum(net._credit[base:base + net._V]))
            assert min(seen) == full - 1, backend
            assert seen[-1] == full, backend

    def test_underflow_raises(self):
        """The reference router traversal, the NI ring forward and ring
        inject and the NI LOCAL inject all refuse to take a credit that
        is not there."""
        for backend in KERNELS:
            for site, run in _underflow_sites(backend):
                with pytest.raises(RuntimeError, match=(
                        "^credit underflow: flow control violated$")):
                    run()
                    pytest.fail(f"{backend} {site} took a missing credit")

    def test_soa_sa_skips_a_missing_credit(self):
        """soa's SA does not pick a VC whose credit is gone, so the
        router phase leaves its flit buffered and the counter at 0."""
        net, f = _starved_active_vc("soa")
        buffered = len(net._fifo[f])
        net._phase_routers(net.now)
        assert len(net._fifo[f]) == buffered
        assert net._credit[net._outc[f]] == 0

    def test_overflow_raises(self):
        """The credit phase and the LOCAL-side return both refuse to
        push a counter past its limit."""
        for backend in KERNELS:
            net = _net(Design.NO_PG, backend)
            # router 1's WEST input returns a credit to router 0's EAST
            net.credit_upstream(1, WEST, 0, net.now)
            with pytest.raises(RuntimeError, match=(
                    "^credit overflow: flow control violated$")):
                for _ in range(3):
                    net.step()
                pytest.fail(f"{backend} credit phase passed the limit")
            with pytest.raises(RuntimeError, match=(
                    "^credit overflow: flow control violated$")):
                _net(Design.NO_PG, backend).credit_upstream(5, LOCAL, 2, 0)

    def test_set_limit_clamps(self):
        """NoRD: while a router is gated off, its ring predecessor sees
        only the bypass-latch slots of each VC (Section 4.3)."""
        for backend in KERNELS:
            net = _net(Design.NORD, backend)
            for _ in range(40):  # an idle network gates every router off
                net.step()
            limit = net.cfg.pg.bypass_depth
            assert limit < net.cfg.noc.buffer_depth
            ring = net.ring
            for node in range(net.mesh.num_nodes):
                assert net.controllers[node].state == PowerState.OFF
                c0 = _ring_credit_base(net, ring.predecessor[node])
                assert net._maxc[c0:c0 + net._V] == [limit] * net._V
                assert net._credit[c0:c0 + net._V] == [limit] * net._V

    def test_set_limit_preserves_lower_count(self):
        """The clamp never meets a counter below its limit: gating with
        a ring credit still out is a handshake violation."""
        for backend in KERNELS:
            net = _net(Design.NORD, backend)
            node = net.ring.order[5]
            net._credit[_ring_credit_base(net, net.ring.predecessor[node])
                        + 1] -= 1
            with pytest.raises(RuntimeError, match="unaccounted credits"):
                net._on_nord_gate_off(node)


class TestOutputPort:
    """VC owners, gating and failure tags: per output port
    ``o = node * NUM_PORTS + port`` on the network."""

    def test_free_vcs(self):
        """The NI's ring plan takes the first adaptive VC no packet
        owns, reading the network's live owner list."""
        for backend in KERNELS:
            net = _net(Design.NORD, backend)
            ni, flit = _ni_with_flit(net)
            ni.inject_queue.append(flit)
            first = net.cfg.escape_vcs
            assert ni._plan_inject_ring() == ("ring", first, True, False)
            net._owner[ni.node * NUM_PORTS + ni._ring_out][first] = 77
            assert ni._plan_inject_ring() == ("ring", first + 1, True,
                                              False)

    def test_idle_tracks_ownership(self):
        """VA writes the packet id as owner of the granted VC; the tail
        leaving the downstream router releases it."""
        for backend in KERNELS:
            net = _net(Design.NO_PG, backend)
            traffic = ScriptedTraffic([(1, 0, 3, 5)], 16)
            mine = net._owner[:NUM_PORTS]  # router 0's output ports
            _run_until(net, traffic, lambda: any(
                o is not None for own in mine for o in own))
            assert [o for own in mine for o in own if o is not None] == [0]
            for _ in range(60):
                net.step()
            assert net.outstanding_flits == 0
            assert all(o is None for own in net._owner for o in own)
            assert all(o is None for ni in net.nis for o in ni.local_owner)

    def test_reset_credits_full(self):
        """Waking up recounts the ring predecessor's clamped credits
        from ground truth, back to the full buffer depth."""
        for backend in KERNELS:
            net = _net(Design.NORD, backend)
            node = net.ring.order[5]
            c0 = _ring_credit_base(net, net.ring.predecessor[node])
            net._on_nord_gate_off(node)
            assert net._maxc[c0] == net.cfg.pg.bypass_depth
            for vc in range(net._V):
                net._restore_pred_credit(node, vc)
            depth = net.cfg.noc.buffer_depth
            assert net._maxc[c0:c0 + net._V] == [depth] * net._V
            assert net._credit[c0:c0 + net._V] == [depth] * net._V

    def test_gated_flag_default_false(self):
        """No port starts gated or failed; a conventional gate-off tags
        exactly the ports that lead to the gated router."""
        for backend in KERNELS:
            net = _net(Design.CONV_PG, backend)
            assert not any(net._gated) and not any(net._failed)
            net._on_conv_gate_off(5)
            leads_to_5 = [o for o in range(len(net._gated))
                          if o % NUM_PORTS != LOCAL and net.mesh.neighbor(
                              o // NUM_PORTS, o % NUM_PORTS) == 5]
            assert [o for o, g in enumerate(net._gated) if g] == leads_to_5
            assert not any(net._failed)


def _underflow_sites(backend):
    """(site, thunk) pairs, each thunk taking a credit that is at 0.
    soa has no router-traversal site: its one traversal runs only SA's
    winners (``TestCreditCounter.test_soa_sa_skips_a_missing_credit``)."""
    if backend == "ref":
        net, (p, vc) = _starved_active_vc(backend)
        yield "router traversal", (
            lambda: net.routers[0]._traverse(vc, p, net.now))
    net = _net(Design.NORD, backend)
    ni, flit = _ni_with_flit(net)
    ni.latch_write(2, flit)
    net._credit[ni._ring_c + 2] = 0
    yield "NI ring forward", lambda: ni._commit_forward(
        2, ("ring", 2, True, False), net.now)
    for path, vc in (("ring", 3), ("router", 1)):
        net = _net(Design.NORD, backend)
        ni, flit = _ni_with_flit(net)
        ni.inject_queue.append(flit)
        if path == "ring":
            net._credit[ni._ring_c + vc] = 0
        else:
            ni.local_credit[vc] = 0
        yield f"NI {path} inject", (
            lambda ni=ni, vc=vc, path=path, now=net.now:
            ni._commit_injection((path, vc, True, False), now))
