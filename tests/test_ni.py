"""Focused network-interface tests (injection paths, latches, metric)."""

import pytest

from repro.config import Design, small_config
from repro.noc.flit import Packet
from repro.noc.network import Network
from repro.powergate.controller import PowerState


def nord_net():
    return Network(small_config(Design.NORD))


def all_off(net):
    for ctrl in net.controllers:
        ctrl.force_off = True
    for _ in range(30):
        net.step()


class TestLatch:
    def test_latch_write_and_overflow(self):
        net = nord_net()
        ni = net.nis[5]
        depth = net.cfg.pg.bypass_depth
        flits = Packet(0, 9, depth + 1, 0).make_flits()
        for f in flits[:depth]:
            ni.latch_write(net, 2, f)
        assert not ni.latches_empty
        with pytest.raises(RuntimeError, match="overflow"):
            ni.latch_write(net, 2, flits[depth])

    def test_latches_empty_initially(self):
        net = nord_net()
        assert all(ni.latches_empty for ni in net.nis)


class TestInjectionPaths:
    def test_inject_via_router_when_on(self):
        net = nord_net()  # routers start ON
        pkt = net.inject_packet(5, 6, 1)
        net.step()
        net.step()
        assert net.nis[5].n_injected_flits == 1
        assert pkt.injected_cycle is not None

    def test_inject_via_ring_when_off(self):
        net = nord_net()
        all_off(net)
        src = net.ring.order[0]
        net.inject_packet(src, net.ring.order[4], 1)
        for _ in range(5):
            net.step()
        # no flit may have entered the router's LOCAL port
        assert net._nbw[src] == 0 and not net._inj_due
        assert net.nis[src].n_injected_flits == 1

    def test_mid_packet_path_is_sticky(self):
        """A packet that started injecting via the ring finishes via the
        ring even if the router wakes mid-way (Section 4.3 hand-over)."""
        net = nord_net()
        all_off(net)
        src = net.ring.order[0]
        net.inject_packet(src, net.ring.order[5], 5)
        for _ in range(3):
            net.step()
        assert net.nis[src].inj_path == "ring"
        # force the router awake mid-packet
        net.controllers[src].force_off = False
        net.controllers[src].state = PowerState.ON
        net._on_nord_wake(src)
        for _ in range(3):
            net.step()
        if net.nis[src].inj_sent < 5:
            assert net.nis[src].inj_path == "ring"

    def test_vc_request_counter_increments_on_stall(self):
        net = nord_net()
        all_off(net)
        src = net.ring.order[0]
        before = net.nis[src].n_vc_requests
        net.inject_packet(src, net.ring.order[3], 1)
        for _ in range(4):
            net.step()
        assert net.nis[src].n_vc_requests >= before + 1


class TestConventionalNI:
    def test_conv_ni_holds_packets_while_router_off(self):
        net = Network(small_config(Design.CONV_PG))
        for _ in range(20):
            net.step()
        assert net.controllers[3].state == PowerState.OFF
        net.inject_packet(3, 4, 1)
        net.step()
        assert net.nis[3].n_injected_flits == 0  # waiting for wakeup
        assert net.nis[3].inject_pending


class TestEjection:
    def test_bypass_ejection_sinks_local_packets(self):
        net = nord_net()
        all_off(net)
        dst = net.ring.order[6]
        src = net.ring.predecessor[dst]
        pkt = net.inject_packet(src, dst, 1)
        for _ in range(30):
            net.step()
            if pkt.ejected_cycle is not None:
                break
        assert pkt.ejected_cycle is not None
        assert net.nis[dst].n_ejected_flits == 1

    def test_multiflit_bypass_ejection_in_order(self):
        net = nord_net()
        all_off(net)
        dst = net.ring.order[6]
        src = net.ring.predecessor[dst]
        pkt = net.inject_packet(src, dst, 5)
        for _ in range(80):
            net.step()
            if pkt.ejected_cycle is not None:
                break
        assert pkt.ejected_cycle is not None
        assert net.nis[dst].n_ejected_flits == 5
        assert not net.nis[dst].eject_mid
