"""Power-gating integration: handshakes, tags, transitions, NoRD bypass."""

import dataclasses

import pytest

from repro.config import Design, small_config
from repro.noc.network import Network
from repro.noc.topology import NUM_PORTS, OPPOSITE
from repro.powergate.controller import PowerState
from repro.powergate.nord import NoRDController
from repro.traffic.base import NullTraffic, ScriptedTraffic
from repro.traffic.synthetic import uniform_random


def make_net(design, **kw):
    return Network(small_config(design, **kw))


def settle(net, cycles):
    for _ in range(cycles):
        net.step()


class TestConventionalHandshake:
    def test_neighbors_tag_gated_ports(self):
        net = make_net(Design.CONV_PG)
        settle(net, 20)  # idle network: everything gates off
        for node in range(16):
            assert net.controllers[node].state == PowerState.OFF
            for port, nbr in net.mesh.neighbors(node):
                assert net._gated[nbr * NUM_PORTS + OPPOSITE[port]]

    def test_tags_cleared_after_wake(self):
        net = make_net(Design.CONV_PG)
        traffic = ScriptedTraffic([(30, 5, 6, 1)], 16)
        for _ in range(120):
            net._inject_arrivals(traffic)
            net.step()
        # routers 5 and 6 woke for the packet; after it drained they gate
        # again, but mid-flight the tags must have been dropped.  By now the
        # packet has long been delivered.
        assert net.outstanding_flits == 0

    def test_injection_wakes_own_router(self):
        net = make_net(Design.CONV_PG)
        settle(net, 20)
        assert net.controllers[5].state == PowerState.OFF
        net.inject_packet(5, 6, 1)
        woke_at = None
        for cycle in range(60):
            net.step()
            if net.controllers[5].state == PowerState.ON:
                woke_at = cycle
                break
        assert woke_at is not None

    def test_packet_waits_roughly_wakeup_latency_per_gated_router(self):
        net = make_net(Design.CONV_PG)
        settle(net, 20)
        pkt = net.inject_packet(0, 1, 1)
        for _ in range(200):
            net.step()
            if pkt.ejected_cycle is not None:
                break
        assert pkt.ejected_cycle is not None
        # must wake router 0 (for injection) and router 1 (for ejection):
        # latency far above the 12-cycle no-pg number.
        assert pkt.latency >= 12 + 12

    def test_opt_hides_some_wakeup_latency(self):
        lats = {}
        for design in (Design.CONV_PG, Design.CONV_PG_OPT):
            net = make_net(design)
            settle(net, 20)
            pkt = net.inject_packet(0, 15, 1)
            for _ in range(400):
                net.step()
                if pkt.ejected_cycle is not None:
                    break
            lats[design] = pkt.latency
        assert lats[Design.CONV_PG_OPT] <= lats[Design.CONV_PG]


class TestNoRDBypass:
    def test_all_off_network_still_connected(self):
        """The disconnection problem is eliminated: with every router
        forced off, any node can still reach any other over the ring."""
        net = make_net(Design.NORD)
        for ctrl in net.controllers:
            ctrl.force_off = True
        settle(net, 30)
        assert all(c.state == PowerState.OFF for c in net.controllers)
        pkts = [net.inject_packet(src, (src + 5) % 16, 1)
                for src in range(16)]
        for _ in range(600):
            net.step()
        assert all(p.ejected_cycle is not None for p in pkts)
        # nothing ever woke
        assert all(c.state == PowerState.OFF for c in net.controllers)
        assert sum(c.wakeups for c in net.controllers) == 0

    def test_bypass_hop_is_cheaper_than_router_hop(self):
        """A hop through an off router's bypass takes 3 cycles vs 5."""
        net = make_net(Design.NORD)
        for ctrl in net.controllers:
            ctrl.force_off = True
        settle(net, 30)
        ring = net.ring
        src = ring.order[0]
        dst = ring.order[3]  # three ring hops away
        pkt = net.inject_packet(src, dst, 1)
        for _ in range(120):
            net.step()
            if pkt.ejected_cycle is not None:
                break
        # injection (2 cycles: NI + reinject-LT shares bypass timing) +
        # per-hop 3 cycles + final eject through the latch.
        assert pkt.ejected_cycle is not None
        assert pkt.latency < 2 + 5 * 4  # strictly better than all-on route
        assert pkt.bypass_hops >= 2

    def test_multiflt_packet_through_bypass(self):
        net = make_net(Design.NORD)
        for ctrl in net.controllers:
            ctrl.force_off = True
        settle(net, 30)
        pkt = net.inject_packet(net.ring.order[1], net.ring.order[6], 5)
        for _ in range(400):
            net.step()
            if pkt.ejected_cycle is not None:
                break
        assert pkt.ejected_cycle is not None

    def test_stalled_requests_wake_power_centric_router(self):
        net = make_net(Design.NORD)
        for ctrl in net.controllers:
            ctrl.min_idle_before_gate = 1
        settle(net, 30)
        # Flood one ring segment so NI requests stall and cross thresholds.
        ring = net.ring
        hot = ring.order[8]
        for burst in range(12):
            net.inject_packet(ring.predecessor[hot], ring.successor[hot], 5)
        woke = False
        for _ in range(200):
            net.step()
            if any(c.state != PowerState.OFF for c in net.controllers):
                woke = True
                break
        assert woke

    def test_wakeup_does_not_lose_flits(self):
        """Packets in flight across a sleep->wake transition all arrive."""
        cfg = small_config(Design.NORD)
        cfg = cfg.replace(pg=dataclasses.replace(cfg.pg, nord_min_idle=1))
        net = Network(cfg)
        traffic = uniform_random(net.mesh, 0.15, seed=11)
        for _ in range(800):
            net._inject_arrivals(traffic)
            net.step()
        for _ in range(2000):
            if net.outstanding_flits == 0:
                break
            net.step()
        assert net.outstanding_flits == 0

    def test_lingering_vcs_eventually_clear(self):
        cfg = small_config(Design.NORD)
        cfg = cfg.replace(pg=dataclasses.replace(cfg.pg, nord_min_idle=1))
        net = Network(cfg)
        traffic = uniform_random(net.mesh, 0.2, seed=3)
        for _ in range(600):
            net._inject_arrivals(traffic)
            net.step()
        for _ in range(2000):
            if net.outstanding_flits == 0:
                break
            net.step()
        settle(net, 50)
        for ni in net.nis:
            assert not ni.lingering
            assert ni.latches_empty

    def test_nord_wakeups_much_rarer_than_conv(self):
        """The headline Figure 9(b) property at a smoke scale."""
        wakeups = {}
        for design in (Design.CONV_PG, Design.NORD):
            cfg = small_config(design, warmup=200, measure=1500)
            net = Network(cfg)
            res = net.run(uniform_random(net.mesh, 0.08, seed=5))
            wakeups[design] = res.total_wakeups
        assert wakeups[Design.NORD] < 0.5 * wakeups[Design.CONV_PG]

    def test_threshold_policy_assigns_paper_classes(self):
        net = make_net(Design.NORD)
        perf = {n for n, c in enumerate(net.controllers)
                if isinstance(c, NoRDController) and c.threshold == 1}
        assert perf == {4, 5, 6, 7, 13, 14}

    def test_starvation_priority_lets_local_node_inject(self):
        """Local injection cannot be starved forever by bypass traffic."""
        net = make_net(Design.NORD)
        for ctrl in net.controllers:
            ctrl.force_off = True
        settle(net, 30)
        ring = net.ring
        victim = ring.order[4]
        # continuous through-traffic over the victim's NI
        feeder = ring.order[0]
        for i in range(30):
            net.inject_packet(feeder, ring.order[8], 5)
        pkt = net.inject_packet(victim, ring.order[8], 1)
        for _ in range(1500):
            net.step()
            if pkt.ejected_cycle is not None:
                break
        assert pkt.ejected_cycle is not None
