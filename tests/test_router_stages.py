"""Router pipeline-stage behavior, exercised through a tiny live network."""

import pytest

from repro.config import Design, small_config
from repro.noc.buffer import VCState
from repro.noc.network import Network
from repro.noc.topology import EAST, LOCAL, WEST
from repro.traffic.base import ScriptedTraffic


def stepped_network(design=Design.NO_PG, events=(), cycles=0):
    # These tests read the reference router's per-stage VC state.
    net = Network(small_config(design), backend="ref")
    traffic = ScriptedTraffic(events, 16)
    for _ in range(cycles):
        net._inject_arrivals(traffic)
        net.step()
    return net


class TestRC:
    def test_head_flit_routes_one_cycle_after_arrival(self):
        net = stepped_network(events=[(1, 0, 3, 1)], cycles=5)
        # cycle 2: NI moved flit; delivered cycle 3; RC cycle 4
        vc = next(vc for port in net.routers[0].in_ports
                  for vc in port.vcs if vc.fifo or vc.state != VCState.IDLE)
        assert vc.state in (VCState.WAITING_VA, VCState.ACTIVE)

    def test_route_is_minimal_for_no_pg(self):
        net = stepped_network(events=[(1, 0, 3, 1)], cycles=4)
        vc = next(vc for port in net.routers[0].in_ports
                  for vc in port.vcs if vc.state == VCState.WAITING_VA)
        assert vc.adaptive_ports == [EAST]


class TestVA:
    def test_allocation_sets_owner_and_state(self):
        net = stepped_network(events=[(1, 0, 3, 1)], cycles=5)
        vc = next(vc for port in net.routers[0].in_ports
                  for vc in port.vcs if vc.state == VCState.ACTIVE)
        assert net._owner[vc.route_port][vc.out_vc] is not None

    def test_two_packets_same_port_get_distinct_vcs(self):
        net = stepped_network(events=[(1, 0, 3, 5), (1, 4, 3, 5)], cycles=8)
        # both packets converge on router heading EAST eventually; at the
        # minimum their VCs never alias at any single output port
        for own in net._owner:
            owners = [o for o in own if o is not None]
            assert len(owners) == len(set(owners))


class TestSA:
    def test_one_flit_per_output_port_per_cycle(self):
        """Two packets fighting for the same link never send two flits in
        the same cycle: the eject counts grow at most one per cycle."""
        events = [(1, 0, 3, 5), (1, 1, 3, 5)]
        net = Network(small_config(Design.NO_PG))
        traffic = ScriptedTraffic(events, 16)
        deliveries = []
        for _ in range(60):
            net._inject_arrivals(traffic)
            before = net.nis[3].n_ejected_flits
            net.step()
            deliveries.append(net.nis[3].n_ejected_flits - before)
        assert max(deliveries) <= 1
        assert sum(deliveries) == 10

    def test_credit_limits_in_flight_flits(self):
        """No more than buffer_depth flits of one packet can be un-credited
        at once (checked implicitly: taking a missing credit raises).
        Here we just run a congested scenario to exercise the guard."""
        events = [(c, 0, 3, 5) for c in range(1, 40, 2)]
        net = stepped_network(events=events, cycles=120)
        # nothing raised, and flow control kept buffers within depth
        for router in net.routers:
            for port in router.in_ports:
                for vc in port.vcs:
                    assert len(vc.fifo) <= net.cfg.noc.buffer_depth


class TestWormholeIntegrity:
    def test_flits_arrive_in_order_per_packet(self):
        order = []
        # the spy hooks the reference kernel's Flit-based sink
        net = Network(small_config(Design.NO_PG), backend="ref")
        orig = net.sink_flit

        def spy(node, flit, now, *, via_bypass):
            order.append((flit.packet.pid, flit.index))
            orig(node, flit, now, via_bypass=via_bypass)

        net.sink_flit = spy
        traffic = ScriptedTraffic([(1, 0, 15, 5), (2, 5, 10, 5)], 16)
        for _ in range(150):
            net._inject_arrivals(traffic)
            net.step()
        by_packet = {}
        for pid, idx in order:
            by_packet.setdefault(pid, []).append(idx)
        for pid, indices in by_packet.items():
            assert indices == sorted(indices), f"packet {pid} out of order"
            assert indices == list(range(len(indices)))
