"""Packets and flits: decomposition, flags, latency accounting."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import Design, small_config
from repro.noc.bufferless import BufferlessNetwork
from repro.noc.flit import Flit, FlitType, Packet
from repro.noc.network import Network
from repro.trace.recorder import EventTrace
from repro.traffic.synthetic import uniform_random


class TestPacket:
    def test_ids_monotonic(self):
        """Each network numbers its own packets from 0: a second
        network in the process neither continues nor disturbs the
        first one's sequence."""
        cfg = small_config(Design.NORD)
        for build in (lambda: Network(cfg, backend="ref"),
                      lambda: Network(cfg), lambda: BufferlessNetwork(cfg)):
            first, second = build(), build()
            assert [first.inject_packet(0, 1, 1).pid
                    for _ in range(3)] == [0, 1, 2]
            assert second.inject_packet(0, 1, 1).pid == 0
            assert first.inject_packet(0, 1, 1).pid == 3
        assert Packet(0, 1, 1, 0).pid == 0  # bare packets: the default

    def test_interleaved_networks_keep_their_own_ids(self):
        """Two networks stepped turn by turn in one process: each one's
        raw (un-normalised) traced pids are those of a solo run."""
        def build():
            net = Network(small_config(Design.NORD), trace=EventTrace())
            return net, uniform_random(net.mesh, 0.1, seed=3)

        def advance(net, gen):
            net._inject_arrivals(gen)
            net.step()

        solo, solo_gen = build()
        for _ in range(120):
            advance(solo, solo_gen)
        (a, a_gen), (b, b_gen) = build(), build()
        for _ in range(120):
            advance(a, a_gen)
            advance(b, b_gen)
        want = [e.pid for e in solo.trace.events()]
        assert max(want) > 10
        assert [e.pid for e in a.trace.events()] == want
        assert [e.pid for e in b.trace.events()] == want

    def test_latency_requires_ejection(self):
        pkt = Packet(0, 1, 1, created_cycle=10)
        with pytest.raises(ValueError):
            _ = pkt.latency
        pkt.ejected_cycle = 35
        assert pkt.latency == 25

    def test_initial_state(self):
        pkt = Packet(2, 9, 5, 100, klass=1)
        assert pkt.misroutes == 0
        assert not pkt.on_escape
        assert pkt.hops == 0
        assert pkt.bypass_hops == 0
        assert pkt.escape_level == 0
        assert pkt.klass == 1


class TestFlitDecomposition:
    def test_single_flit_packet_is_head_tail(self):
        flits = Packet(0, 1, 1, 0).make_flits()
        assert len(flits) == 1
        assert flits[0].ftype == FlitType.HEAD_TAIL
        assert flits[0].is_head and flits[0].is_tail

    def test_five_flit_packet_structure(self):
        flits = Packet(0, 1, 5, 0).make_flits()
        assert len(flits) == 5
        assert flits[0].ftype == FlitType.HEAD
        assert all(f.ftype == FlitType.BODY for f in flits[1:4])
        assert flits[4].ftype == FlitType.TAIL

    def test_two_flit_packet_has_no_body(self):
        flits = Packet(0, 1, 2, 0).make_flits()
        assert [f.ftype for f in flits] == [FlitType.HEAD, FlitType.TAIL]

    @given(st.integers(1, 12))
    def test_exactly_one_head_and_one_tail(self, length):
        flits = Packet(0, 1, length, 0).make_flits()
        assert len(flits) == length
        assert sum(f.is_head for f in flits) == 1
        assert sum(f.is_tail for f in flits) == 1
        assert flits[0].is_head
        assert flits[-1].is_tail

    @given(st.integers(1, 12))
    def test_flit_indices_are_sequential(self, length):
        flits = Packet(0, 1, length, 0).make_flits()
        assert [f.index for f in flits] == list(range(length))

    def test_flits_share_packet(self):
        pkt = Packet(3, 7, 5, 0)
        for flit in pkt.make_flits():
            assert flit.packet is pkt
            assert flit.src == 3
            assert flit.dst == 7

    def test_repr_smoke(self):
        pkt = Packet(0, 1, 2, 0)
        assert "Packet" in repr(pkt)
        assert "H" in repr(pkt.make_flits()[0])
