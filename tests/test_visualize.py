"""ASCII visualization helpers."""

import pytest

from repro.config import Design, small_config
from repro.noc.flit import Packet
from repro.noc.network import Network
from repro.noc.topology import NUM_PORTS
from repro.stats.visualize import (HEAT_CHARS, STATE_CHARS, StateTimeline,
                                   occupancy_heatmap, power_state_map,
                                   ring_map)
from repro.traffic.synthetic import uniform_random


class TestMaps:
    def test_power_state_map_shape_and_legend(self):
        net = Network(small_config(Design.NORD))
        text = power_state_map(net)
        lines = text.splitlines()
        assert len(lines) == 5  # 4 rows + legend
        assert all(len(line.split()) == 4 for line in lines[:4])
        assert "waking" in lines[-1]
        # fresh network: everything on
        assert set("".join(lines[:4]).replace(" ", "")) == {"#"}

    def test_power_state_map_shows_off_routers(self):
        net = Network(small_config(Design.CONV_PG))
        for _ in range(20):
            net.step()
        text = power_state_map(net)
        assert "." in text
        assert "#" not in text.splitlines()[0]

    def test_occupancy_heatmap_quiet_network_blank(self):
        net = Network(small_config(Design.NO_PG))
        text = occupancy_heatmap(net)
        assert set(text.replace("\n", "")) <= {" "}

    def test_occupancy_heatmap_max_bucket_reachable(self):
        # Normalization must use the true port count: a completely full
        # router (buffer_depth * vcs * NUM_PORTS flits) lands in the
        # hottest bucket, not beyond it and not below it.  (Fills the
        # reference router's buffers by hand.)
        net = Network(small_config(Design.NO_PG), backend="ref")
        cfg = net.cfg.noc
        pkt = Packet(0, 1, 1, created_cycle=0)
        flit = pkt.make_flits()[0]
        router = net.routers[0]
        for port in range(NUM_PORTS):
            for vc in range(cfg.vcs_per_port):
                for _ in range(cfg.buffer_depth):
                    router.in_ports[port].vcs[vc].fifo.append(flit)
        assert (sum(n for _, _, n in net.buffered_vcs(0))
                == cfg.buffer_depth * cfg.vcs_per_port * NUM_PORTS)
        top_left = occupancy_heatmap(net).splitlines()[-1].split()[0]
        assert top_left == HEAT_CHARS[-1]

    def test_ring_map_positions(self):
        net = Network(small_config(Design.NORD))
        text = ring_map(net)
        assert "dateline" in text
        # all 16 ring indices present
        digits = [int(tok) for tok in text.split()
                  if tok.strip().isdigit()]
        assert sorted(digits) == list(range(16))

    def test_ring_map_non_nord(self):
        net = Network(small_config(Design.NO_PG))
        assert "no bypass ring" in ring_map(net)


class TestStateTimeline:
    def test_samples_and_renders(self):
        net = Network(small_config(Design.CONV_PG))
        tl = StateTimeline(net)
        traffic = uniform_random(net.mesh, 0.05, seed=3)
        tl.run(120, traffic)
        assert all(len(s) == 120 for s in tl.samples)
        text = tl.render(stride=4)
        lines = text.splitlines()
        assert len(lines) == 17
        assert lines[0].startswith("r0")
        body = lines[0].split("|")[1]
        assert set(body) <= set(STATE_CHARS.values())

    def test_off_fractions_match_samples(self):
        net = Network(small_config(Design.CONV_PG))
        tl = StateTimeline(net)
        tl.run(50)  # no traffic: gates quickly, stays off
        fractions = tl.off_fractions()
        assert all(f > 0.9 for f in fractions)

    def test_width_clamps_strip(self):
        net = Network(small_config(Design.NO_PG))
        tl = StateTimeline(net)
        tl.run(100)
        text = tl.render(width=10)
        assert all(len(line.split("|")[1]) <= 10
                   for line in text.splitlines()[:-1])
