"""Traffic generators: synthetic patterns, PARSEC models, replay."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.topology import Mesh
from repro.traffic.base import (LONG_PACKET_FLITS, SHORT_PACKET_FLITS,
                                NullTraffic, ScriptedTraffic,
                                TrafficGenerator)
from repro.traffic.parsec import (BENCHMARKS, MEMORY_LATENCY, PROFILES,
                                  ParsecTraffic, make_traffic)
from repro.traffic.synthetic import (BitComplementPattern, HotspotPattern,
                                     SyntheticTraffic, TransposePattern,
                                     bit_complement, uniform_random)


def drain_rate(gen, cycles=6000):
    """Measured flits/node/cycle produced by a generator."""
    flits = 0
    for cycle in range(cycles):
        for _, _, length in gen.arrivals(cycle):
            flits += length
    return flits / (cycles * gen.num_nodes)


class TestBase:
    def test_rejects_tiny_network(self):
        with pytest.raises(ValueError):
            SyntheticTraffic(1, 0.1, lambda s: s)

    def test_null_traffic(self):
        assert list(NullTraffic().arrivals(0)) == []

    def test_scripted_traffic(self):
        gen = ScriptedTraffic([(3, 0, 1, 5), (3, 2, 3, 1)])
        assert list(gen.arrivals(3)) == [(0, 1, 5), (2, 3, 1)]
        assert list(gen.arrivals(4)) == []

    def test_packet_lengths_bimodal(self):
        gen = SyntheticTraffic(16, 0.1, lambda s: 0, seed=1)
        lengths = {length for cycle in range(200)
                   for _, _, length in gen.arrivals(cycle)}
        assert lengths == {SHORT_PACKET_FLITS, LONG_PACKET_FLITS}
        assert gen.mean_packet_length == 3.0


class TestSyntheticRates:
    @pytest.mark.parametrize("rate", [0.05, 0.2])
    def test_uniform_random_hits_requested_rate(self, rate):
        gen = uniform_random(Mesh(4, 4), rate, seed=2)
        assert drain_rate(gen) == pytest.approx(rate, rel=0.15)

    def test_zero_rate_produces_nothing(self):
        gen = uniform_random(Mesh(4, 4), 0.0, seed=2)
        assert drain_rate(gen, 500) == 0.0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            SyntheticTraffic(16, -0.1, lambda s: s)

    def test_uniform_never_self_addressed(self):
        gen = uniform_random(Mesh(4, 4), 0.5, seed=3)
        for cycle in range(300):
            for src, dst, _ in gen.arrivals(cycle):
                assert src != dst


class TestPatterns:
    def test_bit_complement(self):
        mesh = Mesh(4, 4)
        pattern = BitComplementPattern(mesh)
        assert pattern(0) == 15
        assert pattern(5) == 10
        assert pattern(15) == 0

    def test_bit_complement_is_involution(self):
        mesh = Mesh(8, 8)
        pattern = BitComplementPattern(mesh)
        for node in range(64):
            assert pattern(pattern(node)) == node

    def test_transpose(self):
        mesh = Mesh(4, 4)
        pattern = TransposePattern(mesh)
        assert pattern(1) == 4   # (1,0) -> (0,1)
        assert pattern(5) == 5   # diagonal fixed point

    def test_transpose_requires_square(self):
        with pytest.raises(ValueError):
            TransposePattern(Mesh(4, 2))

    def test_hotspot_concentrates_traffic(self):
        import random
        rng = random.Random(1)
        pattern = HotspotPattern(16, [0], 0.9, rng)
        hits = sum(1 for _ in range(1000) if pattern(5) == 0)
        assert hits > 800

    def test_hotspot_fraction_validation(self):
        import random
        with pytest.raises(ValueError):
            HotspotPattern(16, [0], 1.5, random.Random(1))


class TestParsec:
    def test_all_ten_benchmarks_present(self):
        assert len(BENCHMARKS) == 10
        assert "blackscholes" in BENCHMARKS and "x264" in BENCHMARKS

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            make_traffic(Mesh(4, 4), "doom")

    def test_rate_ordering_blackscholes_lightest_x264_heaviest(self):
        rates = {b: PROFILES[b].rate for b in BENCHMARKS}
        assert min(rates, key=rates.get) == "blackscholes"
        assert max(rates, key=rates.get) == "x264"

    def test_long_run_rate_close_to_profile(self):
        gen = make_traffic(Mesh(4, 4), "bodytrack", seed=4)
        measured = drain_rate(gen, 30000)
        # replies add ~50% on top of the nominal injection rate
        assert measured == pytest.approx(
            PROFILES["bodytrack"].rate, rel=0.75)
        assert measured > 0

    def test_memory_requests_target_corners_and_reply(self):
        mesh = Mesh(4, 4)
        gen = make_traffic(mesh, "canneal", seed=9)
        corners = set(mesh.corners())
        replies = 0
        for cycle in range(4000):
            for src, dst, length in gen.arrivals(cycle):
                if src in corners and length == LONG_PACKET_FLITS:
                    replies += 1
        assert replies > 0

    def test_sensitivities_in_sane_range(self):
        for profile in PROFILES.values():
            assert 0.05 <= profile.sensitivity <= 0.5

    def test_phases_modulate_traffic(self):
        """During global quiet phases the injection rate collapses."""
        gen = make_traffic(Mesh(4, 4), "blackscholes", seed=8)
        active_counts, quiet_counts = [], []
        for cycle in range(20000):
            n = len(list(gen.arrivals(cycle)))
            (active_counts if gen._phase_active else quiet_counts).append(n)
        assert sum(quiet_counts) / max(1, len(quiet_counts)) < \
            0.5 * sum(active_counts) / max(1, len(active_counts))


#: SHA-256 of ``repr((cycle, list(arrivals(cycle))))`` for cycles 0-1999
#: on a 4x4 mesh (synthetic kinds at 0.1 flits/node/cycle), per
#: ``(kind, benchmark, seed)``.  An arrival stream is part of every
#: result, so a rewrite of a source must reproduce it draw for draw.
STREAM_DIGESTS = {
    ('bitcomp', '', 1): "cbaa5ac5ee32864a01a8960ec1ddbe66bdc9dc6e156b90fdfe1c6fc05ea615b6",
    ('bitcomp', '', 2): "099752be7f1d9b823e17089ec05778223767af186737ce5f18e5a6f209f834c0",
    ('hotspot', '', 1): "565ffac04dac682d7e6ca598ce5d0b0e6e89d300e690942312292525f6a5e9b2",
    ('hotspot', '', 2): "4dc6c6167e5fb968b540e015f2c8f00834b54c5784a8911ba6f99b357e709ba1",
    ('null', '', 1): "31404de040a5e86fd12cec8e1391fc86a2c4be57676b1963e042b6ed9918e3ae",
    ('null', '', 2): "31404de040a5e86fd12cec8e1391fc86a2c4be57676b1963e042b6ed9918e3ae",
    ('parsec', 'blackscholes', 1): "b3e9e9592b86b6fe4019e4d42971b2ac4521a1dc4de0615150963cb3d4201228",
    ('parsec', 'blackscholes', 2): "65b0cb2b56089826bf7da8ae7d2f84f3ca9210292aace83185713aca51753f8d",
    ('parsec', 'bodytrack', 1): "8858833d049d87ecbb4f271c8dc2e1fda4f679e97c3ade8d4506b12932d17463",
    ('parsec', 'bodytrack', 2): "deb5fa2c9fd921012f5dd8166676ad72928b0522cf0ee414d58f85388eaafd62",
    ('parsec', 'canneal', 1): "ae2bec8393c36b0538e6d2c1d44d3bff9115eb567d65a2947d46cf604115136b",
    ('parsec', 'canneal', 2): "1ac7da579ecffcce97f282b2a2acc3ae56c01d058262c312b136db12fb918ceb",
    ('parsec', 'dedup', 1): "aeb123c6f39d90d3fb3ba83a07fbb27362cac517a0ebac4a077d13fc40047a77",
    ('parsec', 'dedup', 2): "4b3930e0749c74d130669957fb7f82b6aa98c34f4773fab4a8b377814183f610",
    ('parsec', 'ferret', 1): "679c3d61a820a12c69dad9f9b53a26034d91de12471045d474cfba3ba9c02815",
    ('parsec', 'ferret', 2): "620a7fe6b5c42be02b4758e8b721386e1b5207a70f8e45a7de28178707586ecc",
    ('parsec', 'fluidanimate', 1): "526a5b33d2c36409e48644ba9a469fb48b397e9f77f10a42088598fb93510b12",
    ('parsec', 'fluidanimate', 2): "8db7505b56ab268f015eb2bdc58f20c0746d81d2f64010e0294bd03c75d98562",
    ('parsec', 'raytrace', 1): "426a8b1db2b14c87c8f0cbc39786c0a2152ddbcf23877318b376c37f087b40b4",
    ('parsec', 'raytrace', 2): "0a99d8dc6946e2e962741d237424677e94acd07879ae5d1fe9018378ddcf8e69",
    ('parsec', 'swaptions', 1): "b8cedb1ae7218373b7a9d5235c2add7cd33f64a077ff4f906413b34c8d3d49aa",
    ('parsec', 'swaptions', 2): "6cb172dc712da8fbfb61e073f0c130bab9d08c5889e2e0c478f5a874723173b2",
    ('parsec', 'vips', 1): "812564ce1f04db5df1124bd459d6ca28a167db1a55901c0ca9682295cd1879c9",
    ('parsec', 'vips', 2): "bed6e4ee099504580a07e2f58b2b82140c8bc4a37984a21a3c3b25ab51ef0db2",
    ('parsec', 'x264', 1): "2a2a3bdef82e99618f553cae7a0c781431d2ad0f7d01e77e8e0b4033dd05a6ed",
    ('parsec', 'x264', 2): "9c61f7907fe4f987a9392fb9cd55fafaf09993d9feeb0ad55830bd862ce53dbc",
    ('tornado', '', 1): "45bf81c7fa7ab2f775d2d56571d1cff254729b26fcd4cd46d7e584bbd84149ce",
    ('tornado', '', 2): "6bd99bc25389d86619db9196b18ab594d2661222d42df38f94f3441dd875ce1b",
    ('transpose', '', 1): "13d8690fc0c0da783b0ded3bb9c8532619cdf041db412f8c54df5aacc1df2cb8",
    ('transpose', '', 2): "76f133a3d93d8c970a56978950453979a73e575557c11372bf2eb17c1ada4799",
    ('uniform', '', 1): "bf76e4cbee9d48c598feaa647f5c6ce091902ac4c20670c314b3c1a8173739c1",
    ('uniform', '', 2): "43bf0b44adf6212bb842812340b5f34cc443f5c4745df9a9c322eea201ba58e2",
}


class TestArrivalStreams:
    def test_digest_table_covers_every_source(self):
        from repro.traffic.spec import TRAFFIC_KINDS
        kinds = {kind for kind, _, _ in STREAM_DIGESTS}
        assert kinds == set(TRAFFIC_KINDS)
        benchmarks = {b for kind, b, _ in STREAM_DIGESTS if kind == "parsec"}
        assert benchmarks == set(BENCHMARKS)
        assert {seed for _, _, seed in STREAM_DIGESTS} == {1, 2}

    # ("benchmark" would collide with pytest-benchmark's fixture name)
    @pytest.mark.parametrize("kind,workload,seed", sorted(STREAM_DIGESTS))
    def test_stream_is_pinned(self, kind, workload, seed):
        import hashlib
        from repro.traffic.spec import TrafficSpec
        spec = (TrafficSpec(kind=kind, benchmark=workload, seed=seed)
                if kind == "parsec"
                else TrafficSpec(kind=kind, rate=0.1, seed=seed))
        gen = spec.build(Mesh(4, 4))
        h = hashlib.sha256()
        for cycle in range(2000):
            h.update(repr((cycle, list(gen.arrivals(cycle)))).encode())
        assert h.hexdigest() == STREAM_DIGESTS[kind, workload, seed]


class TestTraces:
    def test_record_replay_identical(self):
        gen = uniform_random(Mesh(4, 4), 0.2, seed=6)
        original = [list(gen.arrivals(c)) for c in range(200)]
        replay = ScriptedTraffic([(c, s, d, l)
                                  for c, arrivals in enumerate(original)
                                  for s, d, l in arrivals], 16)
        replayed = [list(replay.arrivals(c)) for c in range(200)]
        assert original == replayed
