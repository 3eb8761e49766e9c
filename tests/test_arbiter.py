"""Round-robin arbiters and the separable allocator pool."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.arbiter import AllocatorPool, RoundRobinArbiter


class TestRoundRobinArbiter:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(0)

    def test_single_requester(self):
        arb = RoundRobinArbiter(3)
        assert arb.grant([False, True, False]) == 1

    def test_no_request_returns_none(self):
        arb = RoundRobinArbiter(3)
        assert arb.grant([False, False, False]) is None
        assert arb.grant_from([]) is None

    def test_size_mismatch_raises(self):
        arb = RoundRobinArbiter(3)
        with pytest.raises(ValueError):
            arb.grant([True])

    def test_rotating_priority_under_full_contention(self):
        arb = RoundRobinArbiter(3)
        grants = [arb.grant([True, True, True]) for _ in range(6)]
        assert grants == [0, 1, 2, 0, 1, 2]

    def test_fairness_under_persistent_contention(self):
        arb = RoundRobinArbiter(4)
        wins = Counter(arb.grant([True] * 4) for _ in range(400))
        assert all(count == 100 for count in wins.values())

    def test_priority_starts_after_last_winner(self):
        arb = RoundRobinArbiter(4)
        assert arb.grant([False, False, True, False]) == 2
        # Requester 3 has priority over 0 and 1 now.
        assert arb.grant([True, True, False, True]) == 3

    @given(st.lists(st.booleans(), min_size=1, max_size=8))
    @settings(max_examples=50)
    def test_grant_only_to_requesters(self, requests):
        arb = RoundRobinArbiter(len(requests))
        grant = arb.grant(requests)
        if any(requests):
            assert grant is not None and requests[grant]
        else:
            assert grant is None

    def test_grant_from_candidates(self):
        arb = RoundRobinArbiter(5)
        assert arb.grant_from([3]) == 3
        assert arb.grant_from([3, 4]) == 4  # rotation after 3 won

    @pytest.mark.parametrize("bad", [[-1], [4], [1, -1], [2, 4]])
    def test_grant_from_rejects_out_of_range(self, bad):
        arb = RoundRobinArbiter(4)
        arb.grant_from([1])
        with pytest.raises(ValueError, match="outside"):
            arb.grant_from(bad)
        assert arb._last == 1

    @given(st.data())
    @settings(max_examples=300)
    def test_grant_from_equals_dense_grant(self, data):
        """The candidate scan against the dense specification: same
        grant, same pointer after.  Both kernels share this arbiter, so
        the soa-vs-ref differentials cannot see a defect in it."""
        size = data.draw(st.integers(min_value=1, max_value=24))
        pointer = data.draw(st.integers(min_value=0, max_value=size - 1))
        cands = data.draw(st.lists(st.integers(0, size - 1), max_size=30))
        scan, dense = RoundRobinArbiter(size), RoundRobinArbiter(size)
        scan._last = dense._last = pointer
        requests = [False] * size
        for c in cands:
            requests[c] = True
        assert scan.grant_from(cands) == dense.grant(requests)
        assert scan._last == dense._last


class TestAllocatorPool:
    def test_each_resource_grants_independently(self):
        pool = AllocatorPool(3, 4)
        grants = pool.allocate([[0, 1], [], [2]])
        assert grants[0] in (0, 1)
        assert grants[1] is None
        assert grants[2] == 2

    def test_requester_may_win_multiple_resources(self):
        """Single-iteration separable allocator: caller resolves."""
        pool = AllocatorPool(2, 2)
        grants = pool.allocate([[0], [0]])
        assert grants == [0, 0]

    def test_rotation_is_per_resource(self):
        pool = AllocatorPool(2, 3)
        first = pool.allocate([[0, 1, 2], [0, 1, 2]])
        second = pool.allocate([[0, 1, 2], [0, 1, 2]])
        assert first == [0, 0]
        assert second == [1, 1]
