"""Round-robin arbiters used by the VC and switch allocators.

The canonical wormhole router (Section 3.1) uses separable allocators built
from round-robin arbiters; we model a matrix of independent round-robin
arbiters, one per contended resource, which is how Garnet models them too.

``grant`` is the dense specification; ``grant_from``, which both kernels
and the NI call, scans only the candidates.  The kernels share these
arbiters, so their differentials cannot see a defect here:
``tests/test_arbiter.py`` holds ``grant_from`` to ``grant``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


class RoundRobinArbiter:
    """Grants one of N requesters per invocation, rotating priority."""

    __slots__ = ("size", "_last")

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError("arbiter needs at least one requester")
        self.size = size
        self._last = size - 1

    def grant(self, requests: Sequence[bool]) -> Optional[int]:
        """Return the granted requester index, or None if no requests.

        Priority starts just after the last winner and wraps around, so the
        arbiter is fair under persistent contention.
        """
        if len(requests) != self.size:
            raise ValueError("request vector size mismatch")
        # Scan last+1..end then 0..last: the same rotating order as the
        # modular walk, without a modulo per probe.
        for idx in range(self._last + 1, self.size):
            if requests[idx]:
                self._last = idx
                return idx
        for idx in range(self._last + 1):
            if requests[idx]:
                self._last = idx
                return idx
        return None

    def grant_from(self, candidates: Iterable[int]) -> Optional[int]:
        """Grant among candidate indices (any order, duplicates allowed).

        The dense scan's answer without its request vector: the smallest
        candidate above the last winner, else the smallest candidate.
        """
        last = self._last
        size = self.size
        above = below = size
        for c in candidates:
            if not 0 <= c < size:
                raise ValueError(
                    f"candidate {c!r} outside the arbiter's 0..{size - 1}")
            if c > last:
                if c < above:
                    above = c
            elif c < below:
                below = c
        choice = above if above < size else below
        if choice == size:
            return None
        self._last = choice
        return choice


class AllocatorPool:
    """A pool of round-robin arbiters, one per output resource.

    Used for both VC allocation (one arbiter per output VC) and switch
    allocation (one arbiter per output port), keyed by integer resource id.
    """

    __slots__ = ("arbiters", "requesters")

    def __init__(self, num_resources: int, num_requesters: int) -> None:
        self.requesters = num_requesters
        self.arbiters: List[RoundRobinArbiter] = [
            RoundRobinArbiter(num_requesters) for _ in range(num_resources)
        ]

    def allocate(self, requests: Sequence[Sequence[int]]):
        """One allocation round.

        ``requests[r]`` is the list of requester ids wanting resource ``r``.
        Returns a list ``grants`` with ``grants[r]`` = granted requester id
        or ``None``.  This is a single-iteration separable allocator: each
        resource grants independently; callers must enforce any
        one-grant-per-requester constraint (done naturally in our SA stage
        because each input VC requests a single output).
        """
        return [
            self.arbiters[r].grant_from(reqs) if reqs else None
            for r, reqs in enumerate(requests)
        ]
