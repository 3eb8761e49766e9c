"""Links: fixed-delay pipelines carrying flits and returning credits
(the reference kernel's channels; the soa kernel uses mailboxes).

Flit links model the LT (link traversal) stage: a flit handed to the link at
cycle ``t`` is delivered to the downstream input buffer (or the NoRD bypass
latch) at cycle ``t + delay``.  Credit links return credits upstream with
the same one-cycle delay.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generic, List, Optional, Tuple, TypeVar

T = TypeVar("T")


class DelayLine(Generic[T]):
    """A fixed-latency FIFO: items emerge ``delay`` cycles after insertion."""

    __slots__ = ("delay", "_queue")

    def __init__(self, delay: int = 1) -> None:
        if delay < 1:
            raise ValueError("delay must be >= 1")
        self.delay = delay
        self._queue: Deque[Tuple[int, T]] = deque()

    def send(self, item: T, now: int) -> None:
        self._queue.append((now + self.delay, item))

    def receive(self, now: int) -> List[T]:
        """Pop every item whose delivery time is <= now (in send order)."""
        out: List[T] = []
        while self._queue and self._queue[0][0] <= now:
            out.append(self._queue.popleft()[1])
        return out

    def peek_pending(self) -> List[T]:
        """All in-flight items (for drain checks and invariant tests)."""
        return [item for _, item in self._queue]

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def empty(self) -> bool:
        return not self._queue


class Link:
    """A unidirectional router-to-router link with its credit return path."""

    __slots__ = ("src", "src_port", "dst", "dst_port", "flits", "credits")

    def __init__(self, src: int, src_port: int, dst: int, dst_port: int,
                 delay: int = 1) -> None:
        self.src = src
        self.src_port = src_port
        self.dst = dst
        self.dst_port = dst_port
        #: carries (flit, out_vc) tuples downstream
        self.flits: DelayLine = DelayLine(delay)
        #: carries vc ids upstream as credits
        self.credits: DelayLine = DelayLine(delay)

    @property
    def busy(self) -> bool:
        return not self.flits.empty
