"""Virtual-channel input buffers and credit bookkeeping.

Each router input port has ``vcs_per_port`` virtual channels; each VC is a
FIFO of ``buffer_depth`` flits with a small state machine driving the
pipeline:

* ``IDLE``      - empty, no packet allocated,
* ``ROUTING``   - head flit at front, route computation in progress,
* ``WAITING_VA``- route known, waiting for a downstream VC grant,
* ``ACTIVE``    - downstream VC held; flits compete in switch allocation.

Credits flow upstream: one credit per flit removed from a VC buffer.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from .flit import Flit


class VCState:
    IDLE = 0
    ROUTING = 1
    WAITING_VA = 2
    ACTIVE = 3


class VirtualChannel:
    """One VC FIFO plus its routing/allocation state."""

    __slots__ = ("vc_id", "depth", "fifo", "state", "route_port", "out_vc",
                 "adaptive_ports", "escape_port", "force_escape", "va_wait",
                 "flits_sent")

    def __init__(self, vc_id: int, depth: int) -> None:
        self.vc_id = vc_id
        self.depth = depth
        self.fifo: Deque[Flit] = deque()
        self.state = VCState.IDLE
        #: Output port chosen by route computation (valid in WAITING_VA+).
        self.route_port: Optional[int] = None
        #: Downstream VC granted by VC allocation (valid in ACTIVE).
        self.out_vc: Optional[int] = None
        #: Route-computation results (valid in WAITING_VA).
        self.adaptive_ports: list = []
        self.escape_port: Optional[int] = None
        self.force_escape = False
        #: Cycles spent waiting for a VC grant (drives escape patience).
        self.va_wait = 0
        #: Flits of the current packet already sent downstream.
        self.flits_sent = 0

    def __len__(self) -> int:
        return len(self.fifo)

    @property
    def empty(self) -> bool:
        return not self.fifo

    @property
    def full(self) -> bool:
        return len(self.fifo) >= self.depth

    def front(self) -> Optional[Flit]:
        return self.fifo[0] if self.fifo else None

    def push(self, flit: Flit) -> None:
        if self.full:
            raise OverflowError(
                f"VC {self.vc_id} overflow (depth {self.depth}): credit "
                "protocol violated")
        self.fifo.append(flit)

    def pop(self) -> Flit:
        return self.fifo.popleft()

    def reset_route(self) -> None:
        """Drop routing/allocation state and restart from RC.

        Used when the chosen output port becomes power-gated while the
        packet is still entirely within this router (Section 4.3: flits in
        VA/SA stages "restart the pipeline from RC").
        """
        self.state = VCState.ROUTING if self.fifo else VCState.IDLE
        self.route_port = None
        self.out_vc = None
        self.adaptive_ports = []
        self.escape_port = None
        self.force_escape = False
        self.va_wait = 0
        self.flits_sent = 0


class InputPort:
    """A router input port: a set of VCs."""

    __slots__ = ("port_id", "vcs")

    def __init__(self, port_id: int, num_vcs: int, depth: int) -> None:
        self.port_id = port_id
        self.vcs: List[VirtualChannel] = [
            VirtualChannel(v, depth) for v in range(num_vcs)
        ]

    @property
    def empty(self) -> bool:
        return all(vc.empty for vc in self.vcs)

    def occupancy(self) -> int:
        return sum(len(vc) for vc in self.vcs)


class CreditCounter:
    """Tracks free downstream buffer slots for one (output port, VC) pair."""

    __slots__ = ("credits", "max_credits")

    def __init__(self, depth: int) -> None:
        self.credits = depth
        self.max_credits = depth

    def consume(self) -> None:
        if self.credits <= 0:
            raise RuntimeError("credit underflow: flow control violated")
        self.credits -= 1

    def restore(self) -> None:
        if self.credits >= self.max_credits:
            raise RuntimeError("credit overflow: flow control violated")
        self.credits += 1

    def set_limit(self, limit: int) -> None:
        """Clamp the counter to a new limit (NoRD bypass gives the ring-
        upstream router a single output-buffer credit, Section 4.3)."""
        self.max_credits = limit
        if self.credits > limit:
            self.credits = limit

    @property
    def available(self) -> bool:
        return self.credits > 0


class OutputPort:
    """Output-side state of a router port.

    Holds per-downstream-VC credit counters and the "VC busy" table that VC
    allocation uses to guarantee at most one packet holds a downstream VC at
    a time.
    """

    __slots__ = ("port_id", "credit", "vc_owner", "gated", "failed",
                 "buffer_depth")

    def __init__(self, port_id: int, num_vcs: int, depth: int) -> None:
        self.port_id = port_id
        self.buffer_depth = depth
        self.credit: List[CreditCounter] = [
            CreditCounter(depth) for _ in range(num_vcs)
        ]
        #: pid of the packet currently holding each downstream VC, or None.
        self.vc_owner: List[Optional[int]] = [None] * num_vcs
        #: True when the downstream router is power-gated off and this port
        #: must not be used (conventional PG tags, Section 3.1 / 4.3).
        self.gated = False
        #: True when the downstream router is hard-failed: packets routed
        #: here are dropped and recorded instead of stalling for a wakeup
        #: that will never come.  Always implies ``gated``.
        self.failed = False

    def free_vcs(self, vc_range) -> List[int]:
        return [v for v in vc_range if self.vc_owner[v] is None]

    def reset_credits_full(self) -> None:
        for c in self.credit:
            c.max_credits = self.buffer_depth
            c.credits = self.buffer_depth

    def idle(self) -> bool:
        return all(owner is None for owner in self.vc_owner)
