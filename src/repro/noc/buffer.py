"""Virtual-channel input buffers of the reference router.

Each router input port has ``vcs_per_port`` virtual channels; each VC is a
FIFO of at most ``buffer_depth`` flits (a plain list: at a few entries,
popping the front is cheap) with a small state machine driving the
pipeline:

* ``IDLE``      - empty, no packet allocated,
* ``ROUTING``   - head flit at front, route computation in progress,
* ``WAITING_VA``- route known, waiting for a downstream VC grant,
* ``ACTIVE``    - downstream VC held; flits compete in switch allocation.

Credits flow upstream: one credit per flit removed from a VC buffer.
The output side of a port - credit counters, VC owners, the gating and
failure tags - is not here: :class:`repro.noc.network.Network` owns it
as flat lists both kernels index directly (``Network._build_ports``),
and every site that takes or returns a credit raises
:data:`CREDIT_UNDERFLOW` / :data:`CREDIT_OVERFLOW` on a violation.
"""

from __future__ import annotations

from typing import List, Optional

from .flit import Flit

CREDIT_UNDERFLOW = "credit underflow: flow control violated"
CREDIT_OVERFLOW = "credit overflow: flow control violated"


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
        self.fifo: List[Flit] = []
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

    def push(self, flit: Flit) -> None:
        if self.full:
            raise OverflowError(
                f"VC {self.vc_id} overflow (depth {self.depth}): credit "
                "protocol violated")
        self.fifo.append(flit)

    def pop(self) -> Flit:
        return self.fifo.pop(0)

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
