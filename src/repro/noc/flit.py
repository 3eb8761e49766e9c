"""Flit and packet data structures for the wormhole-switched NoC.

A packet is decomposed into flits: a head flit (carrying routing state), zero
or more body flits and a tail flit.  Single-flit packets have a flit that is
simultaneously head and tail, as in the paper's synthetic traffic where short
packets are single-flit and long packets have 5 flits (Section 5.2).
"""

from __future__ import annotations

from typing import List, Optional


class FlitType:
    HEAD = 0
    BODY = 1
    TAIL = 2
    HEAD_TAIL = 3  # single-flit packet


class Packet:
    """A network packet: the unit of routing and latency measurement."""

    __slots__ = (
        "pid", "src", "dst", "length", "injected_cycle", "created_cycle",
        "ejected_cycle", "misroutes", "on_escape", "hops", "bypass_hops",
        "wakeup_stall_cycles", "klass", "escape_level", "seq", "retry",
        "corrupted", "failed",
    )

    def __init__(self, src: int, dst: int, length: int, created_cycle: int,
                 klass: int = 0, *, pid: int = 0) -> None:
        #: Unique within the network that injected the packet, which
        #: hands the ids out (``Network.inject_packet``).
        self.pid = pid
        self.src = src
        self.dst = dst
        self.length = length
        #: Cycle the packet was handed to the NI (queueing included in
        #: latency, as is conventional).
        self.created_cycle = created_cycle
        #: Cycle the head flit entered the network proper.
        self.injected_cycle: Optional[int] = None
        self.ejected_cycle: Optional[int] = None
        #: Number of non-minimal hops taken so far (NoRD misroute cap).
        self.misroutes = 0
        #: Once True, the packet is confined to escape resources until it
        #: reaches its destination (Duato's protocol / ring escape).
        self.on_escape = False
        self.hops = 0
        #: Hops traversed through gated-off routers' bypass paths.
        self.bypass_hops = 0
        #: Cycles the head flit spent stalled waiting for router wakeups.
        self.wakeup_stall_cycles = 0
        #: Protocol class (0 = request, 1 = reply); informational.
        self.klass = klass
        #: Dateline level for ring-escape VC selection (0 before crossing,
        #: 1 after); only meaningful once ``on_escape`` is set.
        self.escape_level = 0
        #: End-to-end sequence number per (src, dst) flow; assigned only
        #: when a fault plan is active, None otherwise.
        self.seq: Optional[int] = None
        #: Which retransmission attempt this packet instance is (0 = the
        #: original transmission).
        self.retry = 0
        #: A link fault corrupted or dropped one of this packet's flits;
        #: detected end-to-end at the destination NI.
        self.corrupted = False
        #: The packet was discarded in-network (hard-failed router) or
        #: rejected at the source (unreachable endpoint).
        self.failed = False

    @property
    def latency(self) -> int:
        """Total packet latency in cycles (creation to ejection of tail)."""
        if self.ejected_cycle is None:
            raise ValueError("packet not yet ejected")
        return self.ejected_cycle - self.created_cycle

    def make_flits(self) -> List["Flit"]:
        """Decompose the packet into its flits."""
        if self.length == 1:
            return [Flit(self, FlitType.HEAD_TAIL, 0)]
        flits = [Flit(self, FlitType.HEAD, 0)]
        flits.extend(Flit(self, FlitType.BODY, i)
                     for i in range(1, self.length - 1))
        flits.append(Flit(self, FlitType.TAIL, self.length - 1))
        return flits

    def __repr__(self) -> str:
        return (f"Packet(pid={self.pid}, {self.src}->{self.dst}, "
                f"len={self.length})")


class Flit:
    """A flow-control unit.  Flits of a packet share the Packet object.

    ``is_head`` / ``is_tail`` are plain attributes fixed at construction
    (the datapath reads them on every hop)."""

    __slots__ = ("packet", "ftype", "index", "is_head", "is_tail")

    def __init__(self, packet: Packet, ftype: int, index: int) -> None:
        self.packet = packet
        self.ftype = ftype
        self.index = index
        self.is_head = ftype in (FlitType.HEAD, FlitType.HEAD_TAIL)
        self.is_tail = ftype in (FlitType.TAIL, FlitType.HEAD_TAIL)

    @property
    def dst(self) -> int:
        return self.packet.dst

    @property
    def src(self) -> int:
        return self.packet.src

    def __repr__(self) -> str:
        kind = {0: "H", 1: "B", 2: "T", 3: "HT"}[self.ftype]
        return f"Flit({kind}, pid={self.packet.pid}, idx={self.index})"
