"""Typed, slotted event records and the event taxonomy.

Every event carries the same compact record shape (one slotted object,
no dicts), with per-kind field semantics:

====== ============================== ======================================
kind   emitted by                     fields
====== ============================== ======================================
NEW    ``Network.inject_packet`` /    node=src, port=dst, info=length in
       ``retransmit_packet``          flits (retransmitted clones emit a
                                      fresh NEW at re-enqueue time)
INJ    ``NetworkInterface.            node, vc=allocated VC, flit, port=
       _commit_injection``            output port used, info=0 injection
                                      via the router's LOCAL port, 1 via
                                      the Bypass Outport (ring)
BW     ``Router.deliver``;            buffer write (LT completion into an
       soa ``_phase_links``,          input VC): node, port=in_port, vc,
       ``_deliver_flit``              flit
RC     ``Router.stage_rc``;           route computed for a head:
       soa ``_rc_node``               node, port=in_port, vc
VA     ``Router._commit_va``;         VC allocated: node, port=out_port,
       soa ``_commit_va``             vc=out_vc, info=1 if escape VC
SA     ``Router._traverse``;          switch allocation granted and
       soa ``_phase_routers``         ST+LT launched: node, port=out_port,
                                      vc=out_vc, flit
WU_STALL ``Router.stage_sa``;         head stalled one cycle in SA waiting
       soa ``_phase_routers``,        for a gated neighbor's wakeup
       ``_sa_node``                   (conventional PG): node,
                                      port=out_port
LATCH  ``NetworkInterface.            bypass-latch write (LT completion
       latch_write``                  at an off router's Bypass Inport):
                                      node, vc, flit
FWD    ``NetworkInterface.            bypass re-inject through the Bypass
       _commit_forward``              Outport: node, port=ring outport,
                                      vc=out_vc, flit, info=1 when the
                                      aggressive single-cycle bypass fired
SINK   ``Network.sink_flit``;         flit ejected at its destination:
       soa ``_sink_word`` (router     node, flit, info=1 when ejected
       ejects)                        straight from the bypass latch
PG_OFF ``Network._apply_pg_events``   router gated off: node
PG_WAKE  (same)                       wakeup started (off->waking): node;
                                      NoRD also reports the threshold
                                      trigger: vc=threshold,
                                      info=VC-request window count
PG_ON    (same)                       wakeup complete (waking->on): node
PG_FAIL  (same)                       hard-fail completed (fault
                                      injection): node
====== ============================== ======================================

"soa" sites are :class:`repro.noc.soa.SoANetwork` methods: both kernels
record the same stream.  Unused fields are -1 (``info`` defaults to 0);
``seq`` numbers events, so order is total even within one cycle.
"""

from __future__ import annotations

from typing import Dict


class EventKind:
    """Small-int event kinds (see the module docstring for semantics)."""

    NEW = 0
    INJ = 1
    BW = 2
    RC = 3
    VA = 4
    SA = 5
    WU_STALL = 6
    LATCH = 7
    FWD = 8
    SINK = 9
    PG_OFF = 10
    PG_WAKE = 11
    PG_ON = 12
    PG_FAIL = 13


EVENT_NAMES: Dict[int, str] = {
    EventKind.NEW: "NEW",
    EventKind.INJ: "INJ",
    EventKind.BW: "BW",
    EventKind.RC: "RC",
    EventKind.VA: "VA",
    EventKind.SA: "SA",
    EventKind.WU_STALL: "WU_STALL",
    EventKind.LATCH: "LATCH",
    EventKind.FWD: "FWD",
    EventKind.SINK: "SINK",
    EventKind.PG_OFF: "PG_OFF",
    EventKind.PG_WAKE: "PG_WAKE",
    EventKind.PG_ON: "PG_ON",
    EventKind.PG_FAIL: "PG_FAIL",
}

#: Power-gate FSM transition kinds (``pid`` is -1).
PG_KINDS = frozenset({
    EventKind.PG_OFF, EventKind.PG_WAKE, EventKind.PG_ON, EventKind.PG_FAIL,
})

#: NoRD's NI bypass datapath: latching and forwarding a flit.
BYPASS_KINDS = frozenset({EventKind.LATCH, EventKind.FWD})

#: A packet's life at the network interfaces: created, injected, sunk.
NI_KINDS = frozenset({EventKind.NEW, EventKind.INJ, EventKind.SINK})


class TraceEvent:
    """One recorded event: a fixed-shape slotted record."""

    __slots__ = ("seq", "cycle", "kind", "node", "port", "vc", "pid",
                 "flit", "info")

    def __init__(self, seq: int, cycle: int, kind: int, node: int,
                 port: int = -1, vc: int = -1, pid: int = -1,
                 flit: int = -1, info: int = 0) -> None:
        self.seq = seq
        self.cycle = cycle
        self.kind = kind
        self.node = node
        self.port = port
        self.vc = vc
        self.pid = pid
        self.flit = flit
        self.info = info

    def canonical(self, pid: int) -> str:
        """The canonical one-line form (with ``pid`` already normalized)
        that the JSONL exporter and the digest both hash/emit.  ``seq``
        is deliberately excluded: it numbers *retained* ring-buffer
        slots, so it would differ between two traces whose ring limits
        differ even when the surviving events are identical."""
        return (f"{self.cycle} {EVENT_NAMES[self.kind]} n{self.node}"
                f" p{self.port} v{self.vc} pid{pid} f{self.flit}"
                f" i{self.info}")

    def __repr__(self) -> str:
        return (f"TraceEvent(seq={self.seq}, cycle={self.cycle}, "
                f"{EVENT_NAMES[self.kind]}, node={self.node}, "
                f"port={self.port}, vc={self.vc}, pid={self.pid}, "
                f"flit={self.flit}, info={self.info})")
