"""Latency decomposition: fold a packet's events into named components.

A delivered packet's end-to-end latency (``ejected_cycle -
created_cycle``, what the stats collector measures) is reconstructed
from its trace events as a *telescoping* sum over the head flit's
milestone timeline plus tail serialization:

* **queueing** - creation (NEW) to the head flit leaving the NI (INJ);
* **pipeline** - head waiting/advancing inside powered-on routers:
  buffer write (BW) to switch-allocation grant (SA), minus any
  wakeup-stall cycles;
* **wakeup** - head cycles stalled in SA waiting for a gated
  neighbor to wake (conventional power-gating's cumulative wakeup
  latency, the paper's Fig. 13 quantity);
* **bypass** - head time spent in NoRD's NI bypass datapath: latch
  residency until re-inject (FWD), latch-to-local ejection, and the
  latch-to-input-buffer hand-over when a router wakes mid-bypass;
* **link** - ST+LT wire time: every gap between a launch (INJ, SA,
  FWD) and the next arrival (BW, LATCH, SINK);
* **serialization** - head ejection to tail ejection (body/tail flits
  streaming out behind the head).

Because every component is the difference of consecutive milestone
timestamps on one flit's timeline (and the stall counter is a subset of
the enclosing pipeline segment), the components sum *exactly* to the
measured latency - asserted per packet by the hypothesis property test
``tests/test_trace_decompose.py`` across designs and seeds.

Only packets whose full event timeline is retained can be decomposed:
with a ring-buffer-limited trace, packets whose NEW was evicted report
``None``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from .events import EventKind, TraceEvent
from .recorder import EventTrace


@dataclass
class LatencyDecomposition:
    """Per-packet latency split; all fields in cycles."""

    pid: int
    src: int
    dst: int
    length: int
    created: int
    ejected: int
    queueing: int = 0
    pipeline: int = 0
    wakeup: int = 0
    bypass: int = 0
    link: int = 0
    serialization: int = 0

    @property
    def total(self) -> int:
        return (self.queueing + self.pipeline + self.wakeup + self.bypass
                + self.link + self.serialization)

    @property
    def latency(self) -> int:
        """The end-to-end latency the components must sum to."""
        return self.ejected - self.created


#: Head-flit arrival kinds (an LT completion somewhere).
_ARRIVALS = (EventKind.BW, EventKind.LATCH)


def decompose_packet(events: List[TraceEvent]) -> Optional[
        LatencyDecomposition]:
    """Fold one packet's events (record order) into a decomposition.

    Returns None for packets that were not delivered (no tail SINK), or
    whose timeline is incomplete (NEW/INJ evicted from the ring buffer,
    or the packet was dropped/failed mid-flight).
    """
    new_ev: Optional[TraceEvent] = None
    inj_ev: Optional[TraceEvent] = None
    head_sink: Optional[TraceEvent] = None
    tail_sink: Optional[TraceEvent] = None
    length = None
    for e in events:
        if e.kind == EventKind.NEW:
            new_ev = e
            length = e.info
        elif e.kind == EventKind.INJ and inj_ev is None and e.flit == 0:
            inj_ev = e
        elif e.kind == EventKind.SINK:
            if e.flit == 0:
                head_sink = e
            if length is not None and e.flit == length - 1:
                tail_sink = e
    if (new_ev is None or inj_ev is None or head_sink is None
            or tail_sink is None):
        return None
    d = LatencyDecomposition(
        pid=new_ev.pid, src=new_ev.node, dst=new_ev.port, length=length,
        created=new_ev.cycle, ejected=tail_sink.cycle)
    d.queueing = inj_ev.cycle - new_ev.cycle
    # Walk the head flit's milestones, attributing each gap by the pair
    # of event kinds that bound it.
    current = inj_ev.cycle
    prev_kind = EventKind.INJ
    stalls = 0
    for e in events:
        if e.seq <= inj_ev.seq:
            continue
        if e.kind == EventKind.WU_STALL:
            stalls += 1
            continue
        if e.flit != 0:
            continue
        if e.kind in _ARRIVALS:
            gap = e.cycle - current
            if prev_kind == EventKind.LATCH:
                # Latch -> input-buffer hand-over at wakeup (BW recorded
                # at the wake cycle): time sat in the bypass latch.
                d.bypass += gap
            else:
                d.link += gap
        elif e.kind == EventKind.SA:
            gap = e.cycle - current
            d.wakeup += stalls
            d.pipeline += gap - stalls
            stalls = 0
        elif e.kind == EventKind.FWD:
            d.bypass += e.cycle - current
        elif e.kind == EventKind.SINK:
            gap = e.cycle - current
            if prev_kind == EventKind.LATCH:
                d.bypass += gap  # ejected straight from the bypass latch
            else:
                d.link += gap
        else:
            continue  # RC/VA: informational, not a milestone
        current = e.cycle
        prev_kind = e.kind
        if e is head_sink:
            break
    d.serialization = tail_sink.cycle - head_sink.cycle
    return d


def decompose_trace(trace: EventTrace) -> Dict[int, LatencyDecomposition]:
    """Decompose every delivered packet in a trace: pid -> components."""
    per_pid: Dict[int, List[TraceEvent]] = {}
    for e in trace.events():
        if e.pid >= 0:
            per_pid.setdefault(e.pid, []).append(e)
    out: Dict[int, LatencyDecomposition] = {}
    for pid, events in per_pid.items():
        d = decompose_packet(events)
        if d is not None:
            out[pid] = d
    return out


def summarize(decomps: Iterable[LatencyDecomposition]) -> Dict[str, float]:
    """Mean per-component cycles over a set of decompositions."""
    fields = ("queueing", "pipeline", "wakeup", "bypass", "link",
              "serialization")
    totals = {f: 0 for f in fields}
    n = 0
    for d in decomps:
        n += 1
        for f in fields:
            totals[f] += getattr(d, f)
    if n == 0:
        return {f: 0.0 for f in fields}
    return {f: totals[f] / n for f in fields}
