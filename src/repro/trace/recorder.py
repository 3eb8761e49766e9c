"""The bounded event recorder and its exporters.

:class:`EventTrace` is what a :class:`repro.noc.network.Network` records
into when tracing is enabled.  Events land in a bounded ring buffer
(oldest evicted first), so a trace's memory footprint is capped by
``limit`` regardless of run length; per-kind counters cover the whole
run even when the ring wrapped.

Exported artifacts:

* **JSONL** - one canonical line-object per retained event, diffable
  with standard tools;
* **Chrome trace / Perfetto** - a ``traceEvents`` JSON that loads
  directly into https://ui.perfetto.dev (or ``chrome://tracing``):
  instant events per recorded event plus async spans for each packet's
  lifetime;
* **digest** - a compact, deterministic summary (per-kind counts + a
  SHA-256 over the canonical event stream) that the golden-trace
  regression harness commits under ``tests/goldens/`` and diffs in CI.

Packet ids are *normalized* at export time (dense ids in order of first
appearance in the stream), so digests and JSONL files do not depend on
how the network numbered its packets or on how many the bounded buffer
dropped before the retained window.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List

from .events import (BYPASS_KINDS, EVENT_NAMES, NI_KINDS, PG_KINDS,
                     EventKind, TraceEvent)
from .spec import DEFAULT_LIMIT, TraceSpec


class EventTrace:
    """Bounded ring buffer of :class:`TraceEvent` records."""

    __slots__ = ("limit", "_ring", "_seq", "counts")

    def __init__(self, limit: int = DEFAULT_LIMIT) -> None:
        if limit < 1:
            raise ValueError("trace limit must be >= 1")
        self.limit = limit
        self._ring: Deque[TraceEvent] = deque(maxlen=limit)
        self._seq = 0
        #: Per-kind event totals over the whole run (evicted included).
        self.counts: List[int] = [0] * len(EVENT_NAMES)

    # -- recording (the hot path) ---------------------------------------
    def record(self, cycle: int, kind: int, node: int, port: int = -1,
               vc: int = -1, pid: int = -1, flit: int = -1,
               info: int = 0) -> None:
        self._ring.append(TraceEvent(self._seq, cycle, kind, node, port,
                                     vc, pid, flit, info))
        self._seq += 1
        self.counts[kind] += 1

    # -- views -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ring)

    @property
    def recorded(self) -> int:
        """Total events recorded, including any evicted from the ring."""
        return self._seq

    @property
    def dropped(self) -> int:
        """Events evicted because the ring buffer was full."""
        return self._seq - len(self._ring)

    def events(self) -> List[TraceEvent]:
        """Retained events in record order."""
        return list(self._ring)

    def pid_map(self) -> Dict[int, int]:
        """Raw pid -> dense normalized pid, by first appearance."""
        mapping: Dict[int, int] = {}
        for e in self._ring:
            if e.pid >= 0 and e.pid not in mapping:
                mapping[e.pid] = len(mapping)
        return mapping

    # -- exporters --------------------------------------------------------
    def canonical_lines(self) -> List[str]:
        """Canonical one-line forms with normalized pids (digest input)."""
        pids = self.pid_map()
        return [e.canonical(pids.get(e.pid, -1)) for e in self._ring]

    def write_jsonl(self, path) -> Path:
        """One JSON object per retained event; pids normalized."""
        path = Path(path)
        pids = self.pid_map()
        with path.open("w") as fh:
            for e in self._ring:
                fh.write(json.dumps({
                    "cycle": e.cycle,
                    "kind": EVENT_NAMES[e.kind],
                    "node": e.node,
                    "port": e.port,
                    "vc": e.vc,
                    "pid": pids.get(e.pid, -1),
                    "flit": e.flit,
                    "info": e.info,
                }, separators=(",", ":")) + "\n")
        return path

    def write_chrome(self, path) -> Path:
        """Chrome-trace JSON (loadable in Perfetto / chrome://tracing).

        Layout: one Perfetto "process" per node, with the node's events
        as instant marks on per-category tracks; packets additionally
        get async begin/end spans (NEW to tail SINK) so their lifetimes
        render as bars.
        """
        path = Path(path)
        pids = self.pid_map()
        out: List[dict] = [
            {"name": "process_name", "ph": "M", "pid": node,
             "args": {"name": f"node {node}"}}
            for node in sorted({e.node for e in self._ring})]
        first_seen: Dict[int, TraceEvent] = {}
        last_sink: Dict[int, TraceEvent] = {}
        for e in self._ring:
            npid = pids.get(e.pid, -1)
            out.append({
                "name": EVENT_NAMES[e.kind],
                "ph": "i",
                "s": "t",
                "ts": e.cycle,
                "pid": e.node,
                "tid": _track_for(e.kind),
                "args": {"port": e.port, "vc": e.vc, "pkt": npid,
                         "flit": e.flit, "info": e.info},
            })
            if e.pid >= 0:
                first_seen.setdefault(e.pid, e)
                if e.kind == EventKind.SINK:
                    last_sink[e.pid] = e
        for pid, first in first_seen.items():
            end = last_sink.get(pid)
            if end is None:
                continue
            npid = pids[pid]
            span = {"cat": "packet", "name": f"pkt{npid}",
                    "id": npid, "pid": first.node}
            out.append({**span, "ph": "b", "ts": first.cycle})
            out.append({**span, "ph": "e", "ts": end.cycle,
                        "pid": end.node})
        payload = {
            "traceEvents": out,
            "displayTimeUnit": "ns",
            "metadata": {"unit": "cycles",
                         "dropped_events": self.dropped},
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))
        return path

    def digest(self) -> Dict[str, object]:
        """Deterministic per-run summary for golden-trace regression.

        ``sha256`` hashes the canonical (pid-normalized) event stream,
        so *any* reordering, addition or removal of events changes it;
        the per-kind counts make the nature of a diff legible before
        anyone opens the full JSONL.
        """
        import hashlib  # OpenSSL: only a digest of a trace loads it
        blob = "\n".join(self.canonical_lines()).encode()
        return {
            "events": len(self._ring),
            "recorded": self.recorded,
            "dropped": self.dropped,
            "counts": {EVENT_NAMES[k]: c
                       for k, c in enumerate(self.counts) if c},
            "sha256": hashlib.sha256(blob).hexdigest(),
        }


def _track_for(kind: int) -> str:
    """Perfetto track (thread) name grouping related event kinds."""
    if kind in PG_KINDS:
        return "power-gate"
    if kind in BYPASS_KINDS:
        return "bypass"
    if kind in NI_KINDS:
        return "ni"
    return "pipeline"


def export_trace(trace: EventTrace, spec: TraceSpec, basename: str) -> Path:
    """Write ``basename.jsonl`` (+ ``.chrome.json`` when requested) and
    ``basename.digest.json`` under ``spec.directory``; returns the JSONL
    path."""
    directory = Path(spec.directory)
    directory.mkdir(parents=True, exist_ok=True)
    jsonl = trace.write_jsonl(directory / f"{basename}.jsonl")
    if spec.chrome:
        trace.write_chrome(directory / f"{basename}.chrome.json")
    digest_path = directory / f"{basename}.digest.json"
    digest_path.write_text(json.dumps(trace.digest(), sort_keys=True,
                                      indent=1) + "\n")
    return jsonl
