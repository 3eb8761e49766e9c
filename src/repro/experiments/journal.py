"""Write-ahead sweep journal (crash safety), and the sealed record both
stores keep.

One JSON record per line, appended with an ``fsync`` per record, so the
journal on disk is always a prefix of the sweep's true history - a
SIGKILLed parent loses at most the record being written (the loader
tolerates a torn final line).  Record shapes::

    {"ev": "sweep",   "total": N, "resume": bool, "ts": ...}
    {"ev": "queued",  "key": <cache key>, "point": <basename>}
    {"ev": "leased",  "key": ..., "pid": ..., "worker": ...}
    {"ev": "requeued","key": ..., "reason": ...}
    {"ev": "done",    "key": ..., "body": "<canonical JSON>",
                      "sha256": ...}
    {"ev": "failed",  "key": ..., "kind": ..., "message": ...}
    {"ev": "interrupted", "completed": n, "total": N}

``done`` records embed the full result payload, so ``--resume`` can
reconstruct completed points from the journal alone - it does not
depend on the result cache being enabled or intact.  Keys are the
points' content-derived cache keys, so resume matches points by what
they *are*, not by their position in a rebuilt sweep.

The payload is *sealed* (:func:`seal`): ``body`` is the canonical JSON
text of :func:`encode_outcome`'s dict and ``sha256`` the digest of its
bytes.  A result-cache entry (:class:`repro.experiments.parallel.
ResultCache`) carries the same two fields, and both stores read back
through :func:`unseal`, so nothing is handed back whose stored bytes do
not match their checksum.  In that body the result's router counters
are rows and its idle histograms ``[length, count]`` pairs
(:meth:`repro.stats.collector.RunResult.to_dict`); a row of the wrong
length does not decode, so its point is not resumed.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from ..power.model import EnergyReport
from ..stats.collector import RunResult

#: Bump on incompatible record-shape changes; ``--resume`` ignores
#: journals written by other versions rather than misreading them
#: (2: ``done`` records carry a sealed ``body``; 3: that body stores
#: router counters as rows and idle histograms as pairs).
JOURNAL_FORMAT = 3

SweepOutcome = Tuple[RunResult, EnergyReport]


# ---------------------------------------------------------------------------
# the sealed record (shared with the result cache)
# ---------------------------------------------------------------------------
def seal(data: Dict[str, Any]) -> Dict[str, str]:
    """``data`` as stored: its canonical JSON text and the SHA-256 of
    that text's bytes."""
    body = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return {"body": body,
            "sha256": hashlib.sha256(body.encode("utf-8")).hexdigest()}


def unseal(record: Any, decode: Callable[[Dict[str, Any]], Any]) -> Any:
    """The value ``decode`` maps a sealed record's body to, or None when
    a field is missing or the body is not the text the checksum was
    taken over (bit rot, truncation, an edit that still parses)."""
    try:
        body = record["body"]
        if hashlib.sha256(body.encode("utf-8")).hexdigest() \
                != record["sha256"]:
            return None
        return decode(json.loads(body))
    except (AttributeError, KeyError, TypeError, ValueError):
        return None


def write_atomic(path: Path, data: bytes, *, fsync: bool = False) -> None:
    """Replace ``path`` by ``data`` whole or not at all: a temp file in
    the same directory, renamed over it (``fsync``: durably)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def encode_outcome(outcome: SweepOutcome) -> Dict[str, Any]:
    """The dict a finished point is stored as."""
    result, energy = outcome
    return {"result": result.to_dict(), "energy": energy.to_dict()}


def decode_outcome(data: Dict[str, Any]) -> SweepOutcome:
    """The outcome :func:`encode_outcome` made ``data`` of."""
    return (RunResult.from_dict(data["result"]),
            EnergyReport.from_dict(data["energy"]))


class SweepJournal:
    """Append-only, fsync-per-record journal of one (or more) sweeps."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")

    def append(self, record: Dict[str, Any]) -> None:
        record = {"format": JOURNAL_FORMAT, "ts": time.time(), **record}
        self._fh.write(json.dumps(record, sort_keys=True,
                                  separators=(",", ":")) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:
            pass

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def load_journal(path) -> List[Dict[str, Any]]:
    """Read every intact record; a torn final line is silently dropped."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError:
        return []
    records: List[Dict[str, Any]] = []
    lines = text.split("\n")
    for pos, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            if pos >= len(lines) - 2:
                continue  # torn tail from a mid-write kill
            raise ValueError(
                f"{path}:{pos + 1}: corrupt journal record (not at the "
                f"tail - refusing to resume from a damaged journal)")
        if isinstance(record, dict) \
                and record.get("format") == JOURNAL_FORMAT:
            records.append(record)
    return records


def completed_outcomes(
        records: List[Dict[str, Any]]) -> Dict[str, SweepOutcome]:
    """Map cache key -> outcome for every ``done`` record that verifies
    (:func:`unseal`); a point whose record does not is simply not
    resumed and runs again.

    Later records win (a re-run of the same point after a code change
    would have a different key, so collisions only happen for genuine
    duplicates with identical results).
    """
    out: Dict[str, SweepOutcome] = {}
    for record in records:
        if record.get("ev") != "done":
            continue
        key = record.get("key")
        outcome = unseal(record, decode_outcome)
        if outcome is not None and isinstance(key, str):
            out[key] = outcome
    return out


def executed_keys(records: List[Dict[str, Any]]) -> List[str]:
    """Keys of points that actually ran (leased at least once), in
    first-lease order - what the chaos harness checks ``--resume``
    against ("only the lost points re-ran")."""
    keys: List[str] = []
    seen = set()
    for record in records:
        if record.get("ev") == "leased":
            key = record.get("key")
            if isinstance(key, str) and key not in seen:
                seen.add(key)
                keys.append(key)
    return keys
