"""Write-ahead sweep journal (crash safety, ISSUE 8).

One JSON record per line, appended with an ``fsync`` per record, so the
journal on disk is always a prefix of the sweep's true history - a
SIGKILLed parent loses at most the record being written (the loader
tolerates a torn final line).  Record shapes::

    {"ev": "sweep",   "total": N, "resume": bool, "ts": ...}
    {"ev": "queued",  "key": <cache key>, "point": <basename>}
    {"ev": "leased",  "key": ..., "pid": ..., "worker": ...}
    {"ev": "requeued","key": ..., "reason": ...}
    {"ev": "done",    "key": ..., "result": {...}, "energy": {...},
                      "sha256": ...}
    {"ev": "failed",  "key": ..., "kind": ..., "message": ...}
    {"ev": "interrupted", "completed": n, "total": N}

``done`` records embed the full result payload, so ``--resume`` can
reconstruct completed points from the journal alone - it does not
depend on the result cache being enabled or intact.  Keys are the
points' content-derived cache keys, so resume matches points by what
they *are*, not by their position in a rebuilt sweep.

The payload is the *outcome record* ``{"result", "energy", "sha256"}``,
written by :func:`encode_outcome` and read back by
:func:`decode_outcome`.  The result cache
(:class:`repro.experiments.parallel.ResultCache`) stores the same three
fields through the same two functions, so a finished point has one
encoding and nothing is handed back - from either store - that does
not verify against its checksum.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..power.model import EnergyReport
from ..stats.collector import RunResult

#: Bump on incompatible record-shape changes; ``--resume`` ignores
#: journals written by other versions rather than misreading them.
JOURNAL_FORMAT = 1

SweepOutcome = Tuple[RunResult, EnergyReport]


# ---------------------------------------------------------------------------
# the outcome record (shared with the result cache)
# ---------------------------------------------------------------------------
def _content_checksum(record: Dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON of a record's ``result`` and
    ``energy``: it commits to exactly the values a reader hands back."""
    blob = json.dumps({"result": record["result"],
                       "energy": record["energy"]},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def encode_outcome(outcome: SweepOutcome) -> Dict[str, Any]:
    """The JSON-ready record of one finished point."""
    result, energy = outcome
    record = {"result": result.to_dict(), "energy": energy.to_dict()}
    record["sha256"] = _content_checksum(record)
    return record


def decode_outcome(record: Any) -> Optional[SweepOutcome]:
    """The outcome a stored record carries, or None when it cannot be
    trusted: not a mapping, a field missing or of the wrong shape, or
    values that are not the ones the checksum was taken over (bit rot,
    truncation or an edit that still parses as JSON)."""
    try:
        if record["sha256"] != _content_checksum(record):
            return None
        return (RunResult.from_dict(record["result"]),
                EnergyReport.from_dict(record["energy"]))
    except (KeyError, TypeError, ValueError):
        return None


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
    (:func:`decode_outcome`); a point whose record does not is simply
    not resumed and runs again.

    Later records win (a re-run of the same point after a code change
    would have a different key, so collisions only happen for genuine
    duplicates with identical results).
    """
    out: Dict[str, SweepOutcome] = {}
    for record in records:
        if record.get("ev") != "done":
            continue
        key = record.get("key")
        outcome = decode_outcome(record)
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
