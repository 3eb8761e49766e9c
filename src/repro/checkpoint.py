"""Periodic run checkpointing (crash safety, ISSUE 8).

A *checkpoint* is a self-contained capture of one in-flight design-point
run: the :class:`~repro.noc.network.NetworkSnapshot` (full kernel
state), the :class:`~repro.noc.network.RunProgress` phase-machine
position, and the pickled traffic source (its RNG state included).  A
run killed between checkpoints resumes from the last one and - by the
snapshot/restore differential oracle - produces a result byte-identical
to an uninterrupted run.

File format: ``MAGIC`` line, one hex SHA-256 line over the body, then
the pickled :class:`SimCheckpoint`.  Writes go through a temp file +
``fsync`` + atomic rename, so the file on disk is always either the
previous complete checkpoint or the new one - never a torn mix.  Any
validation failure on load (bad magic, checksum mismatch, another
design point's key) reads as "no checkpoint": the run restarts from
cycle 0, which is always correct, just slower.  The key is the point's
cache key, which hashes the code fingerprint, so a checkpoint older
code wrote never resumes.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from .experiments.journal import write_atomic

if TYPE_CHECKING:  # pragma: no cover - CheckpointSpec rides on cached points
    from .noc.network import NetworkSnapshot, RunProgress

#: The file-type tag every checkpoint file starts with.
MAGIC = b"repro-checkpoint\n"


@dataclass(frozen=True)
class CheckpointSpec:
    """Where and how often to checkpoint a run.

    Picklable and cheap: rides on a ``DesignPoint`` (excluded from its
    cache key - checkpointing never changes the result) into the worker
    process.  ``interval`` is in simulated cycles.
    """

    directory: str
    interval: int

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError("checkpoint interval must be >= 1 cycle")


@dataclass
class SimCheckpoint:
    """Everything needed to resume one design-point run mid-flight."""

    #: The design point's cache key - a resumed run must be the *same*
    #: point, run by the same code (the key hashes
    #: :func:`repro.experiments.parallel.code_version`), not merely one
    #: writing to the same path.
    key: str
    cycle: int
    #: Wall-clock seconds consumed before this checkpoint (across every
    #: earlier attempt), so the final result reports honest totals.
    wall_clock_s: float
    snapshot: NetworkSnapshot
    progress: RunProgress
    #: Pickled traffic generator, captured at the same cycle as the
    #: network snapshot (separate object graphs: the network never
    #: references the traffic source).
    traffic_blob: bytes


def checkpoint_path(spec: CheckpointSpec, basename: str) -> Path:
    return Path(spec.directory) / f"{basename}.ckpt"


def save_checkpoint(path: Path, ckpt: SimCheckpoint) -> None:
    """Atomically persist ``ckpt`` at ``path`` (temp + fsync + rename)."""
    body = pickle.dumps(ckpt, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(body).hexdigest().encode("ascii")
    write_atomic(Path(path), MAGIC + digest + b"\n" + body, fsync=True)


def load_checkpoint(path: Path, *, key: str) -> Optional[SimCheckpoint]:
    """Read and validate a checkpoint; None when absent or unusable."""
    try:
        raw = Path(path).read_bytes()
    except OSError:
        return None
    if not raw.startswith(MAGIC):
        return None
    rest = raw[len(MAGIC):]
    nl = rest.find(b"\n")
    if nl < 0:
        return None
    digest, body = rest[:nl], rest[nl + 1:]
    if hashlib.sha256(body).hexdigest().encode("ascii") != digest:
        return None
    try:
        ckpt = pickle.loads(body)
    except Exception:  # noqa: BLE001 - any corruption reads as absent
        return None
    if not isinstance(ckpt, SimCheckpoint) or ckpt.key != key:
        return None
    return ckpt


def discard_checkpoint(path: Path) -> None:
    """Remove a consumed checkpoint (missing files are fine)."""
    try:
        os.unlink(path)
    except OSError:
        pass
