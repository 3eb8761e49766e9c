"""Typed simulation errors with machine-readable diagnostics.

Every class is a ``RuntimeError`` (``except RuntimeError`` handlers keep
working) that also carries a structured ``diagnostics`` dict: the sweep
runner keeps it on a failed point and retries only a
:class:`SimulationHang`, and tests assert that it names the stuck
routers instead of grepping the prose.

Diagnostics layout for hangs::

    {
        "kind": "deadlock" | "livelock",
        "design": "NoRD",
        "cycle": 12345,
        "outstanding_flits": 7,
        "limit": 5000,
        "routers": [
            {"node": 3, "state": "OFF", "buffered": 2,
             "latched": 1, "queued": 0, "stuck_vcs": [[1, 0], [1, 2]]},
            ...
        ],
    }

Only routers holding flits appear in ``routers``; ``stuck_vcs`` lists
``(in_port, vc)`` pairs whose FIFOs are non-empty.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class SimulationError(RuntimeError):
    """Base class for structured simulator errors.

    ``diagnostics`` is a JSON-safe dict (picklable across process
    boundaries, printable by harness code); the positional message is
    the human-readable rendering.
    """

    def __init__(self, message: str,
                 diagnostics: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(message)
        self.diagnostics: Dict[str, Any] = diagnostics or {}

    def __reduce__(self):
        # Default exception pickling re-calls __init__ with ``args`` only,
        # which would drop ``diagnostics`` when the error crosses a worker
        # process boundary.
        return (type(self), (self.args[0] if self.args else "",
                             self.diagnostics))


class SimulationHang(SimulationError):
    """The network stopped making forward progress (see subclasses)."""

    #: ``"deadlock"`` or ``"livelock"`` (mirrors ``diagnostics["kind"]``).
    kind = "hang"

    @property
    def stuck_routers(self):
        """Node ids of the routers holding stuck flits."""
        return [entry["node"] for entry in self.diagnostics.get("routers", [])]


class DeadlockError(SimulationHang):
    """No flit moved for ``deadlock_limit`` cycles with flits outstanding."""

    kind = "deadlock"


class LivelockError(SimulationHang):
    """Flits kept moving but none ejected for ``livelock_limit`` cycles.

    The classic cause is a misroute-cap bug: packets circle on adaptive
    resources (movement looks healthy) without ever converging on their
    destinations.
    """

    kind = "livelock"


class CreditAccountingError(SimulationError):
    """A NoRD router would gate off while a credit owed to its ring
    predecessor is lost in flight (a seeded credit fault: a retry
    replays it).  ``diagnostics``: ``kind`` (``"credit-accounting"``),
    ``node``, ``predecessor``, ``vc``, ``credit``/``max`` (the
    predecessor's count and limit), ``credits_lost``, ``cycle``."""


class RunTimeout(SimulationError):
    """A design-point run exceeded the harness wall-clock budget."""


class SweepInterrupted(SimulationError):
    """A sweep was stopped by SIGINT/SIGTERM before completing.

    Raised by the sweep runner after it has flushed the journal and
    partial results; ``diagnostics`` carries what the CLI needs to print
    a copy-pasteable resume command (``journal`` path, ``completed`` /
    ``total`` point counts).
    """
