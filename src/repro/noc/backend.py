"""Which cycle kernel a run executes on.

The rule lives apart from the kernels (:mod:`repro.noc.ref`,
:mod:`repro.noc.soa`) and their shared core (:mod:`repro.noc.network`)
because a design point's cache key folds the selected kernel in: a
fully cached command must be able to ask "which kernel would this run
on" without importing any of them.  :mod:`repro.noc.network`
re-exports every name here.
"""

from __future__ import annotations

from typing import Optional

#: The two cycle kernels: the object-graph reference (:mod:`repro.noc.ref`,
#: the readable specification and the differential oracle, scanning
#: every component every cycle) and the struct-of-arrays kernel
#: (:mod:`repro.noc.soa`, which skips quiescent ones), proven RunResult- and
#: event-trace-identical, faults included, by
#: tests/test_kernel_identity.py and the drift CI job.
BACKENDS = ("ref", "soa")


def resolve_backend(pinned: Optional[str] = None) -> Optional[str]:
    """The *pinned* kernel, canonically named, or ``None`` when nothing
    was pinned (:func:`select_kernel` then picks ``soa``).  Raises
    ``ValueError`` on unknown names."""
    if pinned is None:
        return None
    name = str(pinned).strip().lower()
    if name not in BACKENDS:
        raise ValueError(
            f"unknown simulation backend {name!r}; known: "
            + ", ".join(BACKENDS))
    return name


def select_kernel(pinned: Optional[str] = None) -> str:
    """The kernel a run executes on - the one place the rule lives
    (``Network.__new__`` and ``DesignPoint`` both call it): the pin
    (``backend=`` / ``--backend``), else ``soa``.
    Fault plans, traces and metrics recorders select nothing: both
    kernels serve them."""
    return resolve_backend(pinned) or "soa"
