"""Which cycle kernel a run executes on.

The rule lives apart from the kernels (:mod:`repro.noc.network`,
:mod:`repro.noc.soa`) because a design point's cache key folds the
selected kernel in: a fully cached command must be able to ask "which
kernel would this run on" without importing either.
:mod:`repro.noc.network` re-exports every name here.
"""

from __future__ import annotations

import os
import warnings
from typing import Optional

#: The two cycle kernels: the object-graph reference (the readable
#: specification, the differential oracle, and the one kernel with the
#: fault / dense-scan hook surface) and the struct-of-arrays kernel
#: (:mod:`repro.noc.soa`), proven RunResult- and event-trace-identical
#: by tests/test_kernel_identity.py and the drift CI job.
BACKENDS = ("ref", "soa")


def resolve_backend(explicit: Optional[str] = None) -> Optional[str]:
    """The *pinned* kernel, canonically named: explicit argument >
    ``REPRO_BACKEND`` > ``None`` (nothing pinned - :func:`select_kernel`
    picks from what the run carries).  Raises ``ValueError`` on unknown
    names."""
    name = explicit
    if name is None:
        name = os.environ.get("REPRO_BACKEND", "").strip()
        if not name:
            return None
    name = str(name).strip().lower()
    if name == "reference":
        name = "ref"
    if name not in BACKENDS:
        raise ValueError(
            f"unknown simulation backend {name!r}; known: "
            + ", ".join(BACKENDS))
    return name


def _env_flag(name: str) -> bool:
    """Whether the ``REPRO_*`` switch ``name`` is set to a true value."""
    return os.environ.get(name, "").strip().lower() in (
        "1", "true", "yes", "on")


def select_kernel(pinned: Optional[str] = None, *, fault_plan=None,
                  skip_inactive: Optional[bool] = None) -> str:
    """The kernel a run executes on - the one place the rule lives
    (``Network.__new__`` and ``DesignPoint`` both call it): ``soa``
    unless the run carries a fault plan or dense scans.

    ``pinned`` (``backend=`` / ``--backend`` / ``REPRO_BACKEND``) is
    honoured when given.  Unpinned runs get ``soa`` unless they carry
    something only ``ref`` can serve - a fault plan (incl.
    ``REPRO_EMPTY_FAULTPLAN``) or dense scans
    (``skip_inactive=False`` / ``REPRO_NO_SKIP``) - in which case
    they run ``ref`` silently: nothing was requested, so nothing was
    ignored.  A *pinned* ``soa`` carrying one of those also runs
    ``ref`` (result-identical by the kernel-identity contract), with a
    ``RuntimeWarning`` naming the feature.
    """
    backend = resolve_backend(pinned)
    if backend == "ref":
        return "ref"
    if fault_plan is not None:
        feature = "fault injection"
    elif skip_inactive is False:
        feature = "dense scans (skip_inactive=False)"
    elif skip_inactive is None and _env_flag("REPRO_NO_SKIP"):
        feature = "dense scans (REPRO_NO_SKIP)"
    elif _env_flag("REPRO_EMPTY_FAULTPLAN"):
        feature = ("the empty-FaultPlan drift harness "
                   "(REPRO_EMPTY_FAULTPLAN)")
    else:
        return "soa"
    if backend == "soa":
        # Result-identical by the kernel-identity contract, but an
        # ignored explicit request makes perf numbers confusing, so say
        # why.  Python's default filter shows it once per call site.
        warnings.warn(f"the 'soa' kernel does not support {feature}; "
                      f"falling back to the 'ref' kernel "
                      f"(result-identical)", RuntimeWarning, stacklevel=3)
    return "ref"
