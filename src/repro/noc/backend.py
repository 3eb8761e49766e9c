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
#: specification, the differential oracle and the one kernel with dense
#: scans) and the struct-of-arrays kernel (:mod:`repro.noc.soa`), proven
#: RunResult- and event-trace-identical, faults included, by
#: tests/test_kernel_identity.py and the drift CI job.
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


def select_kernel(pinned: Optional[str] = None, *,
                  skip_inactive: Optional[bool] = None) -> str:
    """The kernel a run executes on - the one place the rule lives
    (``Network.__new__`` and ``DesignPoint`` both call it): the pin,
    else ``soa`` unless the run asks for dense scans.

    ``pinned`` (``backend=`` / ``--backend`` / ``REPRO_BACKEND``) is
    honoured when given.  Unpinned dense-scan runs
    (``skip_inactive=False`` / ``REPRO_NO_SKIP``) run ``ref``, which
    alone serves them, silently: nothing was requested, so nothing was
    ignored.  A *pinned* ``soa`` with dense scans also runs ``ref``
    (result-identical by the kernel-identity contract), with a
    ``RuntimeWarning``.  Fault plans, traces and metrics recorders
    select nothing: both kernels serve them.
    """
    backend = resolve_backend(pinned)
    if backend == "ref":
        return "ref"
    if skip_inactive is False:
        feature = "dense scans (skip_inactive=False)"
    elif skip_inactive is None and _env_flag("REPRO_NO_SKIP"):
        feature = "dense scans (REPRO_NO_SKIP)"
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
