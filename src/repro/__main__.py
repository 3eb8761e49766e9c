"""``python -m repro`` entry point.

The ``__name__`` guard keeps the module safe to import: importing it by
name (``import repro.__main__``, ``runpy`` with another ``run_name``, a
tool that imports every module) binds ``main`` without running a
command.  It is not what stops ``--jobs N`` workers from recursing: a
spawned worker re-runs the parent's main module as ``__mp_main__``
unless that module's name ends in ``.__main__``, so ``python -m repro``
workers never import this file.  The entry points that are re-run - a
script such as ``bench/repro_subset.py``, or ``python -m
repro.trace.golden`` - carry their own guard.
"""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
