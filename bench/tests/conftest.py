"""Make the benchmark's modules and the program importable.

Run as ``python -m pytest bench -q`` from the repo root; ``bench`` is
outside the repo's ``testpaths`` so the tier-1 suite does not grow.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
for entry in (BENCH, BENCH.parent / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
