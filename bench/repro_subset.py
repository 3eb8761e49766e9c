"""``python -m repro`` with ``run-all`` restricted to named experiments.

    python bench/repro_subset.py fig3,fig14 run-all --scale smoke --jobs 2

The full smoke ``run-all`` takes about a minute on the reference host,
36 s of it in ``fig15``; the benchmark has to fit 22 runs of every
workload in under an hour, so its run-all workloads leave ``fig15`` out
(``kernel_busy`` runs fig15's operating point in-process instead).
Everything else - one ``run_all`` call, one runner, one pool per sweep,
the footers - is the program's own: this launcher only drops entries
from the public ``EXPERIMENTS`` table before handing over to the CLI.
"""

import sys

if __name__ == "__main__":  # spawn workers re-import this file
    from repro.cli import main
    from repro.experiments.runner import EXPERIMENTS

    keep = sys.argv[1].split(",")
    unknown = [name for name in keep if name not in EXPERIMENTS]
    if unknown:
        sys.exit(f"repro_subset: unknown experiments {unknown}")
    for name in list(EXPERIMENTS):
        if name not in keep:
            del EXPERIMENTS[name]
    sys.exit(main(sys.argv[2:]))
