"""Empty-fault-plan drift hook: every ``Network`` built in an interpreter
with this directory on ``PYTHONPATH`` carries an empty ``FaultPlan``
unless it was given a plan.

An empty plan wires every fault hook but injects nothing, so a run must
be byte-identical to a plan-less one.  Python imports ``sitecustomize``
at start-up, so spawned sweep workers inherit the hook through the
environment.  The ``drift`` CI job diffs a whole smoke ``run-all`` this
way::

    PYTHONPATH=src:tests/empty_faultplan python -m repro run-all \\
        --scale smoke --no-cache --jobs 2
"""

from repro.faults import FaultPlan
from repro.noc.network import Network

_init = Network.__init__


def _init_with_empty_plan(self, cfg, *args, fault_plan=None, **kwargs):
    if fault_plan is None:
        fault_plan = FaultPlan()
    _init(self, cfg, *args, fault_plan=fault_plan, **kwargs)


Network.__init__ = _init_with_empty_plan
