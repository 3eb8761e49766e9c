"""Property test: snapshot-at-any-cycle is invisible (crash safety).

Hypothesis picks the design, backend, traffic pattern, injection rate,
seed and the split cycle; the invariant is always the same: running k
cycles, snapshotting, restoring from the pickled bytes and finishing
must be field-identical to the uninterrupted run.  This sweeps the
split point across every phase (warmup, measure, drain, and past the
natural end of the run) rather than the handful of hand-picked
boundaries in test_snapshot_restore.py.
"""

import pickle

from hypothesis import given, settings, strategies as st

from repro.config import Design, NoCConfig, SimConfig
from repro.experiments.parallel import tornado_spec, uniform_spec
from repro.noc.network import Network, RunProgress

WARMUP, MEASURE, DRAIN = 60, 220, 400


def _cfg(design, seed):
    return SimConfig(design=design, noc=NoCConfig(width=4, height=4),
                     warmup_cycles=WARMUP, measure_cycles=MEASURE,
                     drain_cycles=DRAIN, seed=seed)


@settings(max_examples=25, deadline=None)
@given(
    design=st.sampled_from(Design.ALL),
    backend=st.sampled_from(["ref", "soa"]),
    kind=st.sampled_from([uniform_spec, tornado_spec]),
    rate=st.sampled_from([0.05, 0.10, 0.15]),
    seed=st.integers(min_value=1, max_value=50),
    # Beyond WARMUP + MEASURE + DRAIN the run may already be over;
    # run_split then degenerates to the straight run, which is fine.
    split=st.integers(min_value=0, max_value=WARMUP + MEASURE + DRAIN),
)
def test_snapshot_split_is_invisible(design, backend, kind, rate, seed,
                                     split):
    cfg = _cfg(design, seed)
    spec = kind(rate, seed=seed)

    net = Network(cfg, backend=backend)
    want = net.run(spec.build(net.mesh)).to_dict()

    net = Network(cfg, backend=backend)
    traffic = spec.build(net.mesh)
    progress = RunProgress(WARMUP, MEASURE, DRAIN)
    result = net.run_segment(traffic, progress, max_cycles=split)
    if result is None:
        blob = pickle.dumps((net.snapshot(), traffic, progress),
                            protocol=pickle.HIGHEST_PROTOCOL)
        snap, traffic, progress = pickle.loads(blob)
        net = Network.restore(snap)
        result = net.run_segment(traffic, progress)
    assert result is not None
    assert result.to_dict() == want
