"""Regression: a wedged network aborts with diagnostics, never hangs.

``Network`` declares a deadlock after ``deadlock_limit`` cycles without
flit movement while flits are outstanding.  The abort must carry an
actionable message (where the stuck flits sit, what to check) instead
of spinning forever.
"""

import pickle

import pytest

from repro.config import Design, SimConfig
from repro.errors import (DeadlockError, LivelockError, SimulationError,
                          SimulationHang)
from repro.noc.network import DEADLOCK_LIMIT, LIVELOCK_LIMIT, Network
from repro.traffic.base import NullTraffic, ScriptedTraffic


def wedged_network(limit=150, backend=None):
    """A network whose packet can never make progress: every mesh output
    port is marked gated (as if all neighbors were off with no bypass),
    so switch allocation starves forever."""
    cfg = SimConfig(design=Design.NO_PG, warmup_cycles=0,
                    measure_cycles=50, drain_cycles=10_000, seed=1)
    net = Network(cfg, backend=backend)
    net.deadlock_limit = limit
    net._gated[:] = [True] * len(net._gated)
    return net


class TestDeadlockAbort:
    def test_default_limit_wired(self):
        net = Network(SimConfig(design=Design.NO_PG))
        assert net.deadlock_limit == DEADLOCK_LIMIT

    def test_wedged_run_aborts_with_diagnostics(self):
        net = wedged_network(limit=150)
        traffic = ScriptedTraffic([(0, 0, 5, 1)], num_nodes=16)
        with pytest.raises(RuntimeError) as excinfo:
            net.run(traffic)
        message = str(excinfo.value)
        assert "possible deadlock" in message
        assert "Flit locations" in message
        assert "1 flits outstanding" in message
        # points at something to do, not just "it broke"
        assert "escape-VC" in message and "deadlock_limit" in message
        # aborted promptly after the limit, not after the full drain
        assert net.now < 50 + 150 + 50

    def test_abort_names_the_stuck_router(self):
        net = wedged_network(limit=120)
        with pytest.raises(RuntimeError) as excinfo:
            net.run(ScriptedTraffic([(0, 3, 7, 1)], num_nodes=16))
        assert "router" in str(excinfo.value)

    def test_quiet_network_never_trips(self):
        """No outstanding flits -> no deadlock, however long it idles."""
        net = Network(SimConfig(design=Design.NO_PG, warmup_cycles=0,
                                measure_cycles=10, drain_cycles=0))
        net.deadlock_limit = 3
        net.run(NullTraffic(16), warmup=0, measure=10, drain=0)
        for _ in range(20):
            net.step()  # must not raise

    def test_raising_limit_defers_the_abort(self):
        net = wedged_network(limit=10_000)
        traffic = ScriptedTraffic([(0, 0, 5, 1)], num_nodes=16)
        for _ in range(200):
            net._inject_arrivals(traffic)
            net.step()  # under the limit: no abort yet
        assert net.outstanding_flits > 0


class TestTypedErrors:
    """The abort is a typed error carrying structured diagnostics."""

    def wedge(self):
        net = wedged_network(limit=150)
        traffic = ScriptedTraffic([(0, 0, 5, 1)], num_nodes=16)
        with pytest.raises(RuntimeError) as excinfo:
            net.run(traffic)
        return excinfo.value

    def test_abort_is_a_deadlock_error(self):
        err = self.wedge()
        assert isinstance(err, DeadlockError)
        # the full hierarchy, so every existing handler keeps working
        assert isinstance(err, SimulationHang)
        assert isinstance(err, SimulationError)
        assert isinstance(err, RuntimeError)
        assert err.kind == "deadlock"

    def test_diagnostics_name_stuck_routers_and_vcs(self):
        err = self.wedge()
        diag = err.diagnostics
        assert diag["kind"] == "deadlock"
        assert diag["design"] == Design.NO_PG
        assert diag["outstanding_flits"] == 1
        assert diag["limit"] == 150
        # Injected at 0, starved in SA.
        assert [entry["node"] for entry in diag["routers"]] == [0]
        entry = diag["routers"][0]
        assert entry["node"] == 0
        assert entry["state"] == "ON"
        assert entry["buffered"] >= 1
        # (in_port, vc) pairs of the non-empty FIFOs
        assert entry["stuck_vcs"] and all(len(pair) == 2
                                          for pair in entry["stuck_vcs"])

    def test_both_kernels_report_the_same_diagnostics(self):
        """One ``hang_diagnostics`` over a per-kernel buffer walk:
        ``Network(cfg)`` is the soa kernel here, so the reference walk
        over the router objects is only reached when pinned."""
        errors = {}
        for backend in ("ref", "soa"):
            net = wedged_network(limit=150, backend=backend)
            assert net.backend == backend
            with pytest.raises(DeadlockError) as excinfo:
                net.run(ScriptedTraffic([(0, 0, 5, 1), (3, 2, 9, 5)],
                                        num_nodes=16))
            errors[backend] = excinfo.value
        diag = errors["ref"].diagnostics
        assert [(e["node"], e["buffered"], e["stuck_vcs"])
                for e in diag["routers"]] == [(0, 1, [[4, 0]]),
                                              (2, 5, [[4, 0]])]
        assert diag == errors["soa"].diagnostics
        assert str(errors["ref"]) == str(errors["soa"])

    def test_diagnostics_survive_pickling(self):
        """Workers ship these across process boundaries."""
        err = self.wedge()
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, DeadlockError)
        assert clone.diagnostics == err.diagnostics
        assert str(clone) == str(err)

    def test_livelock_limit_wired(self):
        net = Network(SimConfig(design=Design.NO_PG))
        assert net.livelock_limit == LIVELOCK_LIMIT

    def test_livelock_detector_fires(self):
        """No ejection for livelock_limit cycles -> LivelockError.

        The deadlock check (no *movement*) fires first when it can, so
        raising its limit isolates the ejection-starvation detector: the
        wedged packet keeps the network "outstanding" while nothing ever
        reaches a destination NI.
        """
        net = wedged_network(limit=10_000_000)
        net.livelock_limit = 300
        traffic = ScriptedTraffic([(0, 0, 5, 1)], num_nodes=16)
        with pytest.raises(LivelockError) as excinfo:
            net.run(traffic)
        err = excinfo.value
        assert err.kind == "livelock"
        assert "livelock" in str(err)
        assert err.diagnostics["kind"] == "livelock"
        assert err.diagnostics["limit"] == 300
        assert err.diagnostics["outstanding_flits"] > 0
        assert net.now < 50 + 300 + 50  # aborted promptly

    def test_ejections_keep_livelock_quiet(self):
        """A healthy run never trips the livelock detector even with a
        limit far below the run length."""
        cfg = SimConfig(design=Design.NO_PG, warmup_cycles=0,
                        measure_cycles=400, drain_cycles=1_000, seed=1)
        net = Network(cfg)
        net.livelock_limit = 150
        from repro.traffic.synthetic import uniform_random
        net.run(uniform_random(net.mesh, 0.05, seed=3))  # must not raise
        assert net.outstanding_flits == 0
