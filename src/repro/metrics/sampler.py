"""The timeline sampler and the per-run metrics hook object.

:class:`MetricsRun` is what a :class:`repro.noc.network.Network` carries
when metrics are enabled (``Network(cfg, metrics=...)``).  Like the
event trace it is a *pure observer*: every hook site costs one ``is
None`` check when disabled, and recording never mutates simulation
state, so instrumented and plain runs produce field-identical
``RunResult``s (asserted by tests/test_metrics_identity.py and the
``drift`` CI job's ``--metrics`` variant).

Two recording paths feed it:

* **event hooks** (NI injections by path, bypass forwards, PG FSM
  transitions, packet ejections) increment registry counters /
  histograms as things happen;
* the **timeline sampler** fires every ``interval`` cycles from the
  end of ``Network.step()`` and converts the simulator's existing
  cumulative counters into windowed rates - power-state duty cycles,
  injection / ejection / bypass rates, link utilization,
  escape-vs-adaptive VC occupancy and NoRD wakeup-threshold pressure -
  without adding any per-event cost of its own.

Artifacts are written by :func:`export_metrics`:
``<basename>.metrics.jsonl`` (meta + snapshots + registry summary),
``<basename>.metrics.csv`` and ``<basename>.prom``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..noc.topology import NUM_PORTS
from ..powergate.controller import PowerState
from .registry import MetricsRegistry
from .spec import DEFAULT_INTERVAL, MetricsSpec

#: Bucket upper bounds (cycles) for the packet-latency histogram.
LATENCY_BOUNDS = (5, 10, 20, 50, 100, 200, 500, 1000)

#: Network-wide series recorded per snapshot, in column order.
NET_SERIES = (
    "off_fraction", "waking_fraction", "link_utilization",
    "inject_rate", "eject_rate", "bypass_rate",
    "escape_vc_occupancy", "adaptive_vc_occupancy", "wakeup_pressure",
)

#: JSONL schema version for the ``.metrics.jsonl`` artifact.
SCHEMA = 1


def idle_bucket_bounds(bet: int) -> Tuple[int, ...]:
    """Idle-period histogram edges anchored on the break-even time, so
    the first buckets split exactly at the gate-or-not boundary NoRD's
    Figure 3 argues about."""
    bet = max(1, int(bet))
    return tuple(sorted({1, 2, 5, bet, 2 * bet, 5 * bet, 20 * bet,
                         100 * bet}))


class TimelineSampler:
    """Windowed snapshots of a network's cumulative counters.

    Column-oriented storage: scalar series are flat lists indexed by
    snapshot, per-node series are lists of flat int lists.  Nothing
    here touches simulator state - it only reads counters that the
    components maintain anyway.
    """

    def __init__(self, interval: int = DEFAULT_INTERVAL) -> None:
        if interval < 1:
            raise ValueError("metrics interval must be >= 1")
        self.interval = interval
        self.cycles: List[int] = []
        self.windows: List[int] = []
        self.net: Dict[str, List[float]] = {k: [] for k in NET_SERIES}
        #: Per snapshot: cycles each node spent OFF within the window.
        self.node_off: List[List[int]] = []
        #: Per snapshot: cycles each node spent WAKING within the window.
        self.node_waking: List[List[int]] = []
        #: Per snapshot: flits buffered in each router at sample time.
        self.node_occupancy: List[List[int]] = []
        self._prev: Optional[tuple] = None
        self._esc_cap = 1
        self._ada_cap = 1

    # -- wiring -----------------------------------------------------------
    def attach(self, net) -> None:
        """Capture the counter baseline (cycle 0) and mesh constants."""
        cfg = net.cfg
        depth = cfg.noc.buffer_depth
        esc = cfg.escape_vcs
        ada = cfg.noc.vcs_per_port - esc
        n = net.mesh.num_nodes
        self._esc_cap = max(1, n * NUM_PORTS * esc * depth)
        self._ada_cap = max(1, n * NUM_PORTS * ada * depth)
        self._prev = self._counters(net)

    @staticmethod
    def _counters(net) -> tuple:
        net.settle_duty_counters()
        return (
            net.now,
            [c.cycles_off for c in net.controllers],
            [c.cycles_waking for c in net.controllers],
            sum(ni.n_injected_flits for ni in net.nis),
            sum(ni.n_ejected_flits for ni in net.nis),
            sum(ni.n_bypass_forwards for ni in net.nis),
            net.n_link_flits,
            sum(c.wakeups for c in net.controllers),
            sum(c.gate_offs for c in net.controllers),
        )

    @property
    def last_cycle(self) -> int:
        return self._prev[0] if self._prev is not None else 0

    def sample(self, net) -> Optional[Dict[str, int]]:
        """Record one snapshot; returns the window's counter deltas (for
        the registry) or ``None`` when no cycles elapsed."""
        if self._prev is None:  # pragma: no cover - attach() not called
            self.attach(net)
            return None
        cur = self._counters(net)
        (then, p_off, p_waking, p_inj, p_ej, p_byp, p_link,
         p_wake, p_goff) = self._prev
        window = cur[0] - then
        if window <= 0:
            return None
        self._prev = cur
        now, off, waking, inj, ej, byp, link, wake, goff = cur
        n = len(off)
        d_off = [b - a for a, b in zip(p_off, off)]
        d_waking = [b - a for a, b in zip(p_waking, waking)]
        node_cycles = n * window
        escape_vcs = net.cfg.escape_vcs
        esc_occ = 0
        node_occ = [0] * n
        for node in range(n):
            for _, vc, flits in net.buffered_vcs(node):
                node_occ[node] += flits
                if vc < escape_vcs:
                    esc_occ += flits
        ada_occ = sum(node_occ) - esc_occ
        self.cycles.append(now)
        self.windows.append(window)
        rec = self.net
        rec["off_fraction"].append(round(sum(d_off) / node_cycles, 6))
        rec["waking_fraction"].append(
            round(sum(d_waking) / node_cycles, 6))
        rec["link_utilization"].append(
            round((link - p_link) / (net._num_links * window), 6))
        rec["inject_rate"].append(round((inj - p_inj) / node_cycles, 6))
        rec["eject_rate"].append(round((ej - p_ej) / node_cycles, 6))
        rec["bypass_rate"].append(round((byp - p_byp) / node_cycles, 6))
        rec["escape_vc_occupancy"].append(
            round(esc_occ / self._esc_cap, 6))
        rec["adaptive_vc_occupancy"].append(
            round(ada_occ / self._ada_cap, 6))
        rec["wakeup_pressure"].append(round(_wakeup_pressure(net), 6))
        self.node_off.append(d_off)
        self.node_waking.append(d_waking)
        self.node_occupancy.append(node_occ)
        return {
            "injected": inj - p_inj,
            "ejected": ej - p_ej,
            "bypass": byp - p_byp,
            "link_flits": link - p_link,
            "off_cycles": sum(d_off),
            "waking_cycles": sum(d_waking),
            "wakeups": wake - p_wake,
            "gate_offs": goff - p_goff,
        }

    def mean_node_off_fraction(self) -> List[float]:
        """Per-node OFF duty over all recorded windows (heatmap input)."""
        if not self.windows:
            return []
        total = sum(self.windows)
        n = len(self.node_off[0])
        sums = [0] * n
        for row in self.node_off:
            for i, v in enumerate(row):
                sums[i] += v
        return [round(s / total, 6) for s in sums]


def _wakeup_pressure(net) -> float:
    """Max ``window_requests / threshold`` over gated NoRD routers: how
    close the most-pressured sleeping router is to its wakeup trigger.
    Zero for designs without per-router thresholds."""
    pressure = 0.0
    for ctrl in net.controllers:
        threshold = getattr(ctrl, "threshold", None)
        if threshold and ctrl.state != PowerState.ON:
            pressure = max(pressure,
                           ctrl.window_requests / threshold)
    return pressure


class MetricsRun:
    """A registry plus a timeline sampler, attached to one network."""

    def __init__(self, interval: int = DEFAULT_INTERVAL) -> None:
        self.interval = max(1, int(interval))
        self.registry = MetricsRegistry()
        self.timeline = TimelineSampler(self.interval)
        self._finalized = False
        r = self.registry
        self._inj = {
            "router": r.counter("ni_injected_flits_total", path="router"),
            "ring": r.counter("ni_injected_flits_total", path="ring"),
        }
        self._bypass = r.counter("ni_bypass_forwards_total")
        self._packets = r.counter("packets_ejected_total")
        self._latency = r.histogram("packet_latency_cycles",
                                    LATENCY_BOUNDS)
        self._link = r.counter("link_flits_total")
        self._off = r.counter("router_off_cycles_total")
        self._waking = r.counter("router_waking_cycles_total")
        self._wakeups = r.counter("pg_wakeups_total")
        self._gate_offs = r.counter("pg_gate_offs_total")

    # -- hook sites (one ``is None`` check away from the hot path) --------
    def attach(self, net) -> None:
        self.timeline.attach(net)

    def on_cycle(self, net) -> None:
        """End of every ``Network.step()``; samples every N cycles."""
        if net.now % self.interval:
            return
        self._fold(self.timeline.sample(net))

    def on_inject(self, node: int, path: str) -> None:
        self._inj[path].inc()

    def on_bypass_forward(self, node: int) -> None:
        self._bypass.inc()

    def on_pg_event(self, node: int, event: str) -> None:
        self.registry.counter("pg_transitions_total", kind=event).inc()

    def on_packet_ejected(self, pkt, stats) -> None:
        if stats.in_window(pkt.created_cycle):
            self._packets.inc()
            self._latency.observe(pkt.latency)

    def _fold(self, deltas: Optional[Dict[str, int]]) -> None:
        if deltas is None:
            return
        self._link.inc(deltas["link_flits"])
        self._off.inc(deltas["off_cycles"])
        self._waking.inc(deltas["waking_cycles"])
        self._wakeups.inc(deltas["wakeups"])
        self._gate_offs.inc(deltas["gate_offs"])

    # -- end of run -------------------------------------------------------
    def finalize(self, net) -> None:
        """Sample the trailing partial window and fill end-of-run
        instruments (idle-period/BET histograms, duty gauges).
        Idempotent: exporting twice records once."""
        if self._finalized:
            return
        self._finalized = True
        if net.now > self.timeline.last_cycle:
            self._fold(self.timeline.sample(net))
        bounds = idle_bucket_bounds(net.cfg.pg.breakeven_time)
        for kind, periods in (
                ("completed", net.stats.idle_periods),
                ("censored", net.stats.censored_idle_periods)):
            hist = self.registry.histogram("idle_period_cycles", bounds,
                                           kind=kind)
            for length, count in sorted(periods.items()):
                hist.observe(length, count)
        n = net.mesh.num_nodes
        total = max(1, n * net.now)
        net.settle_duty_counters()
        g = self.registry.gauge
        g("router_off_duty").set(round(
            sum(c.cycles_off for c in net.controllers) / total, 6))
        g("router_waking_duty").set(round(
            sum(c.cycles_waking for c in net.controllers) / total, 6))
        g("simulated_cycles").set(net.now)


def export_metrics(run: MetricsRun, spec: MetricsSpec, basename: str,
                   net, traffic: Optional[dict] = None) -> Path:
    """Write ``basename.metrics.jsonl`` / ``.metrics.csv`` / ``.prom``
    under ``spec.directory``; returns the JSONL path."""
    run.finalize(net)
    directory = Path(spec.directory)
    directory.mkdir(parents=True, exist_ok=True)
    cfg = net.cfg
    meta = {
        "schema": SCHEMA,
        "design": cfg.design,
        "width": cfg.noc.width,
        "height": cfg.noc.height,
        "interval": run.interval,
        "cycles": net.now,
        "measure_start": net.stats.measure_start,
        "measure_end": net.stats.measure_end,
        "breakeven_time": cfg.pg.breakeven_time,
        "traffic": traffic,
    }
    tl = run.timeline
    jsonl = directory / f"{basename}.metrics.jsonl"
    with jsonl.open("w") as fh:
        fh.write(json.dumps({"meta": meta}, separators=(",", ":"),
                            sort_keys=True) + "\n")
        for i, cycle in enumerate(tl.cycles):
            fh.write(json.dumps({
                "cycle": cycle,
                "window": tl.windows[i],
                "net": {k: tl.net[k][i] for k in NET_SERIES},
                "node_off": tl.node_off[i],
                "node_waking": tl.node_waking[i],
                "node_occ": tl.node_occupancy[i],
            }, separators=(",", ":")) + "\n")
        fh.write(json.dumps({"summary": run.registry.to_dict()},
                            separators=(",", ":"), sort_keys=True) + "\n")
    csv_path = directory / f"{basename}.metrics.csv"
    with csv_path.open("w") as fh:
        fh.write("cycle,window," + ",".join(NET_SERIES) + "\n")
        for i, cycle in enumerate(tl.cycles):
            fh.write(f"{cycle},{tl.windows[i]},"
                     + ",".join(repr(tl.net[k][i]) for k in NET_SERIES)
                     + "\n")
    (directory / f"{basename}.prom").write_text(
        run.registry.prometheus_text())
    return jsonl


# -- kernel-profile bridge (--profile satellite) --------------------------

def registry_from_profile(profile) -> MetricsRegistry:
    """Expose a :class:`repro.noc.activity.KernelProfile` through the
    registry: per-phase wall-clock seconds and active-set occupancy
    fractions, so ``--profile`` runs land in the HTML report."""
    reg = MetricsRegistry()
    for phase, seconds, occupancy in profile.rows():
        reg.gauge("kernel_phase_seconds", phase=phase).set(
            round(seconds, 6))
        reg.gauge("kernel_phase_occupancy", phase=phase).set(
            round(occupancy, 6))
    reg.gauge("kernel_cycles").set(profile.cycles)
    return reg


def export_profile(profile, directory) -> Optional[Path]:
    """Write ``kernel_profile.json`` + ``kernel_profile.prom`` into the
    metrics directory; returns the JSON path (None when the profile is
    empty)."""
    if profile.cycles == 0:
        return None
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "cycles": profile.cycles,
        "phases": [{"phase": p, "seconds": round(s, 6),
                    "occupancy": round(o, 6)}
                   for p, s, o in profile.rows()],
    }
    path = directory / "kernel_profile.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    (directory / "kernel_profile.prom").write_text(
        registry_from_profile(profile).prometheus_text())
    return path
