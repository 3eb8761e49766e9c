"""A bufferless deflection network (Section 6.8's discussion baseline).

The paper discusses bufferless routing (CHIPPER-style [6]) as a
complementary approach: it eliminates the input buffers - the largest
static-power contributor (55%, Figure 1(b)) - but the remaining 45% of
router static power stays on, and deflections add hops.  This module
implements a self-contained synchronous deflection network so that claim
can be measured rather than asserted:

* no buffers and no virtual channels: every flit in the network moves every
  cycle;
* each router receives at most one flit per input link, ejects at most one
  flit destined locally, injects from the NI when an output slot is free,
  and assigns the rest to output links - productive ports by *oldest-first*
  priority, losers deflected to any free port (oldest-first arbitration
  makes the oldest flit always win a productive port, which bounds its
  delivery time and rules out livelock);
* flits of multi-flit packets are routed independently and reassembled at
  the destination (the packet completes when all flits arrived), which is
  the reassembly cost the paper alludes to.

The network produces a :class:`repro.stats.collector.RunResult` whose
router counters contain *no buffer events*, so the standard power model
prices it correctly (crossbar + links + the non-buffer static power).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..config import SimConfig
from ..stats.collector import RouterActivity, RunResult, StatsCollector
from .flit import Flit, Packet
from .topology import EAST, LOCAL, NORTH, NUM_PORTS, OPPOSITE, SOUTH, WEST, Mesh

DIRECTIONS = (EAST, WEST, NORTH, SOUTH)


class _Worm:
    """One independently-routed flit in flight (CHIPPER routes flit-sized
    worms; we keep the paper's packet statistics by reassembling)."""

    __slots__ = ("flit", "birth", "hops", "deflections")

    def __init__(self, flit: Flit, birth: int) -> None:
        self.flit = flit
        self.birth = birth
        self.hops = 0
        self.deflections = 0

    @property
    def dst(self) -> int:
        return self.flit.dst


class BufferlessNetwork:
    """Synchronous deflection network over the same mesh/traffic interfaces
    as :class:`repro.noc.network.Network` (a subset: no power gating)."""

    def __init__(self, cfg: SimConfig) -> None:
        self.cfg = cfg
        self.mesh = Mesh(cfg.noc.width, cfg.noc.height)
        self.now = 0
        self._next_pid = 0
        #: flit currently on the wire INTO each (node, direction).
        self._incoming: List[List[Optional[_Worm]]] = [
            [None] * NUM_PORTS for _ in range(self.mesh.num_nodes)
        ]
        self.inject_queues: List[Deque[_Worm]] = [
            deque() for _ in range(self.mesh.num_nodes)
        ]
        #: reassembly: pid -> number of flits still missing.
        self._missing: Dict[int, int] = {}
        self.stats = StatsCollector("Bufferless", self.mesh.num_nodes)
        # counters for the power model
        self.n_xbar = [0] * self.mesh.num_nodes
        self.n_eject = [0] * self.mesh.num_nodes
        self.n_inject = [0] * self.mesh.num_nodes
        self.n_link_flits = 0
        self.n_deflections = 0
        self._outstanding = 0

    # ------------------------------------------------------------------
    def inject_packet(self, src: int, dst: int, length: int) -> Packet:
        pkt = Packet(src, dst, length, self.now, pid=self._next_pid)
        self._next_pid += 1
        for flit in pkt.make_flits():
            self.inject_queues[src].append(_Worm(flit, self.now))
        self._missing[pkt.pid] = length
        self._outstanding += length
        self.stats.on_packet_created(pkt)
        return pkt

    def _productive(self, node: int, dst: int) -> List[int]:
        return self.mesh.minimal_ports(node, dst)

    def step(self) -> None:
        self.now += 1
        mesh = self.mesh
        # next cycle's wires
        nxt: List[List[Optional[_Worm]]] = [
            [None] * NUM_PORTS for _ in range(mesh.num_nodes)
        ]
        for node in range(mesh.num_nodes):
            arrivals = [w for w in self._incoming[node] if w is not None]
            # 1. ejection: one flit destined here per cycle (CHIPPER-style),
            #    oldest first.
            arrivals.sort(key=lambda w: w.birth)
            remaining: List[_Worm] = []
            ejected = False
            for worm in arrivals:
                if worm.dst == node and not ejected:
                    self._sink(node, worm)
                    ejected = True
                else:
                    remaining.append(worm)
            # 2. injection: only when an output slot is guaranteed free
            #    (edge routers have fewer links).
            num_links = sum(1 for d in DIRECTIONS
                            if mesh.neighbor(node, d) is not None)
            if self.inject_queues[node] and len(remaining) < num_links:
                worm = self.inject_queues[node].popleft()
                if worm.flit.is_head:
                    worm.flit.packet.injected_cycle = self.now
                if worm.dst == node and not ejected:
                    self._sink(node, worm)
                    ejected = True
                else:
                    remaining.append(worm)
                    self.n_inject[node] += 1
            # 3. port allocation: oldest flit picks first (guarantees the
            #    network-oldest flit always takes a productive port).
            remaining.sort(key=lambda w: w.birth)
            free = set(DIRECTIONS) - {
                d for d in DIRECTIONS if mesh.neighbor(node, d) is None
            }
            for worm in remaining:
                wanted = [p for p in self._productive(node, worm.dst)
                          if p in free]
                if wanted:
                    port = wanted[0]
                else:
                    if not free:
                        raise RuntimeError(
                            "more flits than output links: deflection "
                            "invariant violated")
                    port = min(free)  # deflected
                    worm.deflections += 1
                    self.n_deflections += 1
                free.discard(port)
                worm.hops += 1
                if worm.flit.is_head:
                    worm.flit.packet.hops += 1
                self.n_xbar[node] += 1
                self.n_link_flits += 1
                nbr = mesh.neighbor(node, port)
                nxt[nbr][OPPOSITE[port]] = worm
        self._incoming = nxt
        if self.stats.measuring:
            for node in range(mesh.num_nodes):
                idle = (all(w is None for w in self._incoming[node])
                        and not self.inject_queues[node])
                self.stats.on_cycle_idle_state(node, idle)

    def _sink(self, node: int, worm: _Worm) -> None:
        pkt = worm.flit.packet
        self.n_eject[node] += 1
        self._outstanding -= 1
        self.stats.on_flit_ejected()
        self._missing[pkt.pid] -= 1
        if self._missing[pkt.pid] == 0:
            del self._missing[pkt.pid]
            pkt.ejected_cycle = self.now
            self.stats.on_packet_ejected(pkt)

    @property
    def outstanding_flits(self) -> int:
        return self._outstanding

    # ------------------------------------------------------------------
    def run(self, traffic, *, warmup: Optional[int] = None,
            measure: Optional[int] = None,
            drain: Optional[int] = None) -> RunResult:
        cfg = self.cfg
        warmup = cfg.warmup_cycles if warmup is None else warmup
        measure = cfg.measure_cycles if measure is None else measure
        drain = cfg.drain_cycles if drain is None else drain
        for _ in range(warmup):
            self._arrivals(traffic)
            self.step()
        self.stats.start_measurement(self.now)
        start = (list(self.n_xbar), list(self.n_eject), self.n_link_flits)
        for _ in range(measure):
            self._arrivals(traffic)
            self.step()
        end = (list(self.n_xbar), list(self.n_eject), self.n_link_flits)
        self.stats.stop_measurement(self.now)
        drained = 0
        while self._outstanding > 0 and drained < drain:
            self.step()
            drained += 1
        return self._result(measure, start, end)

    def _arrivals(self, traffic) -> None:
        for src, dst, length in traffic.arrivals(self.now):
            self.inject_packet(src, dst, length)

    def _result(self, cycles: int, start, end) -> RunResult:
        s = self.stats
        result = RunResult(
            kernel="bufferless", design="Bufferless", cycles=cycles,
            num_nodes=self.mesh.num_nodes,
            packets_created=s.packets_created,
            packets_measured=s.packets_measured,
            packets_ejected=s.packets_ejected,
            total_latency=s.total_latency,
            total_hops=s.total_hops,
            flits_ejected=s.flits_ejected,
            link_flits=end[2] - start[2],
            idle_periods=dict(s.idle_periods),
            censored_idle_periods=dict(s.censored_idle_periods),
        )
        for node in range(self.mesh.num_nodes):
            activity = RouterActivity(
                cycles_on=cycles,
                xbar_traversals=end[0][node] - start[0][node],
                sa_grants=end[0][node] - start[0][node],
                ni_ejected_flits=end[1][node] - start[1][node],
            )
            activity.idle_cycles = s.idle_cycles[node]
            result.routers.append(activity)
        return result
