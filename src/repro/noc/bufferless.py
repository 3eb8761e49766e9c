"""A bufferless deflection network (Section 6.8's discussion baseline).

The paper discusses bufferless routing (CHIPPER-style [6]) as a
complementary approach: it eliminates the input buffers - the largest
static-power contributor (55%, Figure 1(b)) - but the remaining 45% of
router static power stays on, and deflections add hops.  This module
implements a synchronous deflection network so that claim can be
measured rather than asserted:

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

``Network(cfg)`` builds it for ``Design.BUFFERLESS``, and it runs,
pauses, checkpoints and traces (``NEW`` per packet, ``SINK`` per flit)
on the buffered network's run protocol (:class:`~repro.noc.network.
Datapath`).  Its router counters contain *no buffer events*, so the
standard power model prices it correctly (crossbar + links + the
non-buffer static power).  With no power-gate controllers or NIs, it
takes no fault plan and no metrics sampler.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from ..config import Design, SimConfig
from ..stats.collector import StatsCollector
from ..trace.recorder import EventTrace
from .flit import Flit, Packet
from .network import Datapath
from .topology import EAST, NORTH, NUM_PORTS, OPPOSITE, SOUTH, WEST, Mesh

DIRECTIONS = (EAST, WEST, NORTH, SOUTH)


class _Worm:
    """One independently-routed flit in flight (CHIPPER routes flit-sized
    worms; we keep the paper's packet statistics by reassembling)."""

    __slots__ = ("flit", "birth")

    def __init__(self, flit: Flit, birth: int) -> None:
        self.flit = flit
        self.birth = birth

    @property
    def dst(self) -> int:
        return self.flit.dst


class BufferlessNetwork(Datapath):
    """Synchronous deflection network over the same mesh/traffic interfaces
    as :class:`repro.noc.network.Network` (a subset: no power gating)."""

    backend = "bufferless"

    def __init__(self, cfg: SimConfig, threshold_policy=None, *,
                 fault_plan=None, trace: Optional[EventTrace] = None,
                 metrics=None, backend: Optional[str] = None,
                 fast: Optional[bool] = None) -> None:
        """``Network``'s arguments; one implementation and no power
        gating, so ``threshold_policy``, ``backend`` and ``fast`` are
        ignored."""
        if fault_plan is not None or metrics is not None:
            raise ValueError(
                "the bufferless network has no power-gate controllers or "
                "NIs: it takes no fault plan and no metrics sampler")
        self.cfg = cfg
        self.trace = trace
        self.metrics = None
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
        self.stats = StatsCollector(Design.BUFFERLESS, self.mesh.num_nodes)
        for node in range(self.mesh.num_nodes):
            self.stats.note_idle(node, 0)
        #: Last idleness value delivered to the stats collector, per node.
        self._idle_state: List[bool] = [True] * self.mesh.num_nodes
        # counters for the power model
        self.n_xbar = [0] * self.mesh.num_nodes
        self.n_eject = [0] * self.mesh.num_nodes
        self.n_link_flits = 0
        self.n_deflections = 0
        self._outstanding = 0

    # ------------------------------------------------------------------
    def inject_packet(self, src: int, dst: int, length: int) -> Packet:
        pkt = Packet(src, dst, length, self.now, pid=self._take_pid())
        if self.trace is not None:
            self._trace_new(pkt)
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
                    self.n_deflections += 1
                free.discard(port)
                if worm.flit.is_head:
                    worm.flit.packet.hops += 1
                self.n_xbar[node] += 1
                self.n_link_flits += 1
                nbr = mesh.neighbor(node, port)
                nxt[nbr][OPPOSITE[port]] = worm
        self._incoming = nxt
        stats = self.stats
        state = self._idle_state
        queues = self.inject_queues
        for node in range(mesh.num_nodes):
            idle = not (queues[node] or any(nxt[node]))
            if idle != state[node]:
                state[node] = idle
                if idle:
                    stats.note_idle(node, self.now)
                else:
                    stats.note_busy(node, self.now)

    def _sink(self, node: int, worm: _Worm) -> None:
        pkt = worm.flit.packet
        if self.trace is not None:
            self._trace_sink(node, worm.flit, self.now)
        self.n_eject[node] += 1
        self._outstanding -= 1
        self.stats.on_flit_ejected()
        self._missing[pkt.pid] -= 1
        if self._missing[pkt.pid] == 0:
            del self._missing[pkt.pid]
            pkt.ejected_cycle = self.now
            self.stats.on_packet_ejected(pkt)

    def _draining(self) -> bool:
        return self._outstanding > 0

    def _snapshot_counters(self) -> Dict:
        # RouterActivity's field order, minus idle_cycles: always on, no
        # buffers, VCs or NI bypass, and every crossbar traversal is one
        # SA grant
        return {"link_flits": self.n_link_flits,
                "routers": [(self.now, 0, 0, 0, 0, 0, 0, xbar, 0, xbar,
                             0, 0, 0, eject, 0)
                            for xbar, eject in zip(self.n_xbar,
                                                   self.n_eject)]}
