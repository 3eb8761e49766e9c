"""Deterministic, seeded fault injection for the simulated NoC.

NoRD's bypass ring keeps every node connected while its router is off,
which makes the same datapath a *fault-tolerance* mechanism for free: a
hard-failed router is indistinguishable from a permanently gated one, so
a NoRD chip degrades gracefully where a conventional power-gated design
loses the node.  This module provides the declarative fault description
(:class:`FaultPlan`) and the runtime bookkeeping (:class:`FaultState`)
that :class:`repro.noc.network.Network` consults when a plan is active.

Fault models
------------

* **Router hard-fail** (:class:`RouterFailure`) - at cycle ``t`` the
  router is marked fail-armed; at the first flit boundary (datapath
  empty, nothing in flight toward it) it is forced OFF permanently and
  never wakes (``gateable`` is effectively pinned false).  Under NoRD
  the NI bypass and ring-escape routing keep serving the node; under the
  conventional designs the node is unreachable and traffic to/from/
  through it is *recorded* as failed instead of wedging the network.
* **Link faults** (:class:`LinkFault`) - per-link flit corruption and
  drop rates plus a credit-loss rate.  A dropped flit is modelled as the
  arrival of an unusable flit (the wormhole stream continues, so
  link-level flow control stays analyzable); end-to-end sequence numbers
  catch both cases at the destination NI.  Credit loss genuinely leaks a
  flow-control credit - the failure mode the liveness watchdog exists
  for.
* **Stuck wakeups** (:class:`WakeupFault`) - a power-gating controller
  that ignores WU entirely or only honors it after ``delay`` extra
  cycles of assertion.
* **Retransmission** - when ``FaultPlan.retransmit`` is set, every
  injected packet carries a per-(src, dst) sequence number and the
  source retransmits on timeout with exponential backoff, up to
  ``max_retries`` attempts; duplicate deliveries are filtered by
  sequence number.

Determinism: all randomness comes from one ``random.Random(plan.seed)``
drawn in the reference kernel's order (by link id, then send order),
which every kernel keeps - so a seeded faulted run is byte-reproducible
on each (the kernel differentials pin this).  An *empty* plan exercises
every hook but triggers nothing, and is guaranteed to produce
byte-identical results to running with no plan at all
(tests/empty_faultplan/sitecustomize.py proves it on any workload).
"""

from __future__ import annotations

import dataclasses
import heapq
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .noc.flit import Packet
    from .noc.network import Network

#: ``LinkFault.src`` value applying the fault to every link in the mesh.
ALL_LINKS = -1


@dataclass(frozen=True)
class RouterFailure:
    """Permanent hard-fail of ``node``'s router, armed at ``cycle``."""

    node: int
    cycle: int

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError("router failure needs a node id >= 0")
        if self.cycle < 0:
            raise ValueError("failure cycle must be >= 0")


@dataclass(frozen=True)
class LinkFault:
    """Per-link fault rates.  ``src=ALL_LINKS`` targets every link."""

    src: int = ALL_LINKS
    port: int = ALL_LINKS
    #: Probability a delivered flit arrives corrupted.
    corrupt_rate: float = 0.0
    #: Probability a delivered flit is dropped (modelled as an unusable
    #: arrival so the wormhole stream keeps flowing; see module docs).
    drop_rate: float = 0.0
    #: Probability a returning credit is lost in flight.  This genuinely
    #: leaks flow-control state and can wedge a VC - the case the
    #: liveness watchdog and the harness retry/partial modes handle.
    credit_loss_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("corrupt_rate", "drop_rate", "credit_loss_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")

    @property
    def is_noop(self) -> bool:
        return (self.corrupt_rate == 0.0 and self.drop_rate == 0.0
                and self.credit_loss_rate == 0.0)


@dataclass(frozen=True)
class WakeupFault:
    """A stuck/slow wakeup line at ``node``'s PG controller."""

    node: int
    #: Extra cycles WU must stay asserted before the wakeup starts.
    delay: int = 0
    #: Ignore WU entirely (the controller never wakes again).
    ignore: bool = False

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError("wakeup fault needs a node id >= 0")
        if self.delay < 0:
            raise ValueError("wakeup delay must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """Picklable, cache-key-relevant description of injected faults.

    An empty plan (``FaultPlan()``) activates the hook layer but injects
    nothing; results are byte-identical to a run with no plan.
    """

    router_failures: Tuple[RouterFailure, ...] = ()
    link_faults: Tuple[LinkFault, ...] = ()
    wakeup_faults: Tuple[WakeupFault, ...] = ()
    #: Seed for the fault RNG (independent of the traffic seed).
    seed: int = 1
    #: Enable NI-level retransmission on timeout (sequence numbers are
    #: always assigned while a plan is active; retransmission is opt-in).
    retransmit: bool = False
    #: Cycles a packet may be outstanding before its source retransmits.
    retransmit_timeout: int = 300
    #: Bounded retries; each retry doubles the timeout (exponential
    #: backoff).  After the budget is spent the packet counts as failed.
    max_retries: int = 3

    def __post_init__(self) -> None:
        if self.retransmit_timeout < 1:
            raise ValueError("retransmit_timeout must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    @property
    def is_empty(self) -> bool:
        """True when the plan injects no fault at all (retransmission
        alone never changes a fault-free run's behaviour)."""
        return (not self.router_failures and not self.wakeup_faults
                and all(f.is_noop for f in self.link_faults))

    def __bool__(self) -> bool:
        return not self.is_empty

    def to_key(self) -> Dict[str, Any]:
        """JSON-safe dict for the result-cache content hash."""
        return dataclasses.asdict(self)

    # -- convenience builders -------------------------------------------
    @classmethod
    def single_router_failure(cls, node: int, cycle: int,
                              **kwargs) -> "FaultPlan":
        return cls(router_failures=(RouterFailure(node, cycle),), **kwargs)

    @classmethod
    def uniform_link_noise(cls, *, corrupt_rate: float = 0.0,
                           drop_rate: float = 0.0,
                           credit_loss_rate: float = 0.0,
                           **kwargs) -> "FaultPlan":
        fault = LinkFault(corrupt_rate=corrupt_rate, drop_rate=drop_rate,
                          credit_loss_rate=credit_loss_rate)
        return cls(link_faults=(fault,), **kwargs)


@dataclass
class _Pending:
    """Retransmission bookkeeping for one in-flight packet instance."""

    packet: "Packet"
    deadline: int


class FaultState:
    """Runtime fault bookkeeping attached to one :class:`Network`.

    Built once per network from a :class:`FaultPlan`; all methods are
    called from inside the cycle kernel, in deterministic phase order.
    """

    def __init__(self, plan: FaultPlan, num_nodes: int) -> None:
        for failure in plan.router_failures:
            if failure.node >= num_nodes:
                raise ValueError(
                    f"router failure targets node {failure.node} but the "
                    f"mesh has {num_nodes} nodes")
        for wf in plan.wakeup_faults:
            if wf.node >= num_nodes:
                raise ValueError(
                    f"wakeup fault targets node {wf.node} but the mesh "
                    f"has {num_nodes} nodes")
        self.plan = plan
        self.rng = random.Random(plan.seed)
        #: cycle -> nodes whose routers fail-arm that cycle.
        self._fail_at: Dict[int, List[int]] = {}
        for failure in plan.router_failures:
            self._fail_at.setdefault(failure.cycle, []).append(failure.node)
        for nodes in self._fail_at.values():
            nodes.sort()
        self.has_router_failures = bool(plan.router_failures)
        #: Nodes whose fail has *completed* (router is dead).
        self.failed_nodes: Set[int] = set()
        # -- sequence numbers / retransmission --------------------------
        self._seq: Dict[Tuple[int, int], int] = {}
        self._delivered: Set[Tuple[int, int, int]] = set()
        self.pending: Dict[int, _Pending] = {}
        self._deadlines: List[Tuple[int, int]] = []  # (deadline, pid) heap

    # ------------------------------------------------------------------
    # plan resolution helpers (used while wiring the network)
    # ------------------------------------------------------------------
    def link_fault_for(self, src: int, port: int) -> Optional[LinkFault]:
        """The fault applying to the (src, port) link, explicit first."""
        default = None
        for fault in self.plan.link_faults:
            if fault.src == src and fault.port == port:
                return None if fault.is_noop else fault
            if fault.src == ALL_LINKS:
                default = fault
        if default is not None and not default.is_noop:
            return default
        return None

    # ------------------------------------------------------------------
    # per-cycle driver (start of Network.step)
    # ------------------------------------------------------------------
    def begin_cycle(self, net: "Network", now: int) -> None:
        if self._fail_at:
            due: List[int] = []
            for cycle in [c for c in self._fail_at if c <= now]:
                due.extend(self._fail_at.pop(cycle))
            for node in sorted(due):
                net.schedule_router_failure(node)
        while self._deadlines and self._deadlines[0][0] <= now:
            _, pid = heapq.heappop(self._deadlines)
            entry = self.pending.pop(pid, None)
            if entry is None:
                continue  # delivered in the meantime
            pkt = entry.packet
            if (pkt.src, pkt.dst, pkt.seq) in self._delivered:
                continue
            if pkt.retry >= self.plan.max_retries:
                net.stats.on_packet_failed(pkt)
            else:
                net.retransmit_packet(pkt)

    @property
    def busy(self) -> bool:
        """Packets still awaiting delivery confirmation (drain must wait
        for their timeouts so bounded retries can run)."""
        return bool(self.pending)

    # ------------------------------------------------------------------
    # injection-side hooks
    # ------------------------------------------------------------------
    def admit_packet(self, net: "Network", pkt: "Packet") -> bool:
        """Assign the end-to-end sequence number; False when the packet
        must be failed at the source (unreachable endpoint under a
        conventional design - the 'detect, don't deadlock' path)."""
        key = (pkt.src, pkt.dst)
        seq = self._seq.get(key, 0)
        self._seq[key] = seq + 1
        pkt.seq = seq
        if self.failed_nodes and not net.nord_bypass_available:
            if pkt.src in self.failed_nodes or pkt.dst in self.failed_nodes:
                return False
        self.register_pending(pkt, net.now)
        return True

    def register_pending(self, pkt: "Packet", now: int) -> None:
        if not self.plan.retransmit:
            return
        deadline = now + self.plan.retransmit_timeout * (2 ** pkt.retry)
        self.pending[pkt.pid] = _Pending(pkt, deadline)
        heapq.heappush(self._deadlines, (deadline, pkt.pid))

    # ------------------------------------------------------------------
    # delivery-side hooks
    # ------------------------------------------------------------------
    def on_good_delivery(self, pkt: "Packet") -> bool:
        """An uncorrupted tail ejected.  Returns False for a duplicate
        (an earlier instance of the same sequence number already made
        it - possible once retransmission races a slow original)."""
        self.pending.pop(pkt.pid, None)
        if not self.plan.retransmit:
            return True
        key = (pkt.src, pkt.dst, pkt.seq)
        if key in self._delivered:
            return False
        self._delivered.add(key)
        return True

    def on_bad_delivery(self, net: "Network", pkt: "Packet") -> None:
        """A corrupted/dropped packet reached its destination NI.  With
        retransmission enabled the pending timeout drives the retry;
        without it the loss is final."""
        if not self.plan.retransmit:
            net.stats.on_packet_failed(pkt)

    def on_packet_killed(self, net: "Network", pkt: "Packet") -> None:
        """A packet was discarded in-network (failed router).  Final only
        when no retransmission budget exists for it."""
        if pkt.pid not in self.pending:
            net.stats.on_packet_failed(pkt)

    # ------------------------------------------------------------------
    # link-fault application (called from the link-delivery phases)
    # ------------------------------------------------------------------
    def strike_flits(self, fault: LinkFault, packets, stats) -> None:
        """Roll the corruption/drop dice for each delivered flit's packet."""
        rng = self.rng
        for pkt in packets:
            if fault.corrupt_rate and rng.random() < fault.corrupt_rate:
                pkt.corrupted = True
                stats.on_flit_corrupted()
            if fault.drop_rate and rng.random() < fault.drop_rate:
                pkt.corrupted = True
                stats.on_flit_dropped()

    def filter_credits(self, fault: LinkFault, vcs, stats):
        """Drop returning credits with ``credit_loss_rate``."""
        if not fault.credit_loss_rate:
            return vcs
        rng = self.rng
        kept = []
        for vc in vcs:
            if rng.random() < fault.credit_loss_rate:
                stats.on_credit_lost()
            else:
                kept.append(vc)
        return kept
