"""NoRD power-gating controller (Sections 4.3-4.4).

The NoRD wakeup metric is local: the number of VC requests made at the
node's network interface over a sliding window (10 cycles).  Every cycle a
head flit in the NI requests a virtual channel - to re-inject a bypassed
flit toward the Bypass Outport or to inject a local packet - counts one
request; stalled heads keep requesting, so the metric rises both with load
and with congestion, and it keeps working when every router in the network
is off (Section 4.3).

Asymmetric thresholds (Section 4.4): performance-centric routers wake at
``perf_threshold`` (1) requests per window, power-centric routers at
``power_threshold`` (3).
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from ..config import PowerGateConfig
from .controller import PowerGateController


class NoRDController(PowerGateController):
    """Power-gating controller driven by the NI VC-request metric."""

    gateable = True

    def __init__(self, node: int, pg: PowerGateConfig, threshold: int,
                 *, performance_centric: bool = False) -> None:
        super().__init__(node, pg)
        if threshold < 1:
            raise ValueError("wakeup threshold must be >= 1")
        self.threshold = threshold
        self.min_idle_before_gate = pg.nord_min_idle
        self.performance_centric = performance_centric
        #: When True, every VC request at the NI counts toward the wakeup
        #: threshold; when False (default), only requests the bypass could
        #: not serve in the same cycle count - a granted request means the
        #: bypass suffices, so spending a wakeup would buy nothing.  The
        #: stall-based metric is what lets NoRD ride out light traffic
        #: without state transitions (the paper's -81% wakeups) while still
        #: waking routers as soon as the bypass lacks capacity.
        self.count_all_requests = False
        self.window = pg.wakeup_window
        self._counts: Deque[int] = deque([0] * self.window, maxlen=self.window)
        #: Set True to pin the router off regardless of the metric
        #: (used by the Figure 7 threshold-calibration experiment).
        self.force_off = False
        #: Total VC requests observed (statistics).
        self.total_vc_requests = 0

    def note_vc_request(self, attempted: int = 1, stalled: int = 0) -> None:
        """Record VC request(s) made at the local NI this cycle."""
        count = attempted if self.count_all_requests else stalled
        self._current += count
        self.total_vc_requests += attempted

    def end_cycle(self) -> None:
        """Rotate the sliding window at the end of each cycle (``step``
        does, unless the window is all zeros and rotating is a
        no-op)."""
        self._window_sum += self._current - self._counts[0]
        self._counts.append(self._current)
        self._current = 0

    @property
    def window_requests(self) -> int:
        """VC requests observed in the current window (incl. this cycle)."""
        return self._window_sum + self._current

    def wakeup_asserted(self, net) -> bool:
        """WU from the local metric alone: the window reached the
        threshold (never while the router is pinned off)."""
        return (not self.force_off
                and self._window_sum + self._current >= self.threshold)
