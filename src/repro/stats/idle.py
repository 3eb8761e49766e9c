"""Idle-period analysis (Section 3.2, Figure 3).

The paper's key motivation numbers:

* routers are idle 30%~70% of the time across PARSEC (x264 lowest at
  30.4%, blackscholes highest at 71.2%);
* more than 61% of idle periods are no longer than the breakeven time
  (~10 cycles), so conventional power-gating wastes most of them.

This module turns an idle-period histogram (length -> count) into those
summary statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class IdlePeriodStats:
    """Summary of a router idle-period length distribution.

    Only *completed* periods (the router went busy again inside the
    measurement window) enter ``num_periods``/``short_fraction``.
    Periods truncated by the window's end are *censored* - their true
    length is unknown, only a lower bound - and are tallied separately
    so they cannot bias the length distribution (a router idle across
    the whole window would otherwise masquerade as one window-length
    period and drag ``short_fraction`` down).
    """

    num_periods: int
    total_idle_cycles: int
    #: Number of idle periods with length <= BET.
    short_periods: int
    #: Idle cycles contained in short (<= BET) periods.
    short_idle_cycles: int
    bet: int
    #: Window-truncated periods (length is a lower bound only).
    censored_periods: int = 0
    #: Idle cycles contained in censored periods.
    censored_idle_cycles: int = 0

    @classmethod
    def from_histogram(cls, histogram: Dict[int, int], bet: int,
                       censored: Optional[Dict[int, int]] = None
                       ) -> "IdlePeriodStats":
        num = sum(histogram.values())
        total = sum(length * count for length, count in histogram.items())
        short = sum(count for length, count in histogram.items()
                    if length <= bet)
        short_cycles = sum(length * count
                           for length, count in histogram.items()
                           if length <= bet)
        censored = censored or {}
        return cls(num_periods=num, total_idle_cycles=total,
                   short_periods=short, short_idle_cycles=short_cycles,
                   bet=bet,
                   censored_periods=sum(censored.values()),
                   censored_idle_cycles=sum(
                       length * count
                       for length, count in censored.items()))

    @property
    def short_fraction(self) -> float:
        """Fraction of *completed* idle periods <= BET (the paper reports
        > 61%); censored periods are excluded."""
        return self.short_periods / self.num_periods if self.num_periods else 0.0

    @property
    def gateable_fraction(self) -> float:
        """Fraction of idle *cycles* living in periods longer than BET
        (the idleness conventional power-gating can usefully exploit)."""
        if self.total_idle_cycles == 0:
            return 0.0
        return 1.0 - self.short_idle_cycles / self.total_idle_cycles

    @property
    def mean_length(self) -> float:
        if self.num_periods == 0:
            return 0.0
        return self.total_idle_cycles / self.num_periods

