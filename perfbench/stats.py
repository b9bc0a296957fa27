"""Order statistics with their sample counts."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Optional, Sequence

#: Percentiles a tail may be reported at, highest first.
_TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
#: A tail percentile is only reported with at least this many samples
#: beyond it; fewer and it is one or two outliers, not a tail.
_MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile {pct} outside [0, 100]")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(count: int) -> Optional[float]:
    """The highest reportable tail percentile for ``count`` samples."""
    for pct in _TAIL_PERCENTILES:
        if count * (100.0 - pct) / 100.0 >= _MIN_BEYOND - 1e-9:
            return pct
    return None


def iqr_share(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        raise ValueError("IQR needs at least two samples")
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    if median == 0:
        raise ValueError("IQR share of a zero median")
    return (q3 - q1) / abs(median)


@dataclass(frozen=True)
class Summary:
    """Median and tail of one timing, with the sample count behind them.

    ``tail_pct`` is the highest of p99.9, p99, p95 and p90 with at least
    ten samples beyond it.  With too few samples for any (fewer than
    100), there is no tail to report: ``tail`` repeats the median and
    ``tail_pct`` is None.  The slowest of a handful of samples is one
    outlier, and would make the figure swing from run to run.
    """

    count: int
    p50: float
    tail: float
    tail_pct: Optional[float]

    @classmethod
    def of(cls, values: Sequence[float]) -> "Summary":
        if not values:
            raise ValueError("summary of no samples")
        pct = tail_percentile(len(values))
        median = percentile(values, 50.0)
        tail = percentile(values, pct) if pct is not None else median
        return cls(len(values), median, tail, pct)

    @property
    def tail_label(self) -> str:
        """``p99`` and the like; ``p50`` when there are too few samples."""
        return f"p{self.tail_pct:g}" if self.tail_pct is not None else "p50"
