"""Statistics helpers for delay samples (CDFs, percentiles, etc.).

The paper reports delays as CDFs with 95th-percentile callouts
(Figs 4-9, 11-13), standard deviations (Fig 4c) and normalized ratios
(Figs 4b, 5b); :class:`DelaySample` provides exactly those views.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["DelaySample", "ratio_of"]


def ratio_of(base: float, new: float) -> float:
    """Slowdown factor ``new / base`` with honest edge semantics.

    ``0-vs-0`` is "unchanged" — ``1.0``, not undefined: components like
    ``preemption_delay`` are legitimately all-zero in calm runs (the
    scenario-pack ``compare()`` fix, shared here so the sample layer and
    every delta table agree).  A NaN on either side (an empty sample's
    percentile) or a nonzero-vs-zero comparison propagates NaN — callers
    rendering JSON must map it to null/"n/a", never serialize raw NaN.
    """
    if np.isnan(base) or np.isnan(new):
        return float("nan")
    if base:
        return new / base
    return 1.0 if new == base else float("nan")


class DelaySample:
    """An immutable sample of delay measurements (seconds)."""

    def __init__(self, values: Iterable[Optional[float]], name: str = ""):
        cleaned = [float(v) for v in values if v is not None]
        self.name = name
        self._values = np.sort(np.asarray(cleaned, dtype=float))

    def __len__(self) -> int:
        return int(self._values.size)

    def __bool__(self) -> bool:
        return self._values.size > 0

    @property
    def values(self) -> np.ndarray:
        return self._values

    # -- point statistics --------------------------------------------------
    def percentile(self, q: float) -> float:
        """q-th percentile (q in [0, 100]); NaN for empty samples."""
        if self._values.size == 0:
            return float("nan")
        return float(np.percentile(self._values, q))

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        """The paper's headline tail statistic."""
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def mean(self) -> float:
        if self._values.size == 0:
            return float("nan")
        return float(np.mean(self._values))

    def std(self) -> float:
        """Standard deviation (Fig 4c)."""
        if self._values.size == 0:
            return float("nan")
        return float(np.std(self._values))

    def max(self) -> float:
        if self._values.size == 0:
            return float("nan")
        return float(self._values[-1])

    def min(self) -> float:
        if self._values.size == 0:
            return float("nan")
        return float(self._values[0])

    # -- distribution views ---------------------------------------------------
    def cdf(self, points: int = 100) -> List[Tuple[float, float]]:
        """(value, cumulative fraction) pairs tracing the empirical CDF."""
        n = self._values.size
        if n == 0:
            return []
        if n <= points:
            return [
                (float(v), (i + 1) / n) for i, v in enumerate(self._values)
            ]
        qs = np.linspace(0.0, 100.0, points)
        return [(float(np.percentile(self._values, q)), q / 100.0) for q in qs]

    def histogram(self, bins: int = 20) -> List[Tuple[float, int]]:
        """(bin left edge, count) pairs."""
        if self._values.size == 0:
            return []
        counts, edges = np.histogram(self._values, bins=bins)
        return [(float(edges[i]), int(counts[i])) for i in range(len(counts))]

    def describe(self) -> str:
        """One-line summary used by the report tables."""
        if self._values.size == 0:
            return f"{self.name or 'sample'}: empty"
        return (
            f"{self.name or 'sample'}: n={len(self)} "
            f"median={self.p50:.3f}s p95={self.p95:.3f}s "
            f"mean={self.mean():.3f}s std={self.std():.3f}s"
        )

    def ascii_cdf(self, width: int = 56, height: int = 10) -> str:
        """A terminal rendering of the CDF (the paper's plot style).

        X axis: delay seconds (linear, min..max); Y axis: cumulative
        fraction.  Useful for eyeballing distributions in examples and
        the CLI without a plotting stack.
        """
        if self._values.size == 0:
            return "(empty sample)"
        lo, hi = float(self._values[0]), float(self._values[-1])
        span = max(hi - lo, 1e-9)
        rows = [[" "] * width for _ in range(height)]
        n = self._values.size
        for i, value in enumerate(self._values):
            x = min(width - 1, int((value - lo) / span * (width - 1)))
            y = min(height - 1, int((i + 1) / n * height) - (1 if (i + 1) == n else 0))
            y = max(0, y)
            rows[height - 1 - y][x] = "*"
        lines = [f"{self.name or 'delay'} CDF (n={n})"]
        for r, row in enumerate(rows):
            frac = (height - r) / height
            lines.append(f"{frac:4.0%} |" + "".join(row))
        lines.append("     +" + "-" * width)
        lines.append(f"      {lo:<10.2f}{'':{max(0, width - 22)}}{hi:>10.2f}  (s)")
        return "\n".join(lines)

    @staticmethod
    def of(values: Sequence[Optional[float]], name: str = "") -> "DelaySample":
        return DelaySample(values, name)
