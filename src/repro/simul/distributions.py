"""Seeded random distributions for reproducible simulations.

Every component of the simulated cluster draws from its own named
substream derived from a single root seed, so adding a component or
reordering draws in one component never perturbs another — a standard
requirement for variance-controlled simulation studies.

Latency distributions in systems measurements are almost universally
right-skewed; we parameterize lognormals by their *median* (what papers
typically report) and use a bounded Pareto for explicit heavy tails
(e.g. the Docker image-load tail in Fig 9b).
"""

from __future__ import annotations

import zlib
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = ["RandomSource"]


class RandomSource:
    """A named, seeded random stream with systems-flavoured helpers."""

    def __init__(self, seed: int = 0, name: str = "root"):
        self.seed = int(seed)
        self.name = name

    @cached_property
    def _rng(self) -> np.random.Generator:
        # Built on first use: a substream that is derived but never
        # drawn from costs only its name.  The stream itself depends on
        # (seed, name) alone, so when it is built changes no draw.
        # ``np.random`` is looked up here, not imported with this
        # module: programs that never draw (the miner, the live server)
        # then never load it.
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(zlib.crc32(self.name.encode()),))
        )

    def child(self, name: str) -> "RandomSource":
        """Derive an independent substream keyed by ``name``.

        The substream depends only on (root seed, full dotted name), not
        on how many other children exist or the order they were created.
        """
        return RandomSource(self.seed, f"{self.name}.{name}")

    # -- raw access ------------------------------------------------------
    @property
    def rng(self) -> np.random.Generator:
        """The underlying numpy generator."""
        return self._rng

    # -- basic draws -----------------------------------------------------
    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return float(self._rng.uniform(low, high))

    def exponential(self, mean: float) -> float:
        return float(self._rng.exponential(mean))

    def integers(self, low: int, high: int) -> int:
        """Uniform integer in [low, high)."""
        return int(self._rng.integers(low, high))

    def choice(self, seq: Sequence):
        return seq[int(self._rng.integers(0, len(seq)))]

    def sample(self, seq: Sequence, k: int) -> list:
        """k distinct elements of ``seq`` (k may exceed len, then all)."""
        k = min(k, len(seq))
        idx = self._rng.choice(len(seq), size=k, replace=False)
        return [seq[int(i)] for i in idx]

    # -- latency-shaped draws ---------------------------------------------
    def lognormal_median(self, median: float, sigma: float = 0.35) -> float:
        """Lognormal with the given median; sigma controls the spread.

        sigma=0.35 gives a p95/median ratio of ~1.8, typical for JVM
        start-up and RPC latencies.
        """
        if median <= 0:
            raise ValueError(f"median must be positive, got {median}")
        return float(self._rng.lognormal(mean=np.log(median), sigma=sigma))

    def bounded_pareto(self, scale: float, alpha: float, cap: float) -> float:
        """Heavy-tailed draw in [scale, cap] (Pareto truncated at cap)."""
        if scale <= 0 or cap < scale:
            raise ValueError(f"invalid bounded_pareto({scale}, {alpha}, {cap})")
        draw = scale * float((1.0 + self._rng.pareto(alpha)))
        return min(draw, cap)

    def jitter(self, value: float, fraction: float = 0.1) -> float:
        """``value`` multiplied by Uniform(1-fraction, 1+fraction)."""
        return value * self.uniform(1.0 - fraction, 1.0 + fraction)

    def bernoulli(self, p: float) -> bool:
        return bool(self._rng.random() < p)
