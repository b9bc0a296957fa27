"""A worker node: CPU run-queue, disk array, NIC, and memory ledger.

CPU, disk and NIC are :class:`~repro.simul.resources.FairShareResource`
instances so every activity placed on the node (JVM start-up, task
compute, localization downloads, dfsIO streams) contends naturally: the
interference results of Figs 12 and 13 emerge from this sharing rather
than from injected slowdown factors.

Memory is a simple ledger — YARN admission control needs the count, but
memory bandwidth contention is not part of the paper's analysis.
"""

from __future__ import annotations

from typing import Dict

from repro.simul.engine import SimulationError, Simulator
from repro.simul.resources import FairShareResource

__all__ = ["Node"]


class Node:
    """One worker machine in the simulated cluster."""

    def __init__(
        self,
        sim: Simulator,
        index: int,
        cores: int,
        memory_mb: int,
        disk_bandwidth: float,
        network_bandwidth: float,
        page_cache_bytes: float,
        memory_only_fit: bool = True,
    ):
        if cores < 1 or memory_mb < 1:
            raise SimulationError(f"invalid node shape: {cores} cores / {memory_mb} MB")
        self.sim = sim
        self.index = index
        self.hostname = f"node{index + 1:02d}"
        self.cores = cores
        self.memory_mb = memory_mb
        #: CPU run-queue: capacity in cores, work in core-seconds.
        self.cpu = FairShareResource(sim, float(cores), name=f"{self.hostname}.cpu")
        #: Local disk array: capacity in bytes/s.
        self.disk = FairShareResource(sim, disk_bandwidth, name=f"{self.hostname}.disk")
        #: NIC: capacity in bytes/s.
        self.nic = FairShareResource(sim, network_bandwidth, name=f"{self.hostname}.nic")
        #: Bytes of HDFS data recently written/read that the OS page
        #: cache can serve without touching the disk array.
        self.page_cache_bytes = page_cache_bytes
        #: YARN's DefaultResourceCalculator considers memory only; vcores
        #: are tracked but not enforced (the CPU-oversubscription
        #: behaviour the Kmeans interference experiment relies on).
        self.memory_only_fit = memory_only_fit
        #: False once the node failed or was decommissioned; inactive
        #: nodes are invisible to schedulers and placement queries.
        self.active = True
        self._memory_used_mb = 0
        self._vcores_used = 0
        #: Aggregate demand (bytes/s) of write streams currently hitting
        #: this node's disks.  Writes dirty and evict the page cache;
        #: reads do not (recently-written localization packages stay hot
        #: under scan pressure — the Fig 5 vs Fig 12 asymmetry).
        self.write_demand: float = 0.0
        #: Per-tag counters for introspection in tests/experiments.
        self.allocations: Dict[str, int] = {}

    # -- YARN-visible resource accounting ---------------------------------
    @property
    def memory_available_mb(self) -> int:
        return self.memory_mb - self._memory_used_mb

    @property
    def vcores_available(self) -> int:
        return self.cores - self._vcores_used

    def fits(self, memory_mb: int, vcores: int) -> bool:
        """Whether a container of this shape fits right now."""
        if memory_mb > self.memory_available_mb:
            return False
        return self.memory_only_fit or vcores <= self.vcores_available

    def reserve(self, memory_mb: int, vcores: int, tag: str = "container") -> None:
        """Claim YARN resources for a container placed here."""
        if not self.fits(memory_mb, vcores):
            raise SimulationError(
                f"{self.hostname}: cannot reserve {memory_mb}MB/{vcores}vc "
                f"(free {self.memory_available_mb}MB/{self.vcores_available}vc)"
            )
        self._memory_used_mb += memory_mb
        self._vcores_used += vcores
        self.allocations[tag] = self.allocations.get(tag, 0) + 1

    def free(self, memory_mb: int, vcores: int, tag: str = "container") -> None:
        """Return YARN resources when a container finishes."""
        self._memory_used_mb -= memory_mb
        self._vcores_used -= vcores
        if self._memory_used_mb < 0:
            raise SimulationError(f"{self.hostname}: released more than reserved")
        self.allocations[tag] = self.allocations.get(tag, 0) - 1

    # -- write-pressure tracking ---------------------------------------------
    def begin_write(self, demand: float) -> None:
        """A write stream of ``demand`` bytes/s starts hitting the disk."""
        self.write_demand += demand

    def end_write(self, demand: float) -> None:
        self.write_demand -= demand
        # FP slop accumulates over thousands of begin/end pairs of
        # ~1e8-magnitude demands; only a materially negative balance is
        # a bookkeeping bug.
        if self.write_demand < -1e-3 * (abs(demand) + 1.0):
            raise SimulationError(f"{self.hostname}: write pressure went negative")
        self.write_demand = max(0.0, self.write_demand)

    def write_pressure(self) -> float:
        """Write demand relative to disk capacity (0 = no writes)."""
        return self.write_demand / self.disk.capacity

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Node {self.hostname} free={self.memory_available_mb}MB/"
            f"{self.vcores_available}vc cpu_jobs={self.cpu.active_jobs}>"
        )
