"""Interference hooks shared by the figure modules.

A :class:`~repro.workloads.scenarios.Scenario`'s ``interference`` is a
callable that submits co-located load to the fresh testbed before the
first measured job (Figs 7b, 12 and 13, the dfsIO ablations).  The
hooks here are frozen dataclasses rather than closures, so a scenario
that carries one compares by value and pickles, and a hook built in a
loop keeps the count it was built with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from repro.mapreduce.application import MapReduceApplication, TaskBody
from repro.simul.engine import Event
from repro.testbed import Testbed
from repro.workloads.dfsio import make_dfsio_app
from repro.workloads.kmeans import make_kmeans_app
from repro.yarn.app import ContainerContext

__all__ = ["DfsioLoad", "KmeansLoad", "MemoryLoad", "holding_map_body"]


def holding_map_body(duration_median: float) -> TaskBody:
    """A map task that mostly just occupies its container."""

    def body(
        app: MapReduceApplication, ctx: ContainerContext, index: int
    ) -> Generator[Event, Any, None]:
        rng = ctx.services.rng.child(f"hold.{ctx.container_id}")
        duration = rng.lognormal_median(duration_median, 0.15)
        yield ctx.node.cpu.submit(duration * 0.1, demand=1.0)
        yield ctx.sim.timeout(duration * 0.9)

    return body


@dataclass(frozen=True)
class DfsioLoad:
    """One dfsIO job whose ``num_maps`` map tasks each write 20 GB."""

    num_maps: int

    def __call__(self, bed: Testbed) -> None:
        bed.submit(make_dfsio_app(f"dfsio-{self.num_maps}", self.num_maps))


@dataclass(frozen=True)
class KmeansLoad:
    """``num_apps`` Kmeans jobs (4 executors x 16 vcores), 0.5 s apart."""

    num_apps: int

    def __call__(self, bed: Testbed) -> None:
        for i in range(self.num_apps):
            bed.submit(make_kmeans_app(f"kmeans-{i}", bed.params), delay=0.5 * i)


@dataclass(frozen=True)
class MemoryLoad:
    """One MR job whose maps pin ``hold_fraction`` of cluster memory.

    Each map holds its container for a lognormal time around
    ``duration_median`` seconds (Fig 7b's loaded cluster).
    """

    hold_fraction: float
    duration_median: float

    def __call__(self, bed: Testbed) -> None:
        capacity = bed.cluster.total_memory_mb() // bed.params.map_container_memory_mb
        num_maps = max(1, int(capacity * self.hold_fraction))
        bed.submit(
            MapReduceApplication(
                "memory-load",
                num_maps=num_maps,
                map_body=holding_map_body(self.duration_median),
            )
        )
