"""Interference hooks shared by the figure modules.

A :class:`~repro.workloads.scenarios.Scenario`'s ``interference`` is a
callable that submits co-located load to the fresh testbed before the
first measured job (Figs 12 and 13, the dfsIO ablations).  The hooks
here are frozen dataclasses rather than closures, so a scenario that
carries one compares by value and pickles, and a hook built in a loop
keeps the count it was built with.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.testbed import Testbed
from repro.workloads.dfsio import make_dfsio_app
from repro.workloads.kmeans import make_kmeans_app

__all__ = ["DfsioLoad", "KmeansLoad"]


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
