"""Ablation studies for the design choices DESIGN.md calls out.

Each ablation removes one mechanism the reproduction depends on and
shows which paper result breaks without it:

* **page-cache eviction under write pressure** — without it, dfsIO
  barely touches localization and Fig 12's ~9x median slowdown
  disappears (localization would only pay bandwidth sharing).
* **the 80 %-of-executors gate** — without it Spark dispatches to the
  first registered executor, cutting the executor delay that Figs 4/6
  attribute to waiting for the fleet.
* **the NM localized-resource cache** — without it every container of
  a wide MR job downloads the job package independently (the
  localization storm), inflating the job's start-up dramatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.checker import SDChecker
from repro.core.stats import DelaySample
from repro.experiments.common import resolve_scale
from repro.experiments.harness import DfsioLoad
from repro.mapreduce.application import MapReduceApplication
from repro.params import SimulationParams
from repro.testbed import Testbed
from repro.workloads.scenarios import trace_recipe

__all__ = [
    "AblationResult",
    "run_ablation_study",
    "run_eviction_ablation",
    "run_gate_ablation",
    "run_localization_cache_ablation",
]


def run_eviction_ablation(
    scale: str = "small", seed: int = 0, dfsio_maps: int = 100
) -> Dict[str, float]:
    """Localization median slowdown under dfsIO, with/without eviction."""
    n_queries = resolve_scale(scale, small=40, paper=150)
    out: Dict[str, float] = {}
    for label, params in (
        ("with_eviction", {}),
        ("no_eviction", {"page_cache_eviction_sensitivity": 0.0}),
    ):
        base = trace_recipe(n_queries, seed=seed, params=params, mean_interarrival_s=4.0)
        clean = base.run().report.container_sample("localization", workers_only=False)
        noisy = (
            base.variant(interference=DfsioLoad(dfsio_maps))
            .run()
            .report.container_sample("localization", workers_only=False)
        )
        out[label] = noisy.p50 / clean.p50
    return out


def run_gate_ablation(scale: str = "small", seed: int = 0) -> Dict[str, DelaySample]:
    """Executor delay with the 80% gate vs effectively no gate."""
    n_queries = resolve_scale(scale, small=50, paper=200)
    out: Dict[str, DelaySample] = {}
    for label, ratio in (("gate_80", 0.8), ("gate_off", 0.01)):
        scenario = trace_recipe(
            n_queries,
            seed=seed,
            # Wordcount's short user init + a wide fleet: the driver is
            # ready before the 13th executor registers, so the gate is
            # the binding constraint.
            workload="wordcount",
            num_executors=16,
            mean_interarrival_s=5.0,
            params={"min_registered_resources_ratio": ratio},
        )
        out[label] = scenario.run().report.sample("executor_delay")
    return out


def run_localization_cache_ablation(
    scale: str = "small", seed: int = 0
) -> Dict[str, float]:
    """Map-phase completion of a wide MR job, with/without the NM cache."""
    del scale
    out: Dict[str, float] = {}
    for label, cache in (("cache_on", True), ("cache_off", False)):
        bed = Testbed(
            params=SimulationParams(nm_localization_cache=cache), seed=seed
        )
        app = MapReduceApplication("wide", num_maps=800)
        bed.submit(app)
        bed.run_until_all_finished(limit=50_000)
        out[label] = app.milestones["map_done"]
    return out


@dataclass
class AblationResult:
    eviction: Dict[str, float]
    gate: Dict[str, DelaySample]
    localization_cache: Dict[str, float]

    def rows(self) -> List[str]:
        lines = ["Ablations — which mechanism carries which result"]
        lines.append(
            f"  page-cache eviction: localization slowdown under dfsIO "
            f"x{self.eviction['with_eviction']:.1f} with eviction vs "
            f"x{self.eviction['no_eviction']:.1f} without (Fig 12 needs ~9x)"
        )
        g80, goff = self.gate["gate_80"], self.gate["gate_off"]
        lines.append(
            f"  80% executor gate (16 executors): executor delay med "
            f"{g80.p50:.2f}s with gate vs {goff.p50:.2f}s without"
        )
        on, off = self.localization_cache["cache_on"], self.localization_cache["cache_off"]
        lines.append(
            f"  NM localization cache (800-map job): map phase done at "
            f"{on:.1f}s with cache vs {off:.1f}s without (the localization storm)"
        )
        return lines


def run_ablation_study(scale: str = "small", seed: int = 0) -> AblationResult:
    return AblationResult(
        eviction=run_eviction_ablation(scale, seed),
        gate=run_gate_ablation(scale, seed),
        localization_cache=run_localization_cache_ablation(scale, seed),
    )
