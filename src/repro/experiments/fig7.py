"""Figure 7: centralized vs distributed scheduling.

* (a) aggregated container allocation delay (messages 11 -> 12): the
  distributed scheduler is ~80x faster at the median; p95 de = 108 ms
  vs ce = 3709 ms.
* (b) NM queueing delay in a highly loaded cluster: tasks placed by the
  distributed scheduler's random sampling queue behind running work for
  up to ~53 s; the centralized scheduler (which only allocates on free
  capacity) queues ~100 ms.
* (c) container acquisition delay vs cluster load: capped at 1 s — the
  MapReduce AM-RM heartbeat interval — with high variance, across all
  load levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.core.checker import SDChecker
from repro.core.stats import DelaySample
from repro.experiments.common import resolve_scale
from repro.experiments.harness import MemoryLoad, holding_map_body
from repro.mapreduce.application import MapReduceApplication
from repro.testbed import Testbed
from repro.workloads.scenarios import trace_recipe

__all__ = [
    "Fig7Result",
    "run_fig7",
    "run_fig7a",
    "run_fig7b",
    "run_fig7c",
    "run_mr_load",
    "FIG7C_LOADS",
]

#: Cluster load levels of Fig 7c / Table II.
FIG7C_LOADS = (0.1, 0.4, 0.7, 1.0)


# ---------------------------------------------------------------------------
# (a) allocation delay: Capacity Scheduler vs distributed scheduler
# ---------------------------------------------------------------------------
def run_fig7a(
    scale: str = "small", seed: int = 0
) -> Dict[str, DelaySample]:
    """{'ce': ..., 'de': ...} aggregated allocation-delay samples."""
    n_queries = resolve_scale(scale, small=80, paper=200)
    base = trace_recipe(n_queries, seed=seed)
    ce = base.run().report.sample("allocation_delay")
    de = base.variant(scheduler="opportunistic").run().report.sample("allocation_delay")
    return {"ce": ce, "de": de}


# ---------------------------------------------------------------------------
# (b) queueing delay in a highly loaded cluster
# ---------------------------------------------------------------------------
def run_fig7b(scale: str = "small", seed: int = 0) -> Dict[str, DelaySample]:
    """{'ce': ..., 'de': ...} NM queueing-delay samples under load.

    The queueing delay is read off the SCHEDULED -> RUNNING transition
    (the Hadoop-3 queued state) with the unloaded launch median
    subtracted, isolating the waiting component.
    """
    n_queries = resolve_scale(scale, small=12, paper=40)
    samples: Dict[str, DelaySample] = {}
    # Unloaded reference: the intrinsic launch time to subtract.
    reference = (
        trace_recipe(10, seed=seed + 1).run().report.container_sample("launching").p50
    )
    for key, scheduler in (("ce", "capacity"), ("de", "opportunistic")):
        scenario = trace_recipe(
            n_queries,
            seed=seed,
            scheduler=scheduler,
            interference=MemoryLoad(0.98, 55.0),
            warmup_s=25.0,
            mean_interarrival_s=4.0,
        )
        launching = scenario.run().report.container_sample("launching")
        samples[key] = DelaySample(
            [max(0.0, v - reference) for v in launching.values],
            name=f"queueing({key})",
        )
    return samples


# ---------------------------------------------------------------------------
# (c) acquisition delay vs cluster load  (+ Table II's load generator)
# ---------------------------------------------------------------------------
def run_mr_load(
    load_fraction: float, seed: int = 0, duration_median: float = 12.0
) -> Tuple[Any, Testbed]:
    """Run one MR wordcount sized to occupy ``load_fraction`` of memory.

    Returns (AnalysisReport, testbed) — the testbed exposes the RM's
    allocation timestamps for the Table II throughput computation.
    """
    bed = Testbed(seed=seed)
    capacity = bed.cluster.total_memory_mb() // bed.params.map_container_memory_mb
    num_maps = max(1, int(capacity * load_fraction))
    bed.submit(
        MapReduceApplication(
            f"wordcount-load-{int(load_fraction * 100)}",
            num_maps=num_maps,
            map_body=holding_map_body(duration_median),
        )
    )
    bed.run_until_all_finished(limit=50_000)
    report = SDChecker().analyze(bed.log_store)
    return report, bed


def run_fig7c(scale: str = "small", seed: int = 0) -> Dict[float, DelaySample]:
    """load fraction -> acquisition-delay sample."""
    loads = FIG7C_LOADS if scale == "paper" else FIG7C_LOADS[:3] + (1.0,)
    out: Dict[float, DelaySample] = {}
    for load in loads:
        report, _bed = run_mr_load(load, seed=seed)
        out[load] = report.container_sample("acquisition")
    return out


@dataclass
class Fig7Result:
    allocation: Dict[str, DelaySample]
    queueing: Dict[str, DelaySample]
    acquisition: Dict[float, DelaySample]

    def rows(self) -> List[str]:
        ce, de = self.allocation["ce"], self.allocation["de"]
        lines = ["Figure 7 — centralized (ce) vs distributed (de) scheduling"]
        lines.append(
            f"(a) allocation delay: ce med={ce.p50 * 1000:7.0f}ms p95={ce.p95 * 1000:7.0f}ms | "
            f"de med={de.p50 * 1000:6.1f}ms p95={de.p95 * 1000:6.1f}ms | "
            f"speedup med={ce.p50 / de.p50:5.1f}x"
        )
        qce, qde = self.queueing["ce"], self.queueing["de"]
        lines.append(
            f"(b) queueing delay under load: ce med={qce.p50:6.2f}s p95={qce.p95:6.2f}s | "
            f"de med={qde.p50:6.2f}s p95={qde.p95:6.2f}s max={qde.max():6.2f}s"
        )
        lines.append("(c) acquisition delay vs cluster load (heartbeat-capped):")
        for load, sample in sorted(self.acquisition.items()):
            lines.append(
                f"    load={load:4.0%}: med={sample.p50:5.3f}s p95={sample.p95:5.3f}s "
                f"max={sample.max():5.3f}s std={sample.std():5.3f}s"
            )
        return lines


def run_fig7(scale: str = "small", seed: int = 0) -> Fig7Result:
    return Fig7Result(
        allocation=run_fig7a(scale, seed),
        queueing=run_fig7b(scale, seed),
        acquisition=run_fig7c(scale, seed),
    )
