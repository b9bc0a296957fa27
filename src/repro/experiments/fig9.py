"""Figure 9: launching delay by instance type and container type.

* (a) launching delay per instance type — Spark driver (spm) and
  executor (spe) median ~700 ms; MapReduce AM (mrm), map child (mrsm)
  and reduce child (mrsr) a bit longer.
* (b) Docker vs default YARN containers: Docker adds ~350 ms at the
  median and ~658 ms at p95 (image load + mount of a 2.65 GB image),
  with a long tail from the extra IO.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.checker import SDChecker
from repro.core.stats import DelaySample
from repro.experiments.common import resolve_scale
from repro.mapreduce.application import MapReduceApplication
from repro.workloads.scenarios import trace_recipe

__all__ = ["Fig9Result", "run_fig9", "run_fig9a", "run_fig9b", "INSTANCE_TYPES"]

INSTANCE_TYPES = ("spm", "spe", "mrm", "mrsm", "mrsr")


def run_fig9a(scale: str = "small", seed: int = 0) -> Dict[str, DelaySample]:
    """Launching-delay sample per instance type, from a mixed workload."""
    n_spark = resolve_scale(scale, small=25, paper=100)
    n_mr = resolve_scale(scale, small=8, paper=30)
    bed, _monitor = trace_recipe(n_spark, seed=seed, mean_interarrival_s=4.0).build()
    for i in range(n_mr):
        bed.submit(
            MapReduceApplication(f"mr-wc-{i}", num_maps=6, num_reduces=2),
            delay=4.0 * i,
        )
    bed.run_until_all_finished(limit=100_000)
    report = SDChecker().analyze(bed.log_store)
    return report.launching_by_instance_type()


def run_fig9b(scale: str = "small", seed: int = 0) -> Dict[str, DelaySample]:
    """{'default': ..., 'docker': ...} Spark launching-delay samples."""
    n_queries = resolve_scale(scale, small=40, paper=150)
    out: Dict[str, DelaySample] = {}
    for key, docker in (("default", False), ("docker", True)):
        scenario = trace_recipe(n_queries, seed=seed, mean_interarrival_s=4.0, docker=docker)
        report = scenario.run().report
        out[key] = report.container_sample("launching", workers_only=False)
    return out


@dataclass
class Fig9Result:
    by_instance_type: Dict[str, DelaySample]
    by_container_type: Dict[str, DelaySample]

    def docker_overhead_median(self) -> float:
        return (
            self.by_container_type["docker"].p50
            - self.by_container_type["default"].p50
        )

    def docker_overhead_p95(self) -> float:
        return (
            self.by_container_type["docker"].p95
            - self.by_container_type["default"].p95
        )

    def rows(self) -> List[str]:
        lines = ["Figure 9 — launching delays"]
        lines.append("(a) by instance type:")
        for code in INSTANCE_TYPES:
            sample = self.by_instance_type.get(code)
            if sample:
                lines.append(
                    f"    {code:5s}: med={sample.p50:5.2f}s p95={sample.p95:5.2f}s (n={len(sample)})"
                )
        d, n = self.by_container_type["docker"], self.by_container_type["default"]
        lines.append(
            f"(b) container type: default med={n.p50:5.2f}s p95={n.p95:5.2f}s | "
            f"docker med={d.p50:5.2f}s p95={d.p95:5.2f}s | "
            f"overhead med={self.docker_overhead_median() * 1000:4.0f}ms "
            f"p95={self.docker_overhead_p95() * 1000:4.0f}ms"
        )
        return lines


def run_fig9(scale: str = "small", seed: int = 0) -> Fig9Result:
    return Fig9Result(
        by_instance_type=run_fig9a(scale, seed),
        by_container_type=run_fig9b(scale, seed),
    )
