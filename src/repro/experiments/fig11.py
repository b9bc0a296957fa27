"""Figure 11: the in-application delay, decomposed and optimized.

* (a) driver delay is ~3 s for both Spark wordcount and Spark-SQL
  (identical SparkContext init); the executor delay differs — p95 6.0 s
  for wordcount vs 9.5 s for Spark-SQL — because TPC-H initializes
  eight tables (eight RDD + broadcast creations on the scheduling
  critical path) where wordcount opens one file.
* (b) sweeping the number of opened files (x1..x4) lengthens the
  executor delay roughly linearly; parallelizing the RDD init with
  Scala Futures ("opt") cuts ~2 s off the tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.stats import DelaySample
from repro.experiments.common import resolve_scale
from repro.workloads.scenarios import trace_recipe

__all__ = ["Fig11Result", "run_fig11", "run_fig11a", "run_fig11b", "FIG11B_VARIANTS"]

#: Fig 11b x-axis: opt = Future-parallelized, x1 = default, x2.. = more
#: opened files.
FIG11B_VARIANTS = ("opt", "x1", "x2", "x3", "x4")


def run_fig11a(scale: str = "small", seed: int = 0) -> Dict[str, Dict[str, DelaySample]]:
    """{'wordcount'|'sql': {'driver': ..., 'executor': ...}}."""
    n_queries = resolve_scale(scale, small=60, paper=200)
    out: Dict[str, Dict[str, DelaySample]] = {}
    for key, workload in (("wordcount", "wordcount"), ("sql", "tpch")):
        report = trace_recipe(n_queries, seed=seed, workload=workload).run().report
        out[key] = {
            "driver": report.sample("driver_delay"),
            "executor": report.sample("executor_delay"),
        }
    return out


def run_fig11b(scale: str = "small", seed: int = 0) -> Dict[str, DelaySample]:
    """variant label -> executor-delay sample."""
    n_queries = resolve_scale(scale, small=50, paper=200)
    # Light load: the comparison isolates user-init cost, so the
    # executor-delay tail must not be bound by allocation spread.
    out: Dict[str, DelaySample] = {}
    for label in FIG11B_VARIANTS:
        if label == "opt":
            knob = {"parallel_rdd_init": True}
        else:
            knob = {"opened_files_multiplier": int(label[1:])}
        scenario = trace_recipe(n_queries, seed=seed, mean_interarrival_s=4.5, **knob)
        out[label] = scenario.run().report.sample("executor_delay")
    return out


@dataclass
class Fig11Result:
    by_workload: Dict[str, Dict[str, DelaySample]]
    by_variant: Dict[str, DelaySample]

    def opt_tail_reduction(self) -> float:
        """Seconds shaved off the p95 executor delay by the Future opt."""
        return self.by_variant["x1"].p95 - self.by_variant["opt"].p95

    def rows(self) -> List[str]:
        lines = ["Figure 11 — in-application delay"]
        lines.append("(a) driver / executor delay by workload:")
        for key, metrics in self.by_workload.items():
            d, e = metrics["driver"], metrics["executor"]
            lines.append(
                f"    {key:9s}: driver med={d.p50:5.2f}s p95={d.p95:5.2f}s | "
                f"executor med={e.p50:5.2f}s p95={e.p95:5.2f}s"
            )
        lines.append("(b) executor delay vs opened files:")
        for label in FIG11B_VARIANTS:
            s = self.by_variant[label]
            lines.append(f"    {label:4s}: med={s.p50:5.2f}s p95={s.p95:5.2f}s")
        lines.append(
            f"    Future-parallelized init cuts the tail by "
            f"{self.opt_tail_reduction():.2f}s"
        )
        return lines


def run_fig11(scale: str = "small", seed: int = 0) -> Fig11Result:
    return Fig11Result(
        by_workload=run_fig11a(scale, seed),
        by_variant=run_fig11b(scale, seed),
    )
