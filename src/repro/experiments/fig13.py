"""Figure 13: impact of CPU interference on the scheduling delay.

Interference: parallel HiBench-style Kmeans applications, each with 4
executors of 16 vcores, oversubscribing the physical cores wherever
YARN's memory-only allocator clumps them.  Paper findings at 16 Kmeans
apps: total p95 degrades ~1.6x; only the *in-application* path is
seriously affected — driver delay up to 2.9x, executor delay up to
2.4x (JVM warm-up is CPU-bound) — while localization slows only ~1.4x
at the median (namenode lookups + the localizer JVM are its only
CPU-bound parts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.stats import DelaySample
from repro.experiments.common import resolve_scale
from repro.experiments.harness import KmeansLoad
from repro.workloads.scenarios import trace_recipe

__all__ = ["Fig13Result", "run_fig13", "FIG13_KMEANS_COUNTS"]

FIG13_KMEANS_COUNTS = (0, 4, 8, 16)

_METRICS = ("total", "in", "out", "driver", "executor", "localization")


@dataclass
class Fig13Result:
    #: Kmeans app count -> metric -> sample.
    series: Dict[int, Dict[str, DelaySample]]

    def slowdown(self, apps: int, metric: str, q: float = 95.0) -> float:
        return self.series[apps][metric].percentile(q) / self.series[0][
            metric
        ].percentile(q)

    def rows(self) -> List[str]:
        lines = ["Figure 13 — CPU interference (Kmeans apps)"]
        for apps, metrics in sorted(self.series.items()):
            lines.append(f"  {apps:2d} Kmeans apps:")
            for metric in _METRICS:
                s = metrics[metric]
                suffix = ""
                if apps > 0:
                    suffix = (
                        f"  [x{self.slowdown(apps, metric, 50):4.1f} med, "
                        f"x{self.slowdown(apps, metric, 95):4.1f} p95]"
                    )
                lines.append(
                    f"    {metric:13s} med={s.p50:6.2f}s p95={s.p95:6.2f}s{suffix}"
                )
        return lines


def _collect(report) -> Dict[str, DelaySample]:
    return {
        "total": report.sample("total_delay"),
        "in": report.sample("in_app_delay"),
        "out": report.sample("out_app_delay"),
        "driver": report.sample("driver_delay"),
        "executor": report.sample("executor_delay"),
        "localization": report.container_sample("localization", workers_only=False),
    }


def run_fig13(scale: str = "small", seed: int = 0) -> Fig13Result:
    n_queries = resolve_scale(scale, small=40, paper=200)
    base = trace_recipe(n_queries, seed=seed, mean_interarrival_s=3.0)
    series: Dict[int, Dict[str, DelaySample]] = {}
    for apps in FIG13_KMEANS_COUNTS:
        if apps == 0:
            scenario = base
        else:
            scenario = base.variant(interference=KmeansLoad(apps))
        series[apps] = _collect(scenario.run().report)
    return Fig13Result(series=series)
