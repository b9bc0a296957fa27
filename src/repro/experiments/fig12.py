"""Figure 12: impact of IO interference on the scheduling delay.

dfsIO spawns parallel map tasks each writing 20 GB into HDFS; the map
count (0..100) controls the interference intensity.  Paper findings at
100 maps: total p95 degrades ~3.9x; the localization delay is hit
hardest (tail 35 s = ~7x, median ~9.4x) because localization downloads
compete with dfsIO for disks and network; the executor delay suffers
2.5-3.5x (blocked registration + JVM warm-up reading evicted class
files); the AM delay degrades up to ~8x because the *driver's*
localization is on its critical path too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.stats import DelaySample
from repro.experiments.common import resolve_scale
from repro.experiments.harness import DfsioLoad
from repro.workloads.scenarios import trace_recipe

__all__ = ["Fig12Result", "run_fig12", "FIG12_MAP_COUNTS"]

FIG12_MAP_COUNTS = (0, 25, 50, 100)

_METRICS = ("total", "in", "out", "localization", "executor", "am")


@dataclass
class Fig12Result:
    #: dfsIO map count -> metric -> sample.
    series: Dict[int, Dict[str, DelaySample]]

    def slowdown(self, maps: int, metric: str, q: float = 95.0) -> float:
        """Degradation factor vs the interference-free run."""
        return self.series[maps][metric].percentile(q) / self.series[0][
            metric
        ].percentile(q)

    def rows(self) -> List[str]:
        lines = ["Figure 12 — IO interference (dfsIO writers)"]
        for maps, metrics in sorted(self.series.items()):
            lines.append(f"  {maps:3d} maps:")
            for metric in _METRICS:
                s = metrics[metric]
                suffix = ""
                if maps > 0:
                    suffix = (
                        f"  [x{self.slowdown(maps, metric, 50):4.1f} med, "
                        f"x{self.slowdown(maps, metric, 95):4.1f} p95]"
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
        "localization": report.container_sample("localization", workers_only=False),
        "executor": report.sample("executor_delay"),
        "am": report.sample("am_delay"),
    }


def run_fig12(scale: str = "small", seed: int = 0) -> Fig12Result:
    n_queries = resolve_scale(scale, small=50, paper=200)
    # A lightly-loaded baseline isolates the interference effect.
    base = trace_recipe(n_queries, seed=seed, mean_interarrival_s=4.0)
    series: Dict[int, Dict[str, DelaySample]] = {}
    for maps in FIG12_MAP_COUNTS:
        if maps == 0:
            scenario = base
        else:
            scenario = base.variant(interference=DfsioLoad(maps))
        series[maps] = _collect(scenario.run().report)
    return Fig12Result(series=series)
