"""Figure 5: impact of the job (input) size on the scheduling delay.

Paper sweep: TPC-H dataset from 20 MB to 200 GB.  Findings to
reproduce:

* normalized total delay *decreases* with input size (longer runtimes),
  but tiny 20 MB jobs spend >65% (80% worst) of runtime on scheduling;
* absolute total delay *increases* with input size — 200 GB p95 is
  60.4 s, ~4x the 20 MB p95 — driven by cluster-wide IO
  self-interference (executor localization competes with task reads),
  with `out` deteriorating ~1.5x and `in` ~5.7x vs 20 MB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.stats import DelaySample
from repro.experiments.common import resolve_scale
from repro.params import GB, MB
from repro.workloads.scenarios import trace_recipe

__all__ = ["Fig5Result", "run_fig5", "FIG5_SIZES"]

#: The sweep points (paper: 20 MB .. 200 GB).
FIG5_SIZES = (20 * MB, 2 * GB, 20 * GB, 200 * GB)


def _label(size: float) -> str:
    return f"{size / GB:.2f}GB" if size < GB else f"{size / GB:.0f}GB"


@dataclass
class Fig5Result:
    #: input size label -> metric -> sample.
    series: Dict[str, Dict[str, DelaySample]]

    def total(self, size_label: str) -> DelaySample:
        return self.series[size_label]["total"]

    def ratio_p95_largest_vs_smallest(self) -> float:
        labels = list(self.series)
        return self.series[labels[-1]]["total"].p95 / self.series[labels[0]]["total"].p95

    def rows(self) -> List[str]:
        lines = ["Figure 5 — scheduling delay vs input size"]
        for label, metrics in self.series.items():
            t = metrics["total"]
            n = metrics["normalized"]
            lines.append(
                f"  {label:>8s}: total med={t.p50:6.2f}s p95={t.p95:6.2f}s | "
                f"total/job mean={n.mean():5.1%} worst={n.p95:5.1%} | "
                f"in p95={metrics['in'].p95:6.2f}s out p95={metrics['out'].p95:6.2f}s"
            )
        lines.append(
            f"  p95 total, largest vs smallest input: "
            f"{self.ratio_p95_largest_vs_smallest():.1f}x"
        )
        return lines


def run_fig5(scale: str = "small", seed: int = 0) -> Fig5Result:
    """Sweep the dataset size; one trace run per point."""
    n_queries = resolve_scale(scale, small=40, paper=200)
    series: Dict[str, Dict[str, DelaySample]] = {}
    for size in FIG5_SIZES:
        scenario = trace_recipe(
            n_queries,
            dataset_bytes=size,
            seed=seed,
            # Larger inputs mean longer jobs; keep the offered load
            # comparable by spacing arrivals with the expected runtime.
            mean_interarrival_s=3.0 if size <= 2 * GB else 3.0 * (size / (2 * GB)) ** 0.5,
        )
        report = scenario.run().report
        series[_label(size)] = {
            "total": report.sample("total_delay"),
            "in": report.sample("in_app_delay"),
            "out": report.sample("out_app_delay"),
            "job": report.sample("job_runtime"),
            "normalized": report.normalized_total(),
        }
    return Fig5Result(series=series)
