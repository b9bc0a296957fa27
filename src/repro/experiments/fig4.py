"""Figure 4: overall scheduling delays for the TPC-H query trace.

Paper configuration: 2000 TPC-H queries, 2 GB input, 4 executors each,
google-trace arrivals.  Reported:

* (a) CDFs of job runtime, total, am, in, out — p95 callouts 17.2 s /
  6 s / 12.7 s / 5.3 s;
* (b) normalized delays — total/job ~40% mean (60% worst); in > 70% of
  total, out < 30%, am ~35%;
* (c) standard deviations — `in` varies most and drives total's
  variance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.report import AnalysisReport
from repro.core.stats import DelaySample
from repro.experiments.common import resolve_scale
from repro.workloads.scenarios import ScenarioRun, trace_recipe

__all__ = ["Fig4Result", "run_fig4", "FIG4_METRICS"]

FIG4_METRICS = ("job_runtime", "total_delay", "am_delay", "in_app_delay", "out_app_delay")
_SHORT = {
    "job_runtime": "job",
    "total_delay": "total",
    "am_delay": "am",
    "in_app_delay": "in",
    "out_app_delay": "out",
}


@dataclass
class Fig4Result:
    """Everything Figure 4 plots, plus the raw report."""

    report: AnalysisReport
    scenario: ScenarioRun
    #: (a) per-metric delay samples.
    samples: Dict[str, DelaySample]
    #: (b) normalized samples: total/job, then am,in,out over total.
    normalized: Dict[str, DelaySample]
    #: (c) standard deviations.
    std: Dict[str, float]

    def cdf(self, metric: str, points: int = 50) -> List[Tuple[float, float]]:
        """The CDF series of subfigure (a) for one metric."""
        return self.samples[metric].cdf(points)

    def rows(self) -> List[str]:
        lines = [f"Figure 4 — overall scheduling delays ({len(self.report)} queries)"]
        lines.append("(a) delay distributions:")
        for metric in FIG4_METRICS:
            s = self.samples[metric]
            lines.append(
                f"    {_SHORT[metric]:6s} median={s.p50:6.2f}s  p95={s.p95:6.2f}s"
            )
        lines.append("(b) normalized delays:")
        n = self.normalized
        lines.append(
            f"    total/job mean={n['total/job'].mean():6.1%}  "
            f"worst(p95)={n['total/job'].p95:6.1%}"
        )
        for key in ("am", "in", "out"):
            lines.append(
                f"    {key}/total mean={n[key + '/total'].mean():6.1%}"
            )
        lines.append("(c) standard deviations:")
        for metric in FIG4_METRICS:
            lines.append(f"    {_SHORT[metric]:6s} std={self.std[metric]:6.2f}s")
        return lines


def run_fig4(scale: str = "small", seed: int = 0) -> Fig4Result:
    """Run the Figure 4 experiment at the given scale."""
    n_queries = resolve_scale(scale, small=150, paper=2000)
    result = trace_recipe(n_queries, seed=seed).run()
    report = result.report
    samples = {m: report.sample(m) for m in FIG4_METRICS}
    normalized = {"total/job": report.normalized_total()}
    for metric, short in (("am_delay", "am"), ("in_app_delay", "in"), ("out_app_delay", "out")):
        normalized[f"{short}/total"] = report.normalized_to_total(metric)
    std = {m: samples[m].std() for m in FIG4_METRICS}
    return Fig4Result(
        report=report,
        scenario=result,
        samples=samples,
        normalized=normalized,
        std=std,
    )
