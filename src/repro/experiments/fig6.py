"""Figure 6: impact of the number of executors on the scheduling delay.

Paper sweep: 4 / 8 / 16 executors per Spark-SQL job.  Findings:

* more executors -> longer total delay (16-executor p95 = 21.5 s, 4 s
  above the 8-executor case) because Spark waits for 80% of requested
  executors before scheduling tasks;
* the Cl-Cf delay (spread between first and last container launch)
  grows with executor count, with higher variance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.stats import DelaySample
from repro.experiments.common import resolve_scale
from repro.workloads.scenarios import trace_recipe

__all__ = ["Fig6Result", "run_fig6", "FIG6_EXECUTORS"]

FIG6_EXECUTORS = (4, 8, 16)


@dataclass
class Fig6Result:
    #: executor count -> {"total": ..., "cl_cf": ...}.
    series: Dict[int, Dict[str, DelaySample]]

    def total_p95(self, executors: int) -> float:
        return self.series[executors]["total"].p95

    def rows(self) -> List[str]:
        lines = ["Figure 6 — scheduling delay vs number of executors"]
        for n, metrics in sorted(self.series.items()):
            t, spread = metrics["total"], metrics["cl_cf"]
            lines.append(
                f"  {n:2d} executors: total med={t.p50:6.2f}s p95={t.p95:6.2f}s | "
                f"Cl-Cf med={spread.p50:5.2f}s p95={spread.p95:5.2f}s std={spread.std():5.2f}s"
            )
        return lines


def run_fig6(scale: str = "small", seed: int = 0) -> Fig6Result:
    n_queries = resolve_scale(scale, small=60, paper=200)
    series: Dict[int, Dict[str, DelaySample]] = {}
    for executors in FIG6_EXECUTORS:
        scenario = trace_recipe(
            n_queries,
            num_executors=executors,
            seed=seed,
            # Same trace for every point, as in the paper — bigger jobs
            # therefore also load the cluster more, which is part of
            # what the figure shows.
            mean_interarrival_s=4.0,
        )
        report = scenario.run().report
        series[executors] = {
            "total": report.sample("total_delay"),
            "cl_cf": report.sample("cl_cf_delay"),
        }
    return Fig6Result(series=series)
