"""Table III: per-component contribution to the total scheduling delay.

The paper attributes each delay source a share of the total scheduling
delay (from the section IV-B runs): allocation ~2%, acquisition < 1%,
localization < 1%, launching < 1%, driver-delay and executor-delay
(41%) dominating, AM delay ~35%.

Two attributions are computed:

* **mean share** — mean(component) / mean(total), the naive ratio;
* **critical-path share** — per application, only the components on the
  longest SUBMITTED -> first-task path of the scheduling graph are
  charged; overlapped work (e.g. container allocation proceeding while
  the driver initializes RDDs) contributes nothing.  This matches the
  paper's small numbers for alloc/local/laun, which overlap with the
  in-application work.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List

from repro.core.checker import SDChecker
from repro.core.report import AnalysisReport
from repro.experiments.common import resolve_scale
from repro.workloads.scenarios import trace_recipe

__all__ = ["Table3Result", "run_table3", "critical_path_shares"]

#: Paper rows, in Table III order.
TABLE3_COMPONENTS = ("alloc", "acqui", "local", "laun", "driver", "executor", "am")

#: The paper's cause / proposed-optimization columns, verbatim in spirit.
TABLE3_NOTES = {
    "alloc": (
        "resource allocation decisions at ResourceManager",
        "trade-off: use a distributed scheduler",
    ),
    "acqui": (
        "waiting for allocated containers to be acquired by the AM",
        "trade-off: increase heartbeat frequency",
    ),
    "local": (
        "downloading localization files from HDFS",
        "user & design: dedicated storage class / caching service",
    ),
    "laun": (
        "launching AM/executor (JVM start)",
        "user: avoid OS-container overhead",
    ),
    "driver": (
        "Spark driver initialization",
        "trade-off: JVM reuse",
    ),
    "executor": (
        "Spark executor init and task scheduling",
        "trade-off & user: JVM reuse, optimize user init code",
    ),
    "am": (
        "AppMaster scheduling + launching + driver init",
        "(composite of the rows above)",
    ),
}

#: Scheduling-graph edge component -> Table III row.
_EDGE_TO_ROW = {
    "allocation": "alloc",
    "allocation-complete": "alloc",
    "acquisition": "acqui",
    "localization": "local",
    "launching": "laun",
    "driver-delay": "driver",
    "executor-delay": "executor",
}


def critical_path_shares(log_store) -> Dict[str, float]:
    """Aggregate critical-path time per component across all apps."""
    checker = SDChecker()
    traces = checker.group(log_store)
    totals: Dict[str, float] = defaultdict(float)
    grand_total = 0.0
    for trace in traces.values():
        path = checker.graph(trace).critical_path()
        for _a, _b, seconds, component in path:
            row = _EDGE_TO_ROW.get(component)
            grand_total += seconds
            if row is not None:
                totals[row] += seconds
    if grand_total == 0:
        return {}
    return {row: totals.get(row, 0.0) / grand_total for row in TABLE3_COMPONENTS if row != "am"}


@dataclass
class Table3Result:
    report: AnalysisReport
    #: mean(component)/mean(total) — includes overlapped time.
    mean_shares: Dict[str, float]
    #: critical-path attribution — overlap-free.
    critical_path: Dict[str, float]

    def rows(self) -> List[str]:
        lines = ["Table III — contribution of each component to the total delay"]
        lines.append(
            f"  {'component':10s}{'mean share':>12s}{'critical path':>15s}  proposed optimization"
        )
        for row in TABLE3_COMPONENTS:
            mean = self.mean_shares.get(row)
            crit = self.critical_path.get(row)
            mean_s = f"{mean:11.1%}" if mean is not None else "        n/a"
            crit_s = f"{crit:14.1%}" if crit is not None else "           n/a"
            lines.append(
                f"  {row:10s}{mean_s}{crit_s}  {TABLE3_NOTES[row][1]}"
            )
        return lines


def run_table3(scale: str = "small", seed: int = 0) -> Table3Result:
    n_queries = resolve_scale(scale, small=100, paper=2000)
    result = trace_recipe(n_queries, seed=seed).run()
    report = result.report
    return Table3Result(
        report=report,
        mean_shares=report.component_contributions(),
        critical_path=critical_path_shares(result.testbed.log_store),
    )
