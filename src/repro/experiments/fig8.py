"""Figure 8: impact of the localized file size on the localization delay.

Paper sweep via ``spark-submit --files``: the default ~500 MB package
localizes in ~500 ms; an 8 GB upload takes ~23 s, severely inflating
the total scheduling delay.  Sub-second entries persist at 8 GB — those
are the *driver* localizations, which only fetch the default package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.stats import DelaySample
from repro.experiments.common import resolve_scale
from repro.params import GB
from repro.workloads.scenarios import trace_recipe

__all__ = ["Fig8Result", "run_fig8", "FIG8_EXTRA_SIZES"]

#: Extra "--files" payload sweep (0 = the default package only).
FIG8_EXTRA_SIZES = (0.0, 1 * GB, 2 * GB, 4 * GB, 8 * GB)


def _label(size: float) -> str:
    return "default" if size == 0 else f"+{size / GB:.0f}GB"


@dataclass
class Fig8Result:
    #: label -> {"localization", "driver_localization", "total"}.
    series: Dict[str, Dict[str, DelaySample]]

    def rows(self) -> List[str]:
        lines = ["Figure 8 — localization delay vs localized file size"]
        for label, metrics in self.series.items():
            loc = metrics["localization"]
            drv = metrics["driver_localization"]
            lines.append(
                f"  {label:>8s}: executor-loc med={loc.p50:6.2f}s p95={loc.p95:6.2f}s | "
                f"driver-loc med={drv.p50:5.2f}s | total p95={metrics['total'].p95:6.2f}s"
            )
        lines.append(
            "  (sub-second rows at large sizes are driver localizations — "
            "the bimodality the paper calls out)"
        )
        return lines


def run_fig8(scale: str = "small", seed: int = 0) -> Fig8Result:
    n_queries = resolve_scale(scale, small=15, paper=40)
    series: Dict[str, Dict[str, DelaySample]] = {}
    for size in FIG8_EXTRA_SIZES:
        scenario = trace_recipe(
            n_queries,
            seed=seed,
            extra_localized_bytes=size,
            # Per-component study: spaced submissions so one job's
            # localization is measured, not a pile-up.
            mean_interarrival_s=45.0,
        )
        report = scenario.run().report
        driver_loc = DelaySample(
            [
                c.localization_delay
                for app in report.apps
                for c in app.containers
                if c.is_application_master
            ],
            name="driver-localization",
        )
        series[_label(size)] = {
            "localization": report.container_sample("localization"),
            "driver_localization": driver_loc,
            "total": report.sample("total_delay"),
        }
    return Fig8Result(series=series)
