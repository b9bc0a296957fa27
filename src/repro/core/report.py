"""Aggregated analysis reports.

An :class:`AnalysisReport` holds the per-application decompositions of
one log collection and provides the aggregate views the paper's
figures are built from: delay samples per metric, normalized ratios,
per-instance-type launching delays, and the bug findings.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.bugcheck import BugFinding
from repro.core.decompose import ApplicationDelays
from repro.core.diagnostics import MiningDiagnostics
from repro.core.stats import DelaySample, ratio_of

__all__ = ["AnalysisReport"]

#: Headline per-application metrics, in the paper's naming.
METRICS = (
    "total_delay",
    "am_delay",
    "in_app_delay",
    "out_app_delay",
    "driver_delay",
    "executor_delay",
    "cf_delay",
    "cl_delay",
    "allocation_delay",
    "queue_wait_delay",
    "am_launch_delay",
    "preemption_delay",
    "ramp_delay",
    "job_runtime",
)


@dataclass
class AnalysisReport:
    """Everything SDchecker extracted from one log collection."""

    apps: List[ApplicationDelays]
    bug_findings: List[BugFinding] = field(default_factory=list)
    #: The tolerance ledger of the run that produced this report (what
    #: the miner dropped, skipped, or could not bind).  Deliberately
    #: excluded from :meth:`summary` / :meth:`to_csv` so that reports
    #: over identity-equivalent corpora stay byte-identical; rendered
    #: only on request (``--diagnostics`` / ``--strict``).
    diagnostics: Optional[MiningDiagnostics] = None

    def __post_init__(self) -> None:
        self.apps = sorted(self.apps, key=lambda a: a.app_id)

    def __len__(self) -> int:
        return len(self.apps)

    # -- samples -------------------------------------------------------------
    def sample(self, metric: str) -> DelaySample:
        """All apps' values of one headline metric."""
        if metric not in METRICS and metric != "cl_cf_delay":
            raise KeyError(f"unknown metric {metric!r} (have {METRICS})")
        if metric == "cl_cf_delay":
            values = [a.cl_cf_delay for a in self.apps]
        else:
            values = [getattr(a, metric) for a in self.apps]
        return DelaySample(values, name=metric)

    def normalized_total(self) -> DelaySample:
        """total/job ratios (Fig 4b left)."""
        return DelaySample(
            [a.normalized_total for a in self.apps], name="total/job"
        )

    def normalized_to_total(self, metric: str) -> DelaySample:
        """metric/total ratios (Fig 4b: am, in, out over total)."""
        values = []
        for app in self.apps:
            num = getattr(app, metric)
            if num is None or not app.total_delay:
                values.append(None)
            else:
                values.append(num / app.total_delay)
        return DelaySample(values, name=f"{metric}/total")

    # -- container-level samples -----------------------------------------------
    def container_sample(
        self,
        component: str,
        instance_type: Optional[str] = None,
        workers_only: bool = True,
    ) -> DelaySample:
        """Per-container delays: acquisition/localization/launching."""
        attr = f"{component}_delay"
        values = []
        for app in self.apps:
            for c in app.containers:
                if workers_only and c.is_application_master:
                    continue
                if instance_type is not None and c.instance_type != instance_type:
                    continue
                values.append(getattr(c, attr))
        return DelaySample(values, name=f"{component}({instance_type or '*'})")

    def launching_by_instance_type(self) -> Dict[str, DelaySample]:
        """Fig 9a: launching delay grouped by instance type."""
        groups: Dict[str, List[float]] = {}
        for app in self.apps:
            for c in app.containers:
                if c.launching_delay is None or c.instance_type is None:
                    continue
                groups.setdefault(c.instance_type, []).append(c.launching_delay)
        return {
            code: DelaySample(vals, name=f"launching({code})")
            for code, vals in sorted(groups.items())
        }

    # -- Table III -------------------------------------------------------------
    def component_contributions(self) -> Dict[str, float]:
        """Mean share of the total scheduling delay per component.

        The paper's Table III "contribution" column: each component's
        mean delay divided by the mean total scheduling delay.
        """
        total = self.sample("total_delay").mean()
        if not total or total != total:  # empty or NaN
            return {}
        out = {
            "alloc": self.sample("allocation_delay").mean() / total,
            "acqui": self.container_sample("acquisition").mean() / total,
            "local": self.container_sample("localization").mean() / total,
            "laun": self.container_sample("launching").mean() / total,
            "driver": self.sample("driver_delay").mean() / total,
            "executor": self.sample("executor_delay").mean() / total,
            "am": self.sample("am_delay").mean() / total,
        }
        return {k: v for k, v in out.items() if v == v}

    # -- export ---------------------------------------------------------------------
    def to_dict(self, include_diagnostics: bool = False) -> Dict[str, object]:
        """The whole report as plain JSON-serializable data.

        One entry per application (headline metrics plus per-container
        components) and the bug findings; the diagnostics ledger is
        included only on request so identity-equivalent corpora stay
        byte-identical by default.
        """
        payload: Dict[str, object] = {
            "applications": [
                {
                    "app_id": app.app_id,
                    **{metric: getattr(app, metric) for metric in METRICS},
                    "cl_cf_delay": app.cl_cf_delay,
                    "normalized_total": app.normalized_total,
                    "containers": [
                        {
                            "container_id": c.container_id,
                            "is_am": c.is_application_master,
                            "instance_type": c.instance_type,
                            "acquisition_delay": c.acquisition_delay,
                            "localization_delay": c.localization_delay,
                            "launching_delay": c.launching_delay,
                        }
                        for c in app.containers
                    ],
                }
                for app in self.apps
            ],
            "bug_findings": [
                {
                    "app_id": f.app_id,
                    "container_id": f.container_id,
                    "category": f.category,
                }
                for f in self.bug_findings
            ],
        }
        if include_diagnostics and self.diagnostics is not None:
            payload["diagnostics"] = self.diagnostics.to_dict()
        return payload

    def to_csv(self, path: Union[str, Path]) -> Path:
        """Write one row per application with every headline metric."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("app_id",) + METRICS + ("cl_cf_delay", "normalized_total"))
            for app in self.apps:
                writer.writerow(
                    [app.app_id]
                    + [getattr(app, metric) for metric in METRICS]
                    + [app.cl_cf_delay, app.normalized_total]
                )
        return path

    def containers_to_csv(self, path: Union[str, Path]) -> Path:
        """Write one row per container with its component delays."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                (
                    "app_id",
                    "container_id",
                    "instance_type",
                    "is_am",
                    "acquisition_delay",
                    "localization_delay",
                    "launching_delay",
                )
            )
            for app in self.apps:
                for c in app.containers:
                    writer.writerow(
                        (
                            app.app_id,
                            c.container_id,
                            c.instance_type,
                            c.is_application_master,
                            c.acquisition_delay,
                            c.localization_delay,
                            c.launching_delay,
                        )
                    )
        return path

    def compare(self, other: "AnalysisReport", label_self: str = "A", label_other: str = "B") -> str:
        """Side-by-side medians/p95 with slowdown factors.

        The offline equivalent of the paper's interference studies:
        analyze two log collections and diff them.
        """
        lines = [
            f"{'metric':18s}{label_self + ' med':>10s}{label_other + ' med':>10s}"
            f"{'x':>7s}{label_self + ' p95':>10s}{label_other + ' p95':>10s}{'x':>7s}"
        ]
        for metric in METRICS:
            a, b = self.sample(metric), other.sample(metric)
            if not a or not b:
                continue
            lines.append(
                f"{metric:18s}{a.p50:10.2f}{b.p50:10.2f}{ratio_of(a.p50, b.p50):7.2f}"
                f"{a.p95:10.2f}{b.p95:10.2f}{ratio_of(a.p95, b.p95):7.2f}"
            )
        return "\n".join(lines)

    # -- text output --------------------------------------------------------------
    def summary(self) -> str:
        """The human-readable report the CLI prints."""
        lines = [f"SDchecker report: {len(self.apps)} application(s)"]
        for metric in METRICS:
            sample = self.sample(metric)
            if sample:
                lines.append("  " + sample.describe())
        norm = self.normalized_total()
        if norm:
            lines.append(
                f"  scheduling delay / job runtime: mean={norm.mean():.1%} "
                f"p95={norm.p95:.1%}"
            )
        contributions = self.component_contributions()
        if contributions:
            parts = ", ".join(f"{k}={v:.1%}" for k, v in contributions.items())
            lines.append(f"  contribution to total delay: {parts}")
        if self.bug_findings:
            lines.append(
                f"  BUG CHECK: {len(self.bug_findings)} allocated-but-unused "
                f"container(s) (cf. SPARK-21562)"
            )
            for finding in self.bug_findings[:10]:
                lines.append(f"    {finding.describe()}")
        return "\n".join(lines)
