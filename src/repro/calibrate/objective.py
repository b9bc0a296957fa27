"""The calibration objective: simulate a candidate, mine it, score it.

A candidate is a dict of knob overrides (see
:mod:`repro.calibrate.space`).  Evaluating it compiles the overrides
onto the replay scenario, runs the testbed to completion at the fixed
replay seed, and mines its log store in memory.  Log records carry the
millisecond their line renders to, so that report is the one the
candidate's dumped log4j files would give — the same quantization any
on-disk target corpus went through.  A candidate whose parameters
exactly match the target's generator therefore reproduces the target
decomposition byte for byte and scores error 0 (the self-fit identity
the acceptance suite pins).

The score is a weighted per-component error over the paper's
decomposition: queue wait, AM launch, driver, localization, ramp, and
the Table I′ preemption component.  Per component we compare the p50
and p95 of the mined delay sample; 0-vs-0 compares as equal, a
component present on one side but unmeasurable on the other pays a
fixed missing-penalty, and a component absent from both sides is free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core.report import AnalysisReport
from repro.core.stats import DelaySample
from repro.simul.engine import SimulationError
from repro.workloads.scenarios.scenario import Scenario

__all__ = [
    "COMPONENTS",
    "DEFAULT_WEIGHTS",
    "ComponentStats",
    "TargetDecomposition",
    "TrialResult",
    "component_sample",
    "component_error",
    "mine_scenario",
    "evaluate_candidate",
]

#: The fitted components, in reporting order: the Table I′ additive
#: breakdown (queue wait, AM launch, driver, preemption, ramp) plus the
#: per-container localization delay the breakdown folds into its ramp.
COMPONENTS = (
    "queue_wait_delay",
    "am_launch_delay",
    "driver_delay",
    "localization_delay",
    "preemption_delay",
    "ramp_delay",
)

DEFAULT_WEIGHTS: Dict[str, float] = {c: 1.0 for c in COMPONENTS}

#: Relative-error floor: components smaller than this (seconds) are
#: compared on absolute error against it, so a 2 ms queue-wait noise
#: difference cannot dominate a 5 s driver-delay miss.
_ERROR_FLOOR_S = 0.05

#: Error charged when one side measures a component the other cannot.
_MISSING_PENALTY = 1.0


def component_sample(report: AnalysisReport, component: str) -> DelaySample:
    """The mined delay sample of one fitted component."""
    if component == "localization_delay":
        return report.container_sample("localization")
    return report.sample(component)


@dataclass(frozen=True)
class ComponentStats:
    """Summary of one component's mined delay sample (None when empty)."""

    n: int
    p50: Optional[float]
    p95: Optional[float]
    mean: Optional[float]

    @classmethod
    def from_sample(cls, sample: DelaySample) -> "ComponentStats":
        if not sample:
            return cls(n=0, p50=None, p95=None, mean=None)
        return cls(
            n=len(sample), p50=sample.p50, p95=sample.p95, mean=sample.mean()
        )

    def to_dict(self) -> Dict[str, Any]:
        return {"n": self.n, "p50": self.p50, "p95": self.p95, "mean": self.mean}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ComponentStats":
        try:
            return cls(
                n=int(payload["n"]),
                p50=payload["p50"],
                p95=payload["p95"],
                mean=payload["mean"],
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed component stats: {payload!r}") from exc


@dataclass(frozen=True)
class TargetDecomposition:
    """The mined per-component decomposition a fit aims at."""

    source: str
    apps: int
    components: Tuple[Tuple[str, ComponentStats], ...]

    @classmethod
    def from_report(
        cls, report: AnalysisReport, source: str
    ) -> "TargetDecomposition":
        return cls(
            source=source,
            apps=len(report),
            components=tuple(
                (c, ComponentStats.from_sample(component_sample(report, c)))
                for c in COMPONENTS
            ),
        )

    def stats(self) -> Dict[str, ComponentStats]:
        return dict(self.components)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "source": self.source,
            "apps": self.apps,
            "components": {c: s.to_dict() for c, s in self.components},
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TargetDecomposition":
        if not isinstance(payload, Mapping) or "components" not in payload:
            raise ValueError(f"malformed target payload: {payload!r}")
        comps = payload["components"]
        missing = [c for c in COMPONENTS if c not in comps]
        if missing:
            raise ValueError(f"target is missing component(s): {missing}")
        return cls(
            source=str(payload.get("source", "?")),
            apps=int(payload.get("apps", 0)),
            components=tuple(
                (c, ComponentStats.from_dict(comps[c])) for c in COMPONENTS
            ),
        )


def component_error(target: ComponentStats, got: ComponentStats) -> float:
    """Error of one component: mean of p50/p95 floored relative errors.

    * both sides empty → 0.0 (nothing to disagree about);
    * one side empty → the fixed missing penalty;
    * otherwise ``|got - target| / max(|target|, floor)`` averaged over
      p50 and p95 — exact match is exactly 0.0, including 0-vs-0.
    """
    if target.n == 0 and got.n == 0:
        return 0.0
    if target.n == 0 or got.n == 0:
        return _MISSING_PENALTY

    def rel(t: Optional[float], s: Optional[float]) -> float:
        assert t is not None and s is not None
        return abs(s - t) / max(abs(t), _ERROR_FLOOR_S)

    return 0.5 * rel(target.p50, got.p50) + 0.5 * rel(target.p95, got.p95)


def _weighted_error(
    target: TargetDecomposition,
    got: TargetDecomposition,
    weights: Mapping[str, float],
) -> Tuple[float, Dict[str, float]]:
    t_stats, g_stats = target.stats(), got.stats()
    per_component: Dict[str, float] = {}
    total = 0.0
    weight_sum = 0.0
    for component in COMPONENTS:
        weight = float(weights.get(component, 0.0))
        err = component_error(t_stats[component], g_stats[component])
        per_component[component] = err
        total += weight * err
        weight_sum += weight
    if weight_sum <= 0:
        raise ValueError(f"weights must sum > 0, got {dict(weights)!r}")
    return total / weight_sum, per_component


@dataclass(frozen=True)
class TrialResult:
    """One evaluated candidate, JSON-ready."""

    index: int
    kind: str  # "baseline" | "grid" | "random"
    overrides: Dict[str, Any]
    #: Weighted error; None when the candidate failed to simulate.
    error: Optional[float] = None
    component_errors: Dict[str, float] = field(default_factory=dict)
    decomposition: Optional[Dict[str, Any]] = None
    failure: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "kind": self.kind,
            "overrides": dict(self.overrides),
            "error": self.error,
            "component_errors": dict(self.component_errors),
            "decomposition": self.decomposition,
            "failure": self.failure,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TrialResult":
        try:
            return cls(
                index=int(payload["index"]),
                kind=str(payload["kind"]),
                overrides=dict(payload["overrides"]),
                error=payload.get("error"),
                component_errors=dict(payload.get("component_errors", {})),
                decomposition=payload.get("decomposition"),
                failure=payload.get("failure"),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed trial payload: {payload!r}") from exc


def apply_overrides(scenario: Scenario, overrides: Mapping[str, Any]) -> Scenario:
    """The scenario variant a candidate describes.

    The ``scheduler`` knob swaps the scenario's scheduler; every other
    knob lands in the scenario's ``SimulationParams`` overrides (on top
    of the scenario's own), so the candidate still runs the *same*
    arrival pattern, tenants, and cluster events.
    """
    params = dict(scenario.params)
    scheduler = scenario.scheduler
    for name, value in overrides.items():
        if name == "scheduler":
            scheduler = str(value)
        else:
            params[name] = value
    return scenario.variant(params=params, scheduler=scheduler)


def mine_scenario(scenario: Scenario, seed: int) -> AnalysisReport:
    """Simulate one scenario at ``seed`` and mine its logs.

    Mining the in-memory store gives exactly the report of the run's
    dumped logs, because every record is stamped with the millisecond
    its line renders to — which is what makes the self-fit identity
    exact instead of merely close.
    """
    return scenario.run(seed).report


def evaluate_candidate(
    scenario: Scenario,
    overrides: Mapping[str, Any],
    replay_seed: int,
    target: TargetDecomposition,
    weights: Mapping[str, float],
    index: int = 0,
    kind: str = "grid",
) -> TrialResult:
    """Run one candidate end to end and score it against the target.

    Candidates that cannot even build (an override combination the
    params validation rejects) or whose simulation deadlocks come back
    as failed trials with ``error=None`` — they rank after every
    scoring trial, and their failure string rides along in the
    artifact's provenance.
    """
    overrides = dict(overrides)
    try:
        candidate = apply_overrides(scenario, overrides)
        report = mine_scenario(candidate, replay_seed)
    except (ValueError, SimulationError) as exc:
        return TrialResult(
            index=index, kind=kind, overrides=overrides, failure=str(exc)
        )
    mined = TargetDecomposition.from_report(
        report, source=f"trial:{index}"
    )
    error, per_component = _weighted_error(target, mined, weights)
    return TrialResult(
        index=index,
        kind=kind,
        overrides=overrides,
        error=error,
        component_errors=per_component,
        decomposition=mined.to_dict(),
    )
