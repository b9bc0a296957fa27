"""The fit driver: seeded grid + random search, fanned out and merged.

:func:`fit` generates every candidate up front — the baseline (trial 0,
no overrides: the self-fit identity point), a deterministically thinned
grid, and random points drawn from per-trial
:meth:`~repro.simul.distributions.RandomSource.child` substreams — then
evaluates them either in-process or across a
:class:`~concurrent.futures.ProcessPoolExecutor` via the miner's
order-preserving ``Executor.map`` discipline.  Results come back in
submission order whatever ``jobs`` is, so the emitted
:class:`FittedModel` artifact is byte-identical at any parallelism (the
hypothesis suite pins this).

The artifact is versioned JSON with full provenance: the seed, the
space, the target, every trial's overrides and per-component errors,
and the winning parameter set serialized through the validated
``SimulationParams`` to/from-dict round-trip.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.core.parser import _pool_map, available_cpus
from repro.params import SimulationParams
from repro.simul.distributions import RandomSource
from repro.calibrate.objective import (
    DEFAULT_WEIGHTS,
    TargetDecomposition,
    TrialResult,
    apply_overrides,
    evaluate_candidate,
    mine_scenario,
)
from repro.calibrate.space import DEFAULT_SPACE, ParameterSpace
from repro.workloads.scenarios.presets import get_scenario
from repro.workloads.scenarios.scenario import Scenario

__all__ = ["FittedModel", "fit", "self_target", "resolve_fit_jobs"]

ARTIFACT_FORMAT = "repro.calibrate/fitted-model"
ARTIFACT_VERSION = 1

#: Trial fan-out cap under jobs="auto": fit trials are whole
#: simulations, so a small pool saturates long before mining-style
#: worker counts help.
_AUTO_MAX_JOBS = 4


def resolve_fit_jobs(jobs: Union[int, str], trials: int) -> int:
    """A worker count for ``trials`` candidates (``"auto"`` = by CPU)."""
    if jobs == "auto":
        return max(1, min(available_cpus(), _AUTO_MAX_JOBS, trials))
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


# One positional tuple per trial; a module-level function so the pool
# can pickle it (and the sanitizer can double-submit it).
def _evaluate_task(task: Tuple) -> Dict[str, Any]:
    scenario, overrides, replay_seed, target, weights, index, kind = task
    return evaluate_candidate(
        scenario, overrides, replay_seed, target, weights, index=index, kind=kind
    ).to_dict()


@dataclass
class FittedModel:
    """A versioned, reloadable calibration artifact."""

    scenario: str
    seed: int
    replay_seed: int
    space: ParameterSpace
    weights: Dict[str, float]
    target: TargetDecomposition
    trials: List[TrialResult]
    best_index: int
    #: The winning full parameter set (``SimulationParams.to_dict()``).
    fitted_params: Dict[str, Any] = field(default_factory=dict)
    fitted_scheduler: str = "capacity"
    #: The scenario :func:`fit` replayed, kept in memory only: the
    #: artifact names it, and a loaded one resolves that name as a preset.
    fitted_on: Optional[Scenario] = field(default=None, repr=False, compare=False)

    @property
    def best(self) -> TrialResult:
        return self.trials[self.best_index]

    def params(self) -> SimulationParams:
        """The fitted point, revalidated through the round-trip."""
        return SimulationParams.from_dict(self.fitted_params)

    def replay_scenario(self) -> Scenario:
        """The scenario this model replays, with the fit baked in.

        A model :func:`fit` returned replays the scenario it was fitted
        on; a loaded artifact replays the preset it names.
        """
        scenario = self.fitted_on
        if scenario is None:
            try:
                scenario = get_scenario(self.scenario)
            except KeyError:
                raise ValueError(
                    f"cannot replay scenario {self.scenario!r}: it is not a "
                    f"preset, and only the model fit() returned keeps it"
                ) from None
        return apply_overrides(scenario, self.best.overrides)

    # -- serialization ----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": ARTIFACT_FORMAT,
            "version": ARTIFACT_VERSION,
            "scenario": self.scenario,
            "seed": self.seed,
            "replay_seed": self.replay_seed,
            "space": self.space.to_dict(),
            "weights": dict(self.weights),
            "target": self.target.to_dict(),
            "trials": [t.to_dict() for t in self.trials],
            "best_index": self.best_index,
            "best_error": self.best.error,
            "fitted_params": dict(self.fitted_params),
            "fitted_scheduler": self.fitted_scheduler,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.dumps(), encoding="utf-8")
        return path

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FittedModel":
        if not isinstance(payload, Mapping):
            raise ValueError("fitted-model payload must be a mapping")
        if payload.get("format") != ARTIFACT_FORMAT:
            raise ValueError(
                f"not a fitted-model artifact (format="
                f"{payload.get('format')!r}, want {ARTIFACT_FORMAT!r})"
            )
        if payload.get("version") != ARTIFACT_VERSION:
            raise ValueError(
                f"unsupported fitted-model version {payload.get('version')!r} "
                f"(this build reads version {ARTIFACT_VERSION})"
            )
        trials = [TrialResult.from_dict(t) for t in payload["trials"]]
        best_index = int(payload["best_index"])
        if not 0 <= best_index < len(trials):
            raise ValueError(f"best_index {best_index} out of range")
        fitted_params = dict(payload["fitted_params"])
        # Loudly reject artifacts whose parameter blob has drifted from
        # the current SimulationParams schema.
        SimulationParams.from_dict(fitted_params)
        return cls(
            scenario=str(payload["scenario"]),
            seed=int(payload["seed"]),
            replay_seed=int(payload["replay_seed"]),
            space=ParameterSpace.from_dict(payload["space"]),
            weights=dict(payload["weights"]),
            target=TargetDecomposition.from_dict(payload["target"]),
            trials=trials,
            best_index=best_index,
            fitted_params=fitted_params,
            fitted_scheduler=str(payload.get("fitted_scheduler", "capacity")),
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FittedModel":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read fitted model {path}: {exc}") from exc
        return cls.from_dict(payload)


def self_target(scenario: Scenario, replay_seed: int) -> TargetDecomposition:
    """Mine the scenario itself as the fit target (self-fit identity)."""
    report = mine_scenario(scenario, replay_seed)
    return TargetDecomposition.from_report(
        report, source=f"scenario:{scenario.name}@seed={replay_seed}"
    )


def _generate_candidates(
    space: ParameterSpace,
    seed: int,
    grid_limit: int,
    random_trials: int,
) -> List[Tuple[str, Dict[str, Any]]]:
    candidates: List[Tuple[str, Dict[str, Any]]] = [("baseline", {})]
    if grid_limit > 0:
        for point in space.grid_points(limit=grid_limit):
            candidates.append(("grid", point))
    rng = RandomSource(seed, "calibrate.fit")
    for i in range(random_trials):
        candidates.append(("random", space.sample_point(rng.child(f"trial.{i}"))))
    return candidates


def fit(
    scenario: Union[str, Scenario],
    target: Optional[TargetDecomposition] = None,
    *,
    seed: int = 0,
    grid_limit: int = 8,
    random_trials: int = 8,
    jobs: Union[int, str] = 1,
    replay_seed: Optional[int] = None,
    weights: Optional[Mapping[str, float]] = None,
    space: ParameterSpace = DEFAULT_SPACE,
) -> FittedModel:
    """Fit the simulator to ``target`` by replaying ``scenario``.

    ``target=None`` mines the scenario itself at the replay seed — the
    self-calibration loop whose baseline trial must score exactly 0.
    ``grid_limit`` caps the seeded-grid trials (0 skips the grid
    entirely); ``random_trials`` adds random-search candidates.
    ``jobs`` fans trials out over worker processes; the returned model
    (and its serialized artifact) is byte-identical for any value.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    replay_seed = (
        scenario.default_seed if replay_seed is None else int(replay_seed)
    )
    weights = dict(DEFAULT_WEIGHTS if weights is None else weights)
    if target is None:
        target = self_target(scenario, replay_seed)

    candidates = _generate_candidates(space, seed, grid_limit, random_trials)
    tasks = [
        (scenario, overrides, replay_seed, target, weights, index, kind)
        for index, (kind, overrides) in enumerate(candidates)
    ]
    workers = resolve_fit_jobs(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # Executor.map preserves submission order: the artifact's
            # trial list — and therefore its bytes — cannot depend on
            # worker completion order (SD304 discipline).
            raw = list(_pool_map(pool, _evaluate_task, tasks))
    else:
        raw = [_evaluate_task(task) for task in tasks]
    trials = [TrialResult.from_dict(payload) for payload in raw]

    best_index = min(
        range(len(trials)),
        key=lambda i: (
            trials[i].error is None,
            trials[i].error if trials[i].error is not None else 0.0,
            i,
        ),
    )
    fitted = apply_overrides(scenario, trials[best_index].overrides)
    return FittedModel(
        scenario=scenario.name,
        seed=int(seed),
        replay_seed=replay_seed,
        space=space,
        weights=weights,
        target=target,
        trials=trials,
        best_index=best_index,
        fitted_params=fitted.build_params().to_dict(),
        fitted_scheduler=fitted.scheduler,
        fitted_on=scenario,
    )
