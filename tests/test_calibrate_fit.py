"""Acceptance + determinism suite for the fit driver.

Pins the ISSUE's acceptance properties:

* **self-fit identity** — fitting a preset against its own mined logs
  scores the baseline trial exactly 0.0 and selects it;
* **parallel determinism** — the serialized artifact is byte-identical
  at ``jobs=1`` and ``jobs>1`` (Hypothesis-driven over search seeds);
* **seed stability** — the same seed reproduces the same artifact,
  different seeds draw different random trials;
* **golden snapshot** — one full small fit on ``diurnal-burst`` is
  pinned byte-for-byte in ``tests/data/`` (regen via
  ``tests/data/regen_golden.py``).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.calibrate import (
    FittedModel,
    Knob,
    ParameterSpace,
    fit,
    resolve_fit_jobs,
    self_target,
    whatif,
)
from repro.workloads.scenarios import get_scenario, trace_recipe

DATA = Path(__file__).resolve().parent / "data"
GOLDEN_FIT = DATA / "calibrate_diurnal_burst_fitted.json"

#: A two-knob space keeps hypothesis examples cheap: each example is
#: still full simulate+mine trials.
SMALL_SPACE = ParameterSpace(
    (
        Knob("nm_heartbeat_s", low=0.5, high=2.0, scale="log", grid=2),
        Knob("driver_init_median_s", low=1.0, high=4.0, scale="log", grid=2),
    )
)

_FIT_SETTINGS = settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestSelfFit:
    def test_baseline_trial_scores_exactly_zero(self):
        model = fit(
            "diurnal-burst", seed=5, grid_limit=1, random_trials=1, jobs=1,
            space=SMALL_SPACE,
        )
        baseline = model.trials[0]
        assert baseline.kind == "baseline"
        assert baseline.overrides == {}
        assert baseline.error == 0.0
        assert all(v == 0.0 for v in baseline.component_errors.values())
        assert model.best_index == 0
        assert model.best.error == 0.0

    def test_fitted_params_round_trip_and_replay(self):
        model = fit(
            "diurnal-burst", seed=5, grid_limit=1, random_trials=0, jobs=1,
            space=SMALL_SPACE,
        )
        params = model.params()
        assert params.to_dict() == model.fitted_params
        replay = model.replay_scenario()
        assert replay.name == "diurnal-burst"
        assert replay.scheduler == model.fitted_scheduler

    def test_explicit_target_matches_self_target(self):
        scenario = get_scenario("diurnal-burst")
        target = self_target(scenario, scenario.default_seed)
        model = fit(
            scenario, target, seed=5, grid_limit=1, random_trials=0, jobs=1,
            space=SMALL_SPACE,
        )
        assert model.trials[0].error == 0.0
        assert model.target == target


class TestDeterminism:
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @_FIT_SETTINGS
    def test_artifact_byte_identical_across_jobs(self, seed):
        kwargs = dict(
            grid_limit=1, random_trials=2, space=SMALL_SPACE, seed=seed
        )
        serial = fit("diurnal-burst", jobs=1, **kwargs)
        parallel = fit("diurnal-burst", jobs=4, **kwargs)
        assert serial.dumps() == parallel.dumps()

    def test_same_seed_same_artifact(self):
        kwargs = dict(
            grid_limit=1, random_trials=2, jobs=1, space=SMALL_SPACE
        )
        a = fit("diurnal-burst", seed=9, **kwargs)
        b = fit("diurnal-burst", seed=9, **kwargs)
        assert a.dumps() == b.dumps()

    def test_different_seeds_draw_different_random_trials(self):
        kwargs = dict(
            grid_limit=0, random_trials=2, jobs=1, space=SMALL_SPACE
        )
        a = fit("diurnal-burst", seed=1, **kwargs)
        b = fit("diurnal-burst", seed=2, **kwargs)
        # grid_limit=0 skips the grid: baseline + randoms only.
        assert [t.kind for t in a.trials] == ["baseline", "random", "random"]
        assert [t.overrides for t in a.trials if t.kind == "random"] != [
            t.overrides for t in b.trials if t.kind == "random"
        ]

    def test_random_trial_values_come_from_named_substreams(self):
        from repro.simul.distributions import RandomSource

        model = fit(
            "diurnal-burst", seed=4, grid_limit=0, random_trials=2, jobs=1,
            space=SMALL_SPACE,
        )
        rng = RandomSource(4, "calibrate.fit")
        expected = [
            SMALL_SPACE.sample_point(rng.child(f"trial.{i}")) for i in range(2)
        ]
        got = [t.overrides for t in model.trials if t.kind == "random"]
        assert got == expected


class TestArtifact:
    @pytest.fixture(scope="class")
    def model(self):
        return fit(
            "diurnal-burst", seed=5, grid_limit=1, random_trials=1, jobs=1,
            space=SMALL_SPACE,
        )

    def test_save_load_round_trip(self, model, tmp_path):
        path = model.save(tmp_path / "fm.json")
        loaded = FittedModel.load(path)
        assert loaded.dumps() == model.dumps()
        assert loaded.best.error == model.best.error

    def test_artifact_is_versioned_json(self, model, tmp_path):
        payload = json.loads(model.save(tmp_path / "fm.json").read_text())
        assert payload["format"] == "repro.calibrate/fitted-model"
        assert payload["version"] == 1
        assert payload["best_error"] == 0.0

    def test_wrong_format_rejected(self, model):
        payload = model.to_dict()
        payload["format"] = "something/else"
        with pytest.raises(ValueError, match="not a fitted-model artifact"):
            FittedModel.from_dict(payload)

    def test_wrong_version_rejected(self, model):
        payload = model.to_dict()
        payload["version"] = 99
        with pytest.raises(ValueError, match="unsupported fitted-model version"):
            FittedModel.from_dict(payload)

    def test_best_index_out_of_range_rejected(self, model):
        payload = model.to_dict()
        payload["best_index"] = 42
        with pytest.raises(ValueError, match="out of range"):
            FittedModel.from_dict(payload)

    def test_drifted_params_blob_rejected(self, model):
        payload = model.to_dict()
        payload["fitted_params"]["nm_hearbeat_s"] = 0.5
        with pytest.raises(ValueError, match="unknown SimulationParams field"):
            FittedModel.from_dict(payload)

    def test_unreadable_path_raises_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read fitted model"):
            FittedModel.load(tmp_path / "absent.json")


class TestFittedRecipe:
    """A model fitted on a non-preset scenario replays that scenario."""

    @pytest.fixture(scope="class")
    def model(self):
        recipe = trace_recipe(3, seed=1, params={"num_nodes": 5})
        return fit(recipe, grid_limit=1, random_trials=0, jobs=1)

    def test_replays_and_answers_whatif(self, model):
        assert model.best.error == 0.0
        scenario = model.replay_scenario()
        assert scenario.name == model.scenario
        assert scenario.params["num_nodes"] == 5
        answer = whatif(model, {"scheduler": "fair"})
        assert answer.scenario == model.scenario
        assert answer.base["total_delay"]["n"] == 3

    def test_loaded_artifact_names_the_scenario_it_cannot_replay(self, model):
        loaded = FittedModel.from_dict(model.to_dict())
        assert loaded.dumps() == model.dumps()
        with pytest.raises(ValueError, match=repr(model.scenario)):
            loaded.replay_scenario()


class TestResolveJobs:
    def test_explicit(self):
        assert resolve_fit_jobs(3, 10) == 3

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            resolve_fit_jobs(0, 10)

    def test_auto_is_bounded(self):
        jobs = resolve_fit_jobs("auto", 2)
        assert 1 <= jobs <= 2


class TestGoldenFit:
    def test_snapshot_exists(self):
        assert GOLDEN_FIT.exists(), (
            "missing golden fitted model; run "
            "PYTHONPATH=src python tests/data/regen_golden.py"
        )

    def test_fit_reproduces_golden_snapshot(self):
        model = fit(
            "diurnal-burst", seed=7, grid_limit=2, random_trials=2, jobs=1
        )
        assert model.dumps() == GOLDEN_FIT.read_text(encoding="utf-8")
