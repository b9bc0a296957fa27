"""CLI suite for ``python -m repro.calibrate``.

Drives :func:`repro.calibrate.cli.main` in-process: fit writes a
loadable artifact and prints provenance, predict and whatif render
their tables, and every user error lands on stderr with exit code 2 —
no tracebacks.
"""

from __future__ import annotations

import json

import pytest

from repro.calibrate import FittedModel
from repro.calibrate.cli import main


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    path = tmp_path_factory.mktemp("calibrate-cli") / "fm.json"
    rc = main(
        [
            "fit",
            "--scenario",
            "diurnal-burst",
            "--grid",
            "0",
            "--random",
            "1",
            "--jobs",
            "1",
            "--out",
            str(path),
        ]
    )
    assert rc == 0
    return path


class TestFit:
    def test_writes_loadable_artifact(self, artifact):
        model = FittedModel.load(artifact)
        assert model.scenario == "diurnal-burst"
        assert model.best.error == 0.0

    def test_prints_provenance(self, artifact, capsys):
        rc = main(
            [
                "fit",
                "--scenario",
                "diurnal-burst",
                "--grid",
                "0",
                "--random",
                "1",
                "--jobs",
                "1",
                "--out",
                str(artifact),
                "--json",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out)
        assert payload["format"] == "repro.calibrate/fitted-model"
        assert payload["best_error"] == 0.0

    def test_unknown_scenario_exits_2(self, capsys):
        rc = main(["fit", "--scenario", "nope"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "unknown scenario preset" in captured.err

    def test_bad_jobs_rejected(self, capsys):
        rc = main(["fit", "--jobs", "zero"])
        assert rc == 2

    def test_out_creates_missing_parent_directories(self, tmp_path):
        out = tmp_path / "missing" / "dir" / "m.json"
        rc = main(
            ["fit", "--grid", "1", "--random", "0", "--jobs", "1", "--out", str(out)]
        )
        assert rc == 0
        assert FittedModel.load(out).scenario == "diurnal-burst"

    def test_target_that_is_not_a_directory_exits_2(self, tmp_path, capsys):
        rc = main(["fit", "--target", str(tmp_path / "nonexistent")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"error: {tmp_path / 'nonexistent'} is not a directory\n"


class TestPredict:
    def test_renders_table(self, artifact, capsys):
        rc = main(["predict", str(artifact)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "queue_wait_delay" in out
        assert "total_delay" in out

    def test_json_output(self, artifact, capsys):
        rc = main(["predict", str(artifact), "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out)
        assert "total_delay" in payload
        assert "NaN" not in out

    def test_missing_model_exits_2(self, tmp_path, capsys):
        rc = main(["predict", str(tmp_path / "absent.json")])
        captured = capsys.readouterr()
        assert rc == 2
        assert "cannot read fitted model" in captured.err


class TestWhatIf:
    def test_scheduler_swap_table(self, artifact, capsys):
        rc = main(["whatif", str(artifact), "--set", "scheduler=opportunistic"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "scheduler=opportunistic" in out
        assert "ramp_delay" in out

    def test_scale_halves_heartbeat(self, artifact, capsys):
        rc = main(
            ["whatif", str(artifact), "--scale", "nm_heartbeat_s=0.5", "--json"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out)
        base_hb = FittedModel.load(artifact).fitted_params["nm_heartbeat_s"]
        assert payload["overrides"]["nm_heartbeat_s"] == pytest.approx(
            base_hb / 2
        )

    def test_unknown_knob_exits_2(self, artifact, capsys):
        rc = main(["whatif", str(artifact), "--set", "bogus=1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "unknown knob" in captured.err

    def test_bad_scheduler_exits_2(self, artifact, capsys):
        rc = main(["whatif", str(artifact), "--set", "scheduler=mesos"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "unknown scheduler" in captured.err

    def test_no_overrides_exits_2(self, artifact, capsys):
        rc = main(["whatif", str(artifact)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "at least one override" in captured.err

    def test_scale_on_scheduler_exits_2(self, artifact, capsys):
        rc = main(["whatif", str(artifact), "--scale", "scheduler=0.5"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "cannot apply to the scheduler" in captured.err

    def test_malformed_set_exits_2(self, artifact, capsys):
        rc = main(["whatif", str(artifact), "--set", "nm_heartbeat_s"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "expects KNOB=VALUE" in captured.err
