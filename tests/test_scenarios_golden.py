"""Golden-pinned scenario packs.

Every preset in :data:`repro.workloads.scenarios.SCENARIO_PRESETS` is
pinned by a committed mined-report snapshot at its preset seed
(``tests/data/scenario_<name>_expected.json``, regenerated via
``tests/data/regen_golden.py``).  Any change to arrival sampling,
tenant routing, scheduler behaviour, preemption policy, cluster-event
handling, log rendering, or the decomposition shows up as a snapshot
diff — and mining a scenario in parallel (``--jobs 4``) must match the
sequential report byte for byte.

These are full end-to-end runs (generate → mine → export), so the
acceptance properties ride along: the preemption preset must actually
preempt, the failure preset must actually kill containers, and the
extended breakdown must telescope to the total in every snapshot.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.checker import SDChecker
from repro.core.decompose import BREAKDOWN_COMPONENTS
from repro.workloads.scenarios import SCENARIO_PRESETS, get_scenario, list_scenarios
from tests.data.regen_golden import (
    GRAPH_EXPECTED,
    graph_digests,
    recipe_path,
    recipe_scenarios,
    recipe_snapshot,
)

DATA = Path(__file__).resolve().parent / "data"

PRESETS = list_scenarios()


def snapshot_path(name: str) -> Path:
    return DATA / f"scenario_{name.replace('-', '_')}_expected.json"


def report_json(report) -> str:
    """The report with its diagnostics ledger, as canonical JSON."""
    return json.dumps(report.to_dict(include_diagnostics=True), sort_keys=True)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Each preset simulated once at its pinned seed (shared by tests).

    Yields ``name -> (ScenarioRun, dumped-log directory)``; the
    snapshots pin the *dumped* logs (millisecond log4j timestamps),
    which the in-memory store must mine to byte for byte.
    """
    out = {}
    for name in PRESETS:
        run = SCENARIO_PRESETS[name].run()
        logdir = tmp_path_factory.mktemp(f"scenario-{name}") / "logs"
        run.testbed.dump_logs(logdir)
        out[name] = (run, logdir)
    return out


class TestRecipeSnapshots:
    """Small runs of the paper's section IV-A recipe, pinned byte for byte.

    A drift in the recipe's RNG root, its per-job mix streams, or its
    app, dataset, user or queue names changes these snapshots.
    """

    @pytest.mark.parametrize("name", ["dfsio-warmup", "trace-replay"])
    def test_matches_snapshot(self, name):
        expected = json.loads(recipe_path(name).read_text())
        assert recipe_snapshot(recipe_scenarios()[name].run()) == expected


class TestSnapshots:
    def test_every_preset_has_a_snapshot(self):
        for name in PRESETS:
            assert snapshot_path(name).exists(), f"missing snapshot for {name}"

    @pytest.mark.parametrize("name", PRESETS)
    def test_matches_snapshot(self, name, runs):
        _, logdir = runs[name]
        expected = json.loads(snapshot_path(name).read_text())
        assert SDChecker().analyze(logdir).to_dict() == expected

    @pytest.mark.parametrize("name", PRESETS)
    def test_parallel_mining_is_byte_identical(self, name, runs):
        """--jobs 4 over the dumped logs == the sequential report."""
        _, logdir = runs[name]
        sequential = SDChecker(jobs=1).analyze(logdir)
        parallel = SDChecker(jobs=4).analyze(logdir)
        blob = lambda r: json.dumps(
            r.to_dict(include_diagnostics=True), indent=2, sort_keys=True
        )
        assert blob(sequential) == blob(parallel)
        expected = json.loads(snapshot_path(name).read_text())
        assert parallel.to_dict() == expected

    @pytest.mark.parametrize("name", PRESETS)
    def test_scheduling_graphs_match_snapshot(self, name, runs):
        """Every app's DOT text and critical path, pinned by digest."""
        _, logdir = runs[name]
        expected = json.loads(GRAPH_EXPECTED.read_text())["presets"][name]
        assert graph_digests(SDChecker().group(logdir)) == expected

    @pytest.mark.parametrize("name", PRESETS)
    def test_in_memory_report_equals_dumped_report(self, name, runs):
        """Mining the run's store == mining its dumped logs, ledger included."""
        run, logdir = runs[name]
        assert report_json(run.report) == report_json(SDChecker(jobs=1).analyze(logdir))


class TestAcceptanceProperties:
    def test_preemption_preset_preempts(self, runs):
        run, _ = runs["preemption-storm"]
        assert run.preemptions > 0
        assert max(run.report.sample("preemption_delay").values) > 0

    def test_node_failure_preset_kills_containers(self, runs):
        run, _ = runs["node-failures"]
        assert run.failure_kills > 0
        assert max(run.report.sample("preemption_delay").values) > 0

    @pytest.mark.parametrize("name", PRESETS)
    def test_breakdown_telescopes_in_every_snapshot(self, name):
        expected = json.loads(snapshot_path(name).read_text())
        for app in expected["applications"]:
            parts = [app[c] for c in BREAKDOWN_COMPONENTS]
            assert all(p is not None for p in parts), app["app_id"]
            assert all(p >= 0 for p in parts), app["app_id"]
            assert sum(parts) == pytest.approx(app["total_delay"], abs=1e-9)

    @pytest.mark.parametrize("name", PRESETS)
    def test_snapshot_mentions_every_breakdown_component(self, name):
        expected = json.loads(snapshot_path(name).read_text())
        for app in expected["applications"]:
            for component in BREAKDOWN_COMPONENTS:
                assert component in app


class TestDeterminism:
    @pytest.mark.parametrize("name", ["autoscale-out", "preemption-storm"])
    def test_same_seed_same_logs(self, name, tmp_path):
        """Two builds at the preset seed emit byte-identical log files."""
        scenario = get_scenario(name)
        dirs = []
        for i in range(2):
            run = scenario.run()
            out = tmp_path / f"run{i}"
            run.testbed.dump_logs(out)
            dirs.append(out)
        a, b = (sorted(d.iterdir()) for d in dirs)
        assert [p.name for p in a] == [p.name for p in b]
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes(), pa.name

    def test_different_seed_different_logs(self, tmp_path):
        scenario = get_scenario("diurnal-burst")
        blobs = []
        for seed in (scenario.default_seed, scenario.default_seed + 1):
            run = scenario.run(seed=seed)
            out = tmp_path / f"seed{seed}"
            run.testbed.dump_logs(out)
            blobs.append(b"".join(p.read_bytes() for p in sorted(out.iterdir())))
        assert blobs[0] != blobs[1]


class TestCLI:
    def test_list_names_every_preset(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["scenario", "--list"]) == 0
        out = capsys.readouterr().out
        for name in PRESETS:
            assert name in out

    def test_unknown_subcommand_lists_presets_on_stderr(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["bogus"]) == 2
        captured = capsys.readouterr()
        assert "unknown command" in captured.err
        for name in PRESETS:
            assert name in captured.err
        assert not captured.out

    def test_unknown_preset_lists_presets_on_stderr(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["scenario", "no-such-preset"]) == 2
        captured = capsys.readouterr()
        assert "no-such-preset" in captured.err
        for name in PRESETS:
            assert name in captured.err

    def test_no_arguments_prints_usage_and_fails(self, capsys):
        from repro.experiments.__main__ import main

        assert main([]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_module_is_runnable_without_traceback(self):
        """Regression: ``python -m repro.experiments`` used to die with
        'No module named repro.experiments.__main__'."""
        import os
        import subprocess
        import sys

        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "definitely-not-a-command"],
            capture_output=True,
            text=True,
            env=env,
            cwd=Path(__file__).resolve().parent.parent,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "No module named" not in proc.stderr
        for name in PRESETS:
            assert name in proc.stderr

    def test_run_smallest_preset_prints_new_components(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["scenario", "autoscale-out"]) == 0
        out = capsys.readouterr().out
        for component in BREAKDOWN_COMPONENTS:
            assert component in out
