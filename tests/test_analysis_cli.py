"""End-to-end tests for ``python -m repro.analysis`` (the sdlint CLI)."""

import ast
import collections
import json
import shutil
from pathlib import Path

import pytest

from repro.analysis.baseline import load_baseline, partition, write_baseline
from repro.analysis.cli import default_root, main
from repro.analysis.findings import Finding, make_finding

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_ROOT = REPO_ROOT / "src"
BASELINE = REPO_ROOT / "sdlint.baseline"


@pytest.fixture()
def scratch_tree(tmp_path):
    """A mutable copy of src/repro the tests can seed violations into."""
    root = tmp_path / "scratch"
    shutil.copytree(
        SRC_ROOT / "repro",
        root / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return root


class TestPristine:
    def test_exits_zero_with_checked_in_baseline(self, capsys):
        rc = main(["--root", str(SRC_ROOT), "--baseline", str(BASELINE)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 finding(s)" in out
        assert "suppressed by baseline" in out
        assert "unused baseline entry" not in out

    def test_json_output(self, capsys):
        rc = main(["--root", str(SRC_ROOT), "--baseline", str(BASELINE), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["findings"] == []
        # 10 accepted findings: 5 SD204 (the KILLING entry retired when
        # the Table I′ taxonomy extension made that state
        # SDchecker-visible), 4 SD401 and 1 SD501.
        assert payload["suppressed"] == 10
        assert payload["unused_baseline"] == []
        assert sorted(payload["passes"]) == [
            "asyncsafety",
            "catalog",
            "determinism",
            "procsafety",
            "statemachines",
        ]


class TestOneIndex:
    def test_each_file_is_parsed_once_per_run(self, monkeypatch, capsys):
        root = default_root()
        parsed = collections.Counter()
        real_parse = ast.parse

        def spy(source, filename="<unknown>", *args, **kwargs):
            name = Path(str(filename))
            if name.is_absolute() and root in name.parents:
                name = name.relative_to(root)
            parsed[name.as_posix()] += 1
            return real_parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", spy)
        main([])
        capsys.readouterr()
        files = sorted(
            p.relative_to(root).as_posix() for p in (root / "repro").rglob("*.py")
        )
        assert files
        assert {f: parsed[f] for f in files} == {f: 1 for f in files}


class TestSeededViolations:
    def test_template_drift_fails_the_build(self, scratch_tree, capsys):
        machine_py = scratch_tree / "repro" / "yarn" / "state_machine.py"
        machine_py.write_text(
            machine_py.read_text().replace("Container Transitioned", "Container Moved")
        )
        rc = main(
            ["--root", str(scratch_tree), "--baseline", str(BASELINE), "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["counts"].get("SD101", 0) >= 1
        assert any(
            "Container Moved" in f["message"] for f in payload["findings"]
        )

    def test_unseeded_random_fails_the_build(self, scratch_tree, capsys):
        (scratch_tree / "repro" / "sneaky.py").write_text(
            '"""A module that breaks determinism for the test."""\n'
            "import random\n\n\n"
            "def jitter():\n"
            "    return random.random()\n"
        )
        rc = main(["--root", str(scratch_tree), "--baseline", str(BASELINE)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "SD301" in out and "repro/sneaky.py" in out

    def test_wall_clock_fails_the_build(self, scratch_tree, capsys):
        (scratch_tree / "repro" / "clocky.py").write_text(
            '"""A module that reads the host clock for the test."""\n'
            "import time\n\n\n"
            "def now():\n"
            "    return time.time()\n"
        )
        rc = main(["--root", str(scratch_tree), "--baseline", str(BASELINE)])
        assert rc == 1
        assert "SD302" in capsys.readouterr().out

    def test_pass_selection_limits_the_scan(self, scratch_tree, capsys):
        (scratch_tree / "repro" / "sneaky.py").write_text(
            '"""Determinism violation, invisible to the catalog pass."""\n'
            "import random\n\n\n"
            "def jitter():\n"
            "    return random.random()\n"
        )
        rc = main(
            [
                "--root",
                str(scratch_tree),
                "--baseline",
                str(BASELINE),
                "--pass",
                "catalog",
            ]
        )
        assert rc == 0
        assert "SD301" not in capsys.readouterr().out


class TestBaselineWorkflow:
    def test_write_then_clean(self, scratch_tree, tmp_path, capsys):
        (scratch_tree / "repro" / "sneaky.py").write_text(
            '"""A accepted determinism deviation for the test."""\n'
            "import random\n\n\n"
            "def jitter():\n"
            "    return random.random()\n"
        )
        baseline = tmp_path / "accepted.baseline"
        rc = main(
            ["--root", str(scratch_tree), "--baseline", str(baseline), "--write-baseline"]
        )
        assert rc == 0 and baseline.is_file()
        capsys.readouterr()
        rc = main(["--root", str(scratch_tree), "--baseline", str(baseline)])
        assert rc == 0
        assert "suppressed by baseline" in capsys.readouterr().out

    def test_unused_entries_are_reported_not_fatal(self, tmp_path, capsys):
        baseline = tmp_path / "stale.baseline"
        baseline.write_text(
            BASELINE.read_text() + "SD301 repro/gone.py stale entry\n"
        )
        rc = main(["--root", str(SRC_ROOT), "--baseline", str(baseline)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "unused baseline entry: SD301 repro/gone.py stale entry" in out

    def test_check_baseline_fresh_and_stale(self, tmp_path, capsys):
        rc = main(
            [
                "--root",
                str(SRC_ROOT),
                "--baseline",
                str(BASELINE),
                "--check-baseline",
            ]
        )
        assert rc == 0
        assert "up to date" in capsys.readouterr().out
        stale = tmp_path / "stale.baseline"
        stale.write_text(BASELINE.read_text() + "SD301 repro/gone.py stale\n")
        rc = main(
            ["--root", str(SRC_ROOT), "--baseline", str(stale), "--check-baseline"]
        )
        assert rc == 1
        assert "stale" in capsys.readouterr().out

    def test_check_baseline_names_added_and_dropped_keys(
        self, scratch_tree, tmp_path, capsys
    ):
        # One run gates both: a finding the baseline lacks makes it
        # stale, and so does an entry nothing reports any more.
        (scratch_tree / "repro" / "sneaky.py").write_text(
            '"""A module that breaks determinism for the test."""\n'
            "import random\n\n\n"
            "def jitter():\n"
            "    return random.random()\n"
        )
        stale = tmp_path / "stale.baseline"
        stale.write_text(BASELINE.read_text() + "SD301 repro/gone.py stale\n")
        rc = main(
            ["--root", str(scratch_tree), "--baseline", str(stale), "--check-baseline"]
        )
        lines = capsys.readouterr().out.splitlines()
        assert rc == 1
        added = [line for line in lines if line.startswith("sdlint: adds ")]
        dropped = [line for line in lines if line.startswith("sdlint: drops ")]
        assert len(added) == 1 and added[0].startswith("sdlint: adds SD301 repro/sneaky.py ")
        assert dropped == ["sdlint: drops SD301 repro/gone.py stale"]

    def test_partition_roundtrip(self, tmp_path):
        findings = [
            make_finding("SD301", "a.py", 3, "one"),
            make_finding("SD302", "b.py", 9, "two"),
        ]
        baseline = tmp_path / "b.txt"
        write_baseline(baseline, findings[:1])
        active, suppressed, unused = partition(findings, load_baseline(baseline))
        assert [f.rule for f in active] == ["SD302"]
        assert [f.rule for f in suppressed] == ["SD301"]
        assert unused == []

    def test_baseline_key_ignores_line_numbers(self):
        a = Finding("SD301", "error", "a.py", 3, "same message")
        b = Finding("SD301", "error", "a.py", 99, "same message")
        assert a.key == b.key
