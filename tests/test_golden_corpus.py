"""Golden-corpus regression tests.

A committed log corpus (one deterministic TPC-H run) with committed
expected analysis output.  Unlike the in-memory round-trip tests, this
pins the *bytes*: any change to log rendering, record parsing,
grouping, decomposition, export formatting — or to the seeded
corruption catalog — shows up as a diff against the snapshots in
``tests/data/``.  Regenerate intentionally with
``tests/data/regen_golden.py`` (see the README there).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.checker import SDChecker
from repro.faults import corrupt_copy
from tests.data.regen_golden import GRAPH_EXPECTED, golden_graph

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden"

#: The canned corruption seeds pinned by these snapshots.
CANNED_SEED = 0


@pytest.fixture(scope="module")
def expected():
    return json.loads((DATA / "golden_expected.json").read_text())


class TestCleanCorpus:
    def test_matches_snapshot(self, expected):
        report = SDChecker().analyze(GOLDEN)
        assert report.to_dict() == expected

    def test_parallel_mining_matches_snapshot(self, expected):
        report = SDChecker(jobs=4).analyze(GOLDEN)
        assert report.to_dict() == expected

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_fast_path_matches_snapshot_and_legacy(self, jobs, expected):
        """Byte-identity of the byte-oriented fast path at --jobs {1, 4}.

        The report (including the diagnostics ledger) must match both
        the pinned snapshot and the report of the corpus read through
        the regex reader (``LogStore.load``) and mined in memory.
        """
        from repro.logsys.store import LogStore

        checker = SDChecker(jobs=jobs)
        report = checker.analyze(GOLDEN)
        assert report.to_dict() == expected
        reference = checker.analyze(LogStore.load(GOLDEN))
        assert report.to_dict(include_diagnostics=True) == reference.to_dict(
            include_diagnostics=True
        )

    def test_clean_corpus_has_clean_diagnostics(self):
        report = SDChecker().analyze(GOLDEN)
        assert report.diagnostics is not None
        assert not report.diagnostics.degraded()

    def test_every_component_measured(self, expected):
        for app in expected["applications"]:
            missing = [k for k, v in app.items() if v is None]
            assert not missing, f"{app['app_id']} missing {missing}"

    def test_scheduling_graph_matches_snapshot(self):
        """The golden app's DOT text and critical path, byte for byte."""
        expected = json.loads(GRAPH_EXPECTED.read_text())["golden"]
        graph = golden_graph(SDChecker().group(GOLDEN))
        assert graph["dot"] == expected["dot"]
        assert graph == expected


class TestCannedCorruptions:
    """Clean snapshot + three canned corruptions, all pinned."""

    @pytest.mark.parametrize(
        "name", ["duplicate-lines", "inject-noise", "rotation-split"]
    )
    def test_identity_corruption_matches_clean_snapshot(
        self, name, tmp_path, expected
    ):
        out = tmp_path / "logs"
        corrupt_copy(GOLDEN, out, [name], seed=CANNED_SEED)
        report = SDChecker().analyze(out)
        assert report.to_dict() == expected

    def test_truncate_tail_matches_degraded_snapshot(self, tmp_path):
        degraded_expected = json.loads(
            (DATA / "golden_expected_truncate_tail.json").read_text()
        )
        out = tmp_path / "logs"
        corrupt_copy(GOLDEN, out, ["truncate-tail"], seed=CANNED_SEED)
        report = SDChecker().analyze(out)
        assert report.to_dict(include_diagnostics=True) == degraded_expected

    def test_truncate_tail_snapshot_admits_degradation(self):
        degraded_expected = json.loads(
            (DATA / "golden_expected_truncate_tail.json").read_text()
        )
        assert degraded_expected["diagnostics"]["degraded"] is True
