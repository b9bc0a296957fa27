"""Unit tests for the corruption catalog and the seeded injector.

Property coverage lives in ``test_faults_metamorphic.py``; these pin
the mechanics: catalog completeness, seed determinism, receipts, the
physical file effects of each corruption, and the CLI.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.faults import (
    CATALOG,
    FaultInjector,
    corrupt_copy,
    degradation_names,
    identity_names,
    make_corruption,
)
from repro.faults.cli import main as faults_main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


def _tree_bytes(root: Path):
    return {
        p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()
    }


@pytest.fixture
def corpus(tmp_path):
    out = tmp_path / "corpus"
    shutil.copytree(GOLDEN, out)
    return out


class TestCatalog:
    def test_catalog_partition(self):
        assert set(identity_names()) | set(degradation_names()) == set(CATALOG)
        assert not set(identity_names()) & set(degradation_names())
        assert set(identity_names()) == {
            "duplicate-lines",
            "inject-noise",
            "rotation-split",
        }

    def test_make_corruption_rejects_unknown(self):
        with pytest.raises(KeyError, match="unknown corruption"):
            make_corruption("bit-flips-from-space")

    def test_make_corruption_forwards_kwargs(self):
        corruption = make_corruption("truncate-tail", max_lines=2)
        assert corruption.max_lines == 2


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_same_seed_same_bytes(self, name, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        corrupt_copy(GOLDEN, a, [name], seed=5)
        corrupt_copy(GOLDEN, b, [name], seed=5)
        assert _tree_bytes(a) == _tree_bytes(b)

    def test_different_seeds_differ(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        corrupt_copy(GOLDEN, a, ["duplicate-lines"], seed=1)
        corrupt_copy(GOLDEN, b, ["duplicate-lines"], seed=2)
        assert _tree_bytes(a) != _tree_bytes(b)

    def test_corruptions_draw_independent_substreams(self, corpus, tmp_path):
        """A corruption's bytes don't depend on what ran before it."""
        solo = tmp_path / "solo"
        corrupt_copy(GOLDEN, solo, ["delete-daemon"], seed=9)
        stacked = tmp_path / "stacked"
        # duplicate-lines first must not perturb delete-daemon's pick.
        receipts = corrupt_copy(
            GOLDEN, stacked, ["duplicate-lines", "delete-daemon"], seed=9
        )
        # Compare deleted-file sets, not bytes (duplication changes bytes).
        deleted_solo = set(_tree_bytes(GOLDEN)) - set(_tree_bytes(solo))
        deleted_stacked = set(_tree_bytes(GOLDEN)) - set(_tree_bytes(stacked))
        assert receipts[1].touched
        assert deleted_solo == deleted_stacked


class TestFileEffects:
    def test_duplicate_lines_inserts_adjacent_copies(self, corpus):
        before = _tree_bytes(corpus)
        receipts = FaultInjector(seed=4).inject(corpus, ["duplicate-lines"])
        assert receipts[0].touched
        for name, data in _tree_bytes(corpus).items():
            old_lines = before[name].splitlines()
            new_lines = data.splitlines()
            # Removing adjacent duplicates restores the original file.
            deduped = [
                line
                for i, line in enumerate(new_lines)
                if i == 0 or line != new_lines[i - 1]
            ]
            # (the clean corpus has no adjacent duplicates to begin with)
            assert deduped == old_lines

    def test_inject_noise_never_touches_the_first_line(self, corpus):
        before = _tree_bytes(corpus)
        FaultInjector(seed=4).inject(corpus, ["inject-noise"])
        for name, data in _tree_bytes(corpus).items():
            if before[name]:
                assert data.splitlines()[0] == before[name].splitlines()[0]

    def test_rotation_split_preserves_line_sequence(self, corpus):
        from repro.logsys.store import stream_segments

        before = _tree_bytes(corpus)
        receipts = FaultInjector(seed=4).inject(corpus, ["rotation-split"])
        assert receipts[0].touched
        for daemon, segments in stream_segments(corpus):
            merged = b"".join(s.path.read_bytes() for s in segments)
            assert merged == before[f"{daemon}.log"]

    def test_truncate_final_leaves_partial_last_line(self, corpus):
        receipts = FaultInjector(seed=4).inject(corpus, ["truncate-final"])
        assert receipts[0].touched
        for daemon in receipts[0].touched:
            data = (corpus / f"{daemon}.log").read_bytes()
            assert not data.endswith(b"\n")

    def test_delete_daemon_removes_all_segments(self, corpus):
        receipts = FaultInjector(seed=4).inject(corpus, ["delete-daemon"])
        (daemon,) = receipts[0].touched
        assert not list(corpus.glob(f"{daemon}.log*"))

    def test_invalid_utf8_mangles_bytes(self, corpus):
        before = _tree_bytes(corpus)
        receipts = FaultInjector(seed=4).inject(corpus, ["invalid-utf8"])
        assert receipts[0].touched
        after = _tree_bytes(corpus)
        changed = [n for n in after if after[n] != before[n]]
        assert changed
        for name in changed:
            with pytest.raises(UnicodeDecodeError):
                after[name].decode("utf-8")


class TestCLI:
    def test_corrupt_subcommand(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = faults_main(
            [
                "corrupt",
                str(GOLDEN),
                str(out),
                "--corruption",
                "duplicate-lines",
                "--seed",
                "3",
            ]
        )
        assert rc == 0
        assert out.is_dir()
        assert "duplicate-lines" in capsys.readouterr().out

    def test_sweep_subcommand_smoke(self, capsys):
        rc = faults_main(
            [
                "sweep",
                str(GOLDEN),
                "--corruption",
                "truncate-final",
                "--corruption",
                "rotation-split",
                "--seeds",
                "2",
            ]
        )
        assert rc == 0
        captured = capsys.readouterr().out
        assert "4 cell(s), 0 failure(s)" in captured

    def test_missing_directory(self, tmp_path, capsys):
        rc = faults_main(["sweep", str(tmp_path / "nope")])
        assert rc == 2
