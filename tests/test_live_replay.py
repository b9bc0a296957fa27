"""Metamorphic replay-equivalence suite for the live miner.

The contract under test: once a log directory stops growing, a drained
:class:`~repro.live.incremental.LiveSession` produces an
:class:`~repro.core.report.AnalysisReport` *byte-identical* to the
batch :class:`~repro.core.checker.SDChecker` over the same directory —
no matter how the bytes arrived.  Hypothesis drives the arrival
schedule: files grow by arbitrary byte increments (mid-line, mid-record
— timestamps get split across polls), streams interleave in arbitrary
order, rotation renames happen between polls, and sessions get
checkpointed and resumed mid-stream.  Every schedule must converge to
the same report dict (diagnostics ledger included).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.checker import SDChecker
from repro.live import LiveSession

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden"


def _corpus():
    """(name, bytes) for every golden stream file, sorted."""
    return [
        (path.name, path.read_bytes())
        for path in sorted(GOLDEN.iterdir())
        if path.is_file()
    ]


def _batch_dict(directory):
    report = SDChecker(jobs=1).analyze(directory)
    return report.to_dict(include_diagnostics=True)


def _drained_dict(session):
    return session.drain().to_dict(include_diagnostics=True)


@pytest.fixture(scope="module")
def golden_batch_dict():
    return _batch_dict(GOLDEN)


class TestWholeCorpusAtOnce:
    def test_single_poll_then_drain_matches_batch(
        self, tmp_path, golden_batch_dict
    ):
        for name, data in _corpus():
            (tmp_path / name).write_bytes(data)
        session = LiveSession(tmp_path)
        session.poll()
        assert _drained_dict(session) == golden_batch_dict

    def test_drain_without_any_poll_matches_batch(
        self, tmp_path, golden_batch_dict
    ):
        for name, data in _corpus():
            (tmp_path / name).write_bytes(data)
        assert _drained_dict(LiveSession(tmp_path)) == golden_batch_dict

    def test_report_on_the_real_golden_directory(self, golden_batch_dict):
        # Read-only session over the committed corpus itself.
        session = LiveSession(GOLDEN)
        session.poll()
        report = session.report()
        assert report.to_dict(include_diagnostics=True) == golden_batch_dict


class TestRandomizedSchedules:
    """Any chunk-arrival schedule converges to the batch report."""

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_random_increments_match_batch(
        self, data, tmp_path_factory, golden_batch_dict
    ):
        tmp_path = tmp_path_factory.mktemp("replay")
        corpus = _corpus()
        # Draw per-file cut offsets: arbitrary byte positions, so lines,
        # records, and even timestamp fields split across arrivals.
        plans = {}
        for name, blob in corpus:
            cuts = data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=len(blob)),
                    max_size=4,
                ),
                label=f"cuts:{name}",
            )
            plans[name] = sorted(set(cuts)) + [len(blob)]
        session = LiveSession(tmp_path)
        written = {name: 0 for name, _ in corpus}
        pending = {name: list(plan) for name, plan in plans.items()}
        blob_of = dict(corpus)
        while any(pending.values()):
            candidates = sorted(name for name in pending if pending[name])
            name = data.draw(st.sampled_from(candidates), label="next stream")
            target = pending[name].pop(0)
            # Unconditional append-open: even a zero-byte step creates
            # the file, the way a daemon opens its log before writing
            # (the golden layout has a genuinely empty stream).
            with (tmp_path / name).open("ab") as handle:
                handle.write(blob_of[name][written[name] : target])
            written[name] = max(written[name], target)
            if data.draw(st.booleans(), label="poll now"):
                session.poll()
        assert _drained_dict(session) == golden_batch_dict

    def test_line_by_line_arrival_matches_batch(
        self, tmp_path, golden_batch_dict
    ):
        corpus = _corpus()
        session = LiveSession(tmp_path)
        # Round-robin one line per stream per poll: the steady-trickle
        # schedule a real cluster produces.
        remaining = {
            name: blob.splitlines(keepends=True) for name, blob in corpus
        }
        for name, _blob in corpus:
            (tmp_path / name).write_bytes(b"")
        while any(remaining.values()):
            for name in sorted(remaining):
                if remaining[name]:
                    with (tmp_path / name).open("ab") as handle:
                        handle.write(remaining[name].pop(0))
            session.poll()
        assert _drained_dict(session) == golden_batch_dict

    def test_byte_at_a_time_on_one_stream(self, tmp_path):
        # The cruelest schedule, on a corpus small enough to afford it:
        # the RM log arrives one byte per poll.
        blob = (GOLDEN / "hadoop-resourcemanager.log").read_bytes()[:1200]
        (tmp_path / "hadoop-resourcemanager.log").write_bytes(b"")
        session = LiveSession(tmp_path)
        target = tmp_path / "hadoop-resourcemanager.log"
        for i in range(len(blob)):
            with target.open("ab") as handle:
                handle.write(blob[i : i + 1])
            if i % 40 == 0:
                session.poll()
        assert _drained_dict(session) == _batch_dict(tmp_path)


class TestRotationSchedules:
    """Rename rotation mid-session still converges to the batch view."""

    def _write_with_rotation(self, tmp_path, session, name, blob, cuts):
        """Write ``blob`` into ``name`` rotating at each cut offset."""
        live = tmp_path / name
        daemon = name[: -len(".log")]
        start = 0
        pieces = sorted(set(c for c in cuts if 0 < c < len(blob)))
        for piece_end in pieces + [len(blob)]:
            live.write_bytes(blob[start:piece_end])
            session.poll()
            if piece_end < len(blob):
                # Rotate: shift every index up, live becomes .1.
                indices = sorted(
                    (
                        int(p.name.rsplit(".", 1)[1])
                        for p in tmp_path.glob(f"{daemon}.log.*")
                    ),
                    reverse=True,
                )
                for index in indices:
                    os.rename(
                        tmp_path / f"{daemon}.log.{index}",
                        tmp_path / f"{daemon}.log.{index + 1}",
                    )
                os.rename(live, tmp_path / f"{daemon}.log.1")
                session.poll()
            start = piece_end

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_rotating_rm_log_matches_batch_of_final_layout(
        self, data, tmp_path_factory
    ):
        tmp_path = tmp_path_factory.mktemp("rotate")
        corpus = _corpus()
        blob_of = dict(corpus)
        session = LiveSession(tmp_path)
        for name, blob in corpus:
            if name != "hadoop-resourcemanager.log":
                (tmp_path / name).write_bytes(blob)
        session.poll()
        rm = blob_of["hadoop-resourcemanager.log"]
        cuts = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=len(rm) - 1),
                min_size=1,
                max_size=3,
            ),
            label="rotation cuts",
        )
        self._write_with_rotation(
            tmp_path, session, "hadoop-resourcemanager.log", rm, cuts
        )
        live = _drained_dict(session)
        # The batch reference is the *final* directory layout: rotation
        # may have cut a record in half, and both readers must see that
        # half-record the same way.
        assert live == _batch_dict(tmp_path)

    def test_rotation_at_line_boundary_matches_golden(
        self, tmp_path, golden_batch_dict
    ):
        corpus = _corpus()
        session = LiveSession(tmp_path)
        for name, blob in corpus:
            if name != "hadoop-resourcemanager.log":
                (tmp_path / name).write_bytes(blob)
        rm = dict(corpus)["hadoop-resourcemanager.log"]
        lines = rm.splitlines(keepends=True)
        half = b"".join(lines[: len(lines) // 2])
        self._write_with_rotation(
            tmp_path,
            session,
            "hadoop-resourcemanager.log",
            rm,
            [len(half)],
        )
        # Line-aligned rotation: segment concatenation reproduces the
        # original stream exactly, so the *golden* snapshot applies —
        # modulo the ledger, which now counts two segments.
        live = _drained_dict(session)
        batch = _batch_dict(tmp_path)
        assert live == batch
        assert live["applications"] == golden_batch_dict["applications"]


class TestCheckpointResume:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_resumed_session_matches_batch(self, data, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("resume")
        checkpoint = tmp_path / "state.json"
        logdir = tmp_path / "logs"
        logdir.mkdir()
        corpus = _corpus()
        session = LiveSession(logdir, checkpoint_path=checkpoint)
        # First half of every file, cut at an arbitrary offset.
        splits = {}
        for name, blob in corpus:
            split = data.draw(
                st.integers(min_value=0, max_value=len(blob)),
                label=f"split:{name}",
            )
            splits[name] = split
            (logdir / name).write_bytes(blob[:split])
        session.poll()  # also persists the checkpoint
        del session
        # A new process picks up the checkpoint and the files finish.
        resumed = LiveSession.from_checkpoint(checkpoint)
        for name, blob in corpus:
            with (logdir / name).open("ab") as handle:
                handle.write(blob[splits[name] :])
        resumed.poll()
        assert _drained_dict(resumed) == _batch_dict(logdir)

    def test_checkpoint_is_json_and_versioned(self, tmp_path):
        checkpoint = tmp_path / "state.json"
        logdir = tmp_path / "logs"
        logdir.mkdir()
        (logdir / "rm.log").write_bytes(b"2018-01-12 00:00:00,000 INFO A: x\n")
        session = LiveSession(logdir, checkpoint_path=checkpoint)
        session.poll()
        state = json.loads(checkpoint.read_text())
        assert state["version"] == 1
        assert "tailer" in state and "miner" in state

    def test_unsupported_version_is_rejected(self, tmp_path):
        bad = tmp_path / "state.json"
        bad.write_text(json.dumps({"version": 99}))
        with pytest.raises(ValueError, match="version"):
            LiveSession.from_checkpoint(bad)

    def test_resume_preserves_finality(self, tmp_path, golden_batch_dict):
        checkpoint = tmp_path / "state.json"
        logdir = tmp_path / "logs"
        logdir.mkdir()
        for name, data in _corpus():
            (logdir / name).write_bytes(data)
        session = LiveSession(logdir, checkpoint_path=checkpoint)
        session.poll()
        final_before = {
            app["app_id"]
            for app in session.apps_payload()
            if app["status"] == "final"
        }
        assert final_before  # the golden run finishes its app
        resumed = LiveSession.from_checkpoint(checkpoint)
        assert {
            app["app_id"]
            for app in resumed.apps_payload()
            if app["status"] == "final"
        } == final_before
        assert _drained_dict(resumed) == golden_batch_dict


class TestShardMergeIdentity:
    """The sharded extension of the contract: drained shards' merged
    state rebuilds a report byte-identical to batch over the union of
    their directories, for any assignment of files to shards."""

    def _merged_dict(self, tmp_path, assignment):
        """Drain one session per shard directory; merge; rebuild."""
        from repro.live import merge_state_payloads, report_from_state_payload

        shard_count = max(assignment.values()) + 1
        shard_dirs = []
        for index in range(shard_count):
            shard_dir = tmp_path / f"shard{index}"
            shard_dir.mkdir()
            shard_dirs.append(shard_dir)
        for name, blob in _corpus():
            (shard_dirs[assignment[name]] / name).write_bytes(blob)
        payloads = []
        for shard_dir in shard_dirs:
            session = LiveSession(shard_dir)
            session.poll()
            session.drain()
            payloads.append(session.state_payload())
        merged = merge_state_payloads(payloads)
        report = report_from_state_payload(merged)
        return report.to_dict(include_diagnostics=True)

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_round_robin_assignment_matches_batch(
        self, shards, tmp_path, golden_batch_dict
    ):
        assignment = {
            name: index % shards
            for index, (name, _blob) in enumerate(_corpus())
        }
        assert self._merged_dict(tmp_path, assignment) == golden_batch_dict

    def test_adversarial_split_containers_away_from_rm(
        self, tmp_path, golden_batch_dict
    ):
        # The worst cut: every container stream on one shard, the RM/NM
        # streams that carry the same app's allocation events on the
        # other — the per-app analysis must stitch across the merge.
        assignment = {
            name: 0 if name.startswith("container_") else 1
            for name, _blob in _corpus()
        }
        assert self._merged_dict(tmp_path, assignment) == golden_batch_dict

    def test_empty_shard_contributes_nothing(
        self, tmp_path, golden_batch_dict
    ):
        assignment = {name: 0 for name, _blob in _corpus()}
        # Shard 1 exists but tails an empty directory.
        assignment[sorted(assignment)[0]] = 0
        (tmp_path / "shard1").mkdir()
        from repro.live import merge_state_payloads, report_from_state_payload

        shard0 = tmp_path / "shard0"
        shard0.mkdir()
        for name, blob in _corpus():
            (shard0 / name).write_bytes(blob)
        payloads = []
        for shard_dir in (shard0, tmp_path / "shard1"):
            session = LiveSession(shard_dir)
            session.drain()
            payloads.append(session.state_payload())
        merged = merge_state_payloads(payloads)
        report = report_from_state_payload(merged)
        assert report.to_dict(include_diagnostics=True) == golden_batch_dict

    def test_daemon_collision_across_shards_is_loud(self, tmp_path):
        from repro.live import merge_state_payloads

        payloads = []
        for index in range(2):
            shard_dir = tmp_path / f"shard{index}"
            shard_dir.mkdir()
            (shard_dir / "hadoop-resourcemanager.log").write_bytes(
                b"2018-01-12 00:00:00,000 INFO A: x\n"
            )
            session = LiveSession(shard_dir)
            session.drain()
            payloads.append(session.state_payload())
        with pytest.raises(ValueError, match="disjoint"):
            merge_state_payloads(payloads)

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_any_assignment_matches_batch(
        self, data, tmp_path_factory, golden_batch_dict
    ):
        tmp_path = tmp_path_factory.mktemp("shardmerge")
        names = [name for name, _blob in _corpus()]
        raw = {
            name: data.draw(
                st.integers(min_value=0, max_value=3), label=f"shard:{name}"
            )
            for name in names
        }
        # Compact shard indices so every shard directory is non-empty.
        used = sorted(set(raw.values()))
        remap = {shard: index for index, shard in enumerate(used)}
        assignment = {name: remap[raw[name]] for name in names}
        assert self._merged_dict(tmp_path, assignment) == golden_batch_dict


class TestProvisionalStatus:
    def test_app_is_provisional_until_terminal_transition(self, tmp_path):
        rm_blob = (GOLDEN / "hadoop-resourcemanager.log").read_bytes()
        lines = rm_blob.splitlines(keepends=True)
        finished_at = next(
            i for i, line in enumerate(lines) if b"to FINISHED" in line
        )
        target = tmp_path / "hadoop-resourcemanager.log"
        target.write_bytes(b"".join(lines[:finished_at]))
        session = LiveSession(tmp_path)
        session.poll()
        (app,) = session.apps_payload()
        assert app["status"] == "provisional"
        with target.open("ab") as handle:
            handle.write(b"".join(lines[finished_at:]))
        session.poll()
        (app,) = session.apps_payload()
        assert app["status"] == "final"


class TestAnswerCache:
    """``apps`` and ``decomposition`` answers are built once per revision.

    The session grows from one provisional app to three, then the first
    one finishes; after every poll the cached answers must equal the
    uncached builders over ``report()``, and however many queries run
    between two polls, the whole report is exported at most once.
    """

    UNKNOWN = "application_1515715200000_9999"

    @staticmethod
    def _app_streams(number):
        """Golden's streams with app ``_0001`` renumbered: name -> lines."""
        tag = f"_{number:04d}"
        return {
            name.replace("_0001_", f"{tag}_"): data.replace(
                b"_0001", tag.encode()
            ).splitlines(keepends=True)
            for name, data in _corpus()
        }

    @staticmethod
    def _append(directory, streams):
        for name, lines in streams.items():
            with (directory / name).open("ab") as handle:
                handle.write(b"".join(lines))

    def _queried(self, session, calls):
        """Query every app three times; (rows, entries, to_dict calls)."""
        before = len(calls)
        for _ in range(3):
            rows = session.apps_payload()
            entries = {
                row["app_id"]: session.decomposition_payload(row["app_id"])
                for row in rows
            }
            assert session.decomposition_payload(self.UNKNOWN) is None
        return rows, entries, len(calls) - before

    def test_answers_match_the_builders_and_export_once_per_revision(
        self, tmp_path, monkeypatch
    ):
        from repro.core.report import AnalysisReport
        from repro.live.incremental import app_rows, decomposition_entries

        calls = []
        original = AnalysisReport.to_dict

        def spy(report, *args, **kwargs):
            calls.append(report)
            return original(report, *args, **kwargs)

        monkeypatch.setattr(AnalysisReport, "to_dict", spy)

        rm = "hadoop-resourcemanager.log"
        apps = {number: self._app_streams(number) for number in (1, 2, 3)}
        terminal = {number: streams[rm][-1:] for number, streams in apps.items()}
        for streams in apps.values():
            assert b"to FINISHED" in streams[rm][-1]
            streams[rm] = streams[rm][:-1]

        session = LiveSession(tmp_path)
        schedule = [
            # app 1 without its terminal transition
            lambda: self._append(tmp_path, apps[1]),
            # apps 2 and 3 arrive, also unfinished
            lambda: (self._append(tmp_path, apps[2]),
                     self._append(tmp_path, apps[3])),
            # app 1 finishes
            lambda: self._append(tmp_path, {rm: terminal[1]}),
            # nothing new: the same revision answers again
            lambda: None,
        ]
        statuses = []
        last_revision = None
        for grow in schedule:
            grow()
            session.poll()
            rows, entries, exports = self._queried(session, calls)
            assert exports == (0 if session.revision == last_revision else 1)
            last_revision = session.revision

            report = session.report()
            final = {
                app.app_id
                for app in report.apps
                if session.app_status(app.app_id) == "final"
            }
            assert json.dumps(rows) == json.dumps(app_rows(report, final))
            assert json.dumps(entries) == json.dumps(
                decomposition_entries(report, final)
            )
            statuses.append([(row["app_id"][-4:], row["status"]) for row in rows])

        provisional = [("0001", "provisional"), ("0002", "provisional"),
                       ("0003", "provisional")]
        finished = [("0001", "final")] + provisional[1:]
        assert statuses == [provisional[:1], provisional, finished, finished]
