"""Unit tests for the rotation-aware directory tailer."""

from __future__ import annotations

import os

import pytest

from repro.live.tailer import DirectoryTailer, SegmentCursor, StreamTailer, TailChunk


def _listing_of(directory):
    """A DirectoryTailer poll listing for assertions on one stream."""
    return DirectoryTailer(directory)._listing()


class TestLineOwnership:
    """The live file only ever surrenders complete lines."""

    def test_partial_tail_is_held_back(self, tmp_path):
        log = tmp_path / "rm.log"
        log.write_bytes(b"line one\nline tw")
        tailer = DirectoryTailer(tmp_path)
        (chunk,) = tailer.poll()
        assert chunk.daemon == "rm"
        assert chunk.data == b"line one\n"

    def test_completed_tail_arrives_next_poll(self, tmp_path):
        log = tmp_path / "rm.log"
        log.write_bytes(b"line one\nline tw")
        tailer = DirectoryTailer(tmp_path)
        tailer.poll()
        with log.open("ab") as handle:
            handle.write(b"o done\nline three\n")
        (chunk,) = tailer.poll()
        assert chunk.data == b"line two done\nline three\n"

    def test_drain_flushes_the_unterminated_tail(self, tmp_path):
        (tmp_path / "rm.log").write_bytes(b"done\nno newline yet")
        tailer = DirectoryTailer(tmp_path)
        tailer.poll()
        (chunk,) = tailer.drain()
        # EOF ends the line, exactly like the batch reader.
        assert chunk.data == b"no newline yet\n"
        assert tailer.drained

    def test_quiet_polls_emit_empty_chunks(self, tmp_path):
        (tmp_path / "rm.log").write_bytes(b"a\n")
        tailer = DirectoryTailer(tmp_path)
        tailer.poll()
        (chunk,) = tailer.poll()
        assert chunk.data == b""

    def test_lag_counts_held_back_bytes(self, tmp_path):
        (tmp_path / "rm.log").write_bytes(b"a\npartial")
        tailer = DirectoryTailer(tmp_path)
        tailer.poll()
        assert tailer.tail_lag_bytes == len(b"partial")

    def test_no_newline_yet_gives_an_empty_chunk(self, tmp_path):
        (tmp_path / "rm.log").write_bytes(b"still typing")
        tailer = DirectoryTailer(tmp_path)
        (chunk,) = tailer.poll()
        assert chunk.data == b""
        assert tailer.tail_lag_bytes == len(b"still typing")


def _advance(path, offset=0):
    """One ``_advance_live`` read of ``path`` from a bare cursor."""
    cursor = SegmentCursor(inode=os.stat(path).st_ino, name=str(path), offset=offset)
    return StreamTailer("d")._advance_live(cursor, str(path), path.stat().st_size), cursor


class TestAdvanceLive:
    """The live read alone: complete lines out, the cursor just past them."""

    def test_complete_lines_are_returned(self, tmp_path):
        path = tmp_path / "d.log"
        path.write_bytes(b"one\ntwo\n")
        buf, cursor = _advance(path)
        assert buf == b"one\ntwo\n" and cursor.offset == 8

    def test_partial_tail_is_held_back(self, tmp_path):
        path = tmp_path / "d.log"
        path.write_bytes(b"one\ntwo\npart")
        tailer = StreamTailer("d")
        cursor = SegmentCursor(inode=os.stat(path).st_ino, name=str(path))
        buf = tailer._advance_live(cursor, str(path), 12)
        assert buf == b"one\ntwo\n" and cursor.offset == 8
        # The writer finishes the line; the next read picks it up whole.
        with path.open("ab") as handle:
            handle.write(b"ial line\n")
        buf = tailer._advance_live(cursor, str(path), 21)
        assert buf == b"partial line\n" and cursor.offset == 21
        assert tailer.resyncs == 0

    def test_offset_resumes_mid_file(self, tmp_path):
        path = tmp_path / "d.log"
        path.write_bytes(b"a\nb\nc\n")
        buf, cursor = _advance(path, offset=2)
        assert buf == b"b\nc\n" and cursor.offset == 6


class TestRotation:
    """log4j-style rename rotation: segments picked up oldest-first."""

    def test_existing_segments_read_oldest_first(self, tmp_path):
        (tmp_path / "rm.log.2").write_bytes(b"oldest\n")
        (tmp_path / "rm.log.1").write_bytes(b"middle\n")
        (tmp_path / "rm.log").write_bytes(b"live\n")
        tailer = DirectoryTailer(tmp_path)
        (chunk,) = tailer.poll()
        assert chunk.data == b"oldest\nmiddle\nlive\n"
        assert chunk.segments == 3

    def test_rename_rotation_between_polls(self, tmp_path):
        live = tmp_path / "rm.log"
        live.write_bytes(b"first\n")
        tailer = DirectoryTailer(tmp_path)
        (chunk,) = tailer.poll()
        assert chunk.data == b"first\n"
        # The appender rotates: live becomes .1, a fresh live appears.
        os.rename(live, tmp_path / "rm.log.1")
        with (tmp_path / "rm.log.1").open("ab") as handle:
            handle.write(b"flushed at rotation\n")
        live.write_bytes(b"second\n")
        (chunk,) = tailer.poll()
        # The cursor followed the inode: no re-read of "first", the
        # rotated remainder precedes the new live file's bytes.
        assert chunk.data == b"flushed at rotation\nsecond\n"
        assert tailer.rotations == 1
        assert chunk.segments == 2

    def test_rotated_unterminated_tail_is_newline_normalized(self, tmp_path):
        live = tmp_path / "rm.log"
        live.write_bytes(b"complete\nhalf a lin")
        tailer = DirectoryTailer(tmp_path)
        tailer.poll()
        os.rename(live, tmp_path / "rm.log.1")
        live.write_bytes(b"fresh\n")
        (chunk,) = tailer.poll()
        # Without normalization this would glue "half a lin" + "fresh".
        assert chunk.data == b"half a lin\nfresh\n"

    def test_multiple_rotations_in_one_gap(self, tmp_path):
        live = tmp_path / "rm.log"
        live.write_bytes(b"a\n")
        tailer = DirectoryTailer(tmp_path)
        tailer.poll()
        # Two rotations happen before the next poll.
        os.rename(live, tmp_path / "rm.log.1")
        live.write_bytes(b"b\n")
        os.rename(tmp_path / "rm.log.1", tmp_path / "rm.log.2")
        os.rename(live, tmp_path / "rm.log.1")
        live.write_bytes(b"c\n")
        (chunk,) = tailer.poll()
        assert chunk.data == b"b\nc\n"
        assert chunk.segments == 3

    def test_vanished_file_is_finalized(self, tmp_path):
        live = tmp_path / "rm.log"
        live.write_bytes(b"a\n")
        tailer = DirectoryTailer(tmp_path)
        tailer.poll()
        live.unlink()
        (chunk,) = tailer.poll()
        assert chunk.data == b""


class TestTruncation:
    def test_shrunk_live_file_resyncs_from_zero(self, tmp_path):
        live = tmp_path / "rm.log"
        live.write_bytes(b"a long first incarnation of the log\n")
        tailer = DirectoryTailer(tmp_path)
        tailer.poll()
        live.write_bytes(b"restarted\n")  # same name, smaller size
        (chunk,) = tailer.poll()
        assert chunk.data == b"restarted\n"
        assert tailer.resyncs == 1


class TestSameInodeRecreation:
    """Truncate-and-rewrite on the same inode must resync even when the
    new content is not smaller than the consumed offset — the head
    fingerprint, not the size, is what detects the new incarnation."""

    def test_same_size_overwrite_resyncs_from_zero(self, tmp_path):
        live = tmp_path / "rm.log"
        first = b"first incarnation, line A\n"
        live.write_bytes(first)
        tailer = DirectoryTailer(tmp_path)
        tailer.poll()
        # Same path, same inode (open("wb") truncates in place), and —
        # the killer case for the size heuristic — the same byte count.
        second = b"second incarnation line A\n"
        assert len(second) == len(first)
        live.write_bytes(second)
        (chunk,) = tailer.poll()
        assert chunk.data == second
        assert tailer.resyncs == 1

    def test_recreation_growing_past_old_offset_resyncs(self, tmp_path):
        live = tmp_path / "rm.log"
        live.write_bytes(b"short old content\n")
        tailer = DirectoryTailer(tmp_path)
        tailer.poll()
        replacement = b"entirely new content that is longer\nsecond line\n"
        live.write_bytes(replacement)
        (chunk,) = tailer.poll()
        # The pre-fingerprint tailer would emit from the stale offset:
        # mid-line garbage.  Resync re-reads the incarnation whole.
        assert chunk.data == replacement
        assert tailer.resyncs == 1

    def test_plain_append_does_not_false_positive(self, tmp_path):
        live = tmp_path / "rm.log"
        live.write_bytes(b"stable head line\n")
        tailer = DirectoryTailer(tmp_path)
        tailer.poll()
        with live.open("ab") as handle:
            handle.write(b"appended line\n")
        (chunk,) = tailer.poll()
        assert chunk.data == b"appended line\n"
        assert tailer.resyncs == 0

    def test_fingerprint_survives_checkpoint_round_trip(self, tmp_path):
        live = tmp_path / "rm.log"
        first = b"first incarnation, line A\n"
        live.write_bytes(first)
        tailer = DirectoryTailer(tmp_path)
        tailer.poll()
        state = tailer.to_state()
        second = b"second incarnation line A\n"
        assert len(second) == len(first)
        live.write_bytes(second)
        resumed = DirectoryTailer.from_state(state)
        (chunk,) = resumed.poll()
        assert chunk.data == second
        assert resumed.resyncs == 1

    def test_drain_detects_recreation_too(self, tmp_path):
        live = tmp_path / "rm.log"
        first = b"first incarnation, line A\n"
        live.write_bytes(first)
        tailer = DirectoryTailer(tmp_path)
        tailer.poll()
        second = b"second incarnation line A\n"
        live.write_bytes(second)
        (chunk,) = tailer.drain()
        assert chunk.data == second
        assert tailer.resyncs == 1


class TestDirectoryScanning:
    def test_non_log_files_are_ignored(self, tmp_path):
        (tmp_path / "rm.log").write_bytes(b"a\n")
        (tmp_path / "notes.txt").write_bytes(b"not a log\n")
        (tmp_path / "rm.log.bak").write_bytes(b"not a segment\n")
        tailer = DirectoryTailer(tmp_path)
        chunks = tailer.poll()
        assert [c.daemon for c in chunks] == ["rm"]

    def test_streams_visit_in_sorted_daemon_order(self, tmp_path):
        for name in ("zeta.log", "alpha.log", "mid.log"):
            (tmp_path / name).write_bytes(b"x\n")
        tailer = DirectoryTailer(tmp_path)
        assert [c.daemon for c in tailer.poll()] == ["alpha", "mid", "zeta"]

    def test_missing_directory_yields_nothing(self, tmp_path):
        tailer = DirectoryTailer(tmp_path / "never-created")
        assert tailer.poll() == []

    def test_stream_appearing_later_is_picked_up(self, tmp_path):
        (tmp_path / "a.log").write_bytes(b"a\n")
        tailer = DirectoryTailer(tmp_path)
        tailer.poll()
        (tmp_path / "b.log").write_bytes(b"b\n")
        chunks = tailer.poll()
        assert [(c.daemon, c.data) for c in chunks] == [
            ("a", b""),
            ("b", b"b\n"),
        ]


class TestCheckpointState:
    def test_round_trip_resumes_at_the_cursor(self, tmp_path):
        live = tmp_path / "rm.log"
        live.write_bytes(b"before checkpoint\n")
        tailer = DirectoryTailer(tmp_path)
        tailer.poll()
        state = tailer.to_state()
        with live.open("ab") as handle:
            handle.write(b"after checkpoint\n")
        resumed = DirectoryTailer.from_state(state)
        (chunk,) = resumed.poll()
        assert chunk.data == b"after checkpoint\n"

    def test_state_is_json_serializable(self, tmp_path):
        import json

        (tmp_path / "rm.log.1").write_bytes(b"x\n")
        (tmp_path / "rm.log").write_bytes(b"y\n")
        tailer = DirectoryTailer(tmp_path)
        tailer.poll()
        clone = DirectoryTailer.from_state(json.loads(json.dumps(tailer.to_state())))
        assert clone.streams["rm"].to_state() == tailer.streams["rm"].to_state()

    def test_directory_override_rehomes_the_session(self, tmp_path):
        origin = tmp_path / "origin"
        origin.mkdir()
        (origin / "rm.log").write_bytes(b"a\n")
        tailer = DirectoryTailer(origin)
        tailer.poll()
        moved = DirectoryTailer.from_state(
            tailer.to_state(), directory=tmp_path / "elsewhere"
        )
        assert moved.directory == tmp_path / "elsewhere"
