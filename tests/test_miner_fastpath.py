"""Byte-oriented fast-path tests: chunk partitioning, the bulk chunk
classifier, and byte-identity against the regex reader.

The contract under test is exactness: for any directory corpus —
including garbled bytes, drifted timestamps, duplicates, rotation
segments, and adversarial chunk boundaries — mining the directory must
produce the same events *and the same diagnostics ledger* as mining
``LogStore.load`` of it (every line through
``LogRecord.classify_parse``), serially and at any job count, for any
chunk size.  The byte lane itself hands only unclean lines (non-ASCII,
garbled, another month) to that reference reader.
"""

from __future__ import annotations

import json
import pickle
import shutil
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.parser as parser_mod
from repro.core.events import EventKind, SchedulingEvent
from repro.core.parser import (
    AUTO_JOBS,
    AUTO_SERIAL_THRESHOLD_LINES,
    LogMiner,
    StreamEventAccumulator,
    _gate_kind,
    _ledger,
    _line_kinds,
    _record_event,
    _scan_chunk,
    _scan_records,
    resolve_jobs,
)
from repro.logsys.diagnostics import StreamDiagnostics
from repro.logsys.record import (
    LogRecord,
    clean_fields,
    clean_timestamps,
    parse_timestamp,
)
from repro.logsys.store import LogStore, iter_file_lines, partition_file, read_chunk

RM = "hadoop-resourcemanager"
NM = "hadoop-nodemanager-node01"
EXEC = "container_1515715200000_0001_01_000002"
APP = "application_1515715200000_0001"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


@contextmanager
def tiny_chunks(target=48):
    """Mine with every file split into ~``target``-byte chunks.

    At 48 bytes a handful of log lines already exercises lines
    straddling partition points, chunks with no parsed record, and
    multi-chunk merges.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parser_mod, "FAST_SPLIT_THRESHOLD", 64)
        patch.setattr(parser_mod, "FAST_CHUNK_TARGET", target)
        yield


#: Line shapes the chunk classifier must read exactly as the reference
#: reader does: events and chatter, near misses, odd heads and endings,
#: non-ASCII and invalid bytes, drifted and aliased timestamps.
LINE_SHAPES = (
    b"2018-01-12 00:00:01,000 INFO x.RMAppImpl: application_1_1000 State change from NEW to SUBMITTED on event = START",
    b"2018-01-12 00:00:01,000 INFO x.RMContainerImpl: container_1_1000_01_000002 Container Transitioned from NEW to ALLOCATED",
    b"2018-01-12 00:00:01,000 INFO x.ContainerImpl: Container container_1_1000_01_000002 transitioned from NEW to LOCALIZING",
    b"2018-01-12 00:00:02,000 INFO x.Exec: Registered ApplicationMaster for application_1_1000",
    b"2018-01-12 00:00:02,000 INFO x.Exec: SDCHECKER START_ALLO Will request 4 executor container(s) for application_1_1000",
    b"2018-01-12 00:00:02,000 INFO x.Exec: Got assigned task 3",
    b"2018-01-12 00:00:02,000 INFO x.Exec: Got assigned task 3",  # dup fodder
    b"2018-01-12 00:00:02,000 INFO x.Exec: Got assigned task slot on host node02",
    b"2018-01-12 00:00:02,000 INFO x.Exec: Got assigned task 4\r",  # \r\n: no match
    b"2018-01-12 00:00:02,000 INFO x.Exec: Task attempt_1_1000_m_000001_0 is done",
    b"2018-01-12 00:00:01,500 INFO x.Exec: chatter",
    b"2018-01-12 00:00:01,500 INFO  x.Exec: chatter",  # the same record again
    b"2018-01-12 00:00:01,500 INFO   x.Exec: chatter",
    b"2018-01-12 00:00:01,500 INFO x.Exec: crlf ending\r",
    b"2018-01-12 00:00:01,500 INFO x.Exec: ",  # empty message
    b"2018-01-12 00:00:01,500 VERYLOUDX x.Exec: nine-letter level",
    b"2018-01-12 00:00:01,500 INFO\tx.Exec: tab in the head",
    b"2018-01-12 00:00:01,500 INFO x:Exec: colon in the class",
    b"2018-01-12 00:00:03,000 INFO x.Cls: caf\xc3\xa9 \xc3\xbcn\xc3\xafcode",
    b"2018-01-12 00:00:03,000 INFO x.Cls: bad \xff bytes",
    b"2018-01-12 00:00:03,000 INFO x.Cl\xc3\xa9: unicode class",
    b"2018-01-12 00:00:0\xd9\xa3,000 INFO x.Cls: unicode digit",
    b"2018-02-01 00:00:00,000 INFO x.Cls: drifted",
    b"2018-01-12 25:00:00,000 INFO x.Cls: hour alias",
    b"2018-01-13 01:00:00,000 INFO x.Cls: hour alias",  # the same instant
    b"2018-01-12 00:00:60,000 INFO x.Cls: second alias",
    b"stack trace noise",
    b"",
)


#: Per stream, ``(class, message)`` shapes that mostly yield events:
#: a corpus of them is candidate-heavy, like the simulator's own logs.
CANDIDATES = {
    RM: (
        ("x.RMAppImpl", f"{APP} State change from NEW to SUBMITTED on event = START"),
        ("x.RMAppImpl", f"{APP} State change from SUBMITTED to ACCEPTED on event = APP_ACCEPTED"),
        ("x.RMContainerImpl", f"{EXEC} Container Transitioned from NEW to ALLOCATED"),
        ("x.RMContainerImpl", f"{EXEC} Container Transitioned from ALLOCATED to ACQUIRED"),
        ("x.Other", "chatter"),
    ),
    NM: (
        ("x.ContainerImpl", f"Container {EXEC} transitioned from NEW to LOCALIZING"),
        ("x.ContainerImpl", f"Container {EXEC} transitioned from LOCALIZING to SCHEDULED"),
        ("x.ContainerImpl", f"Container {EXEC} transitioned from SCHEDULED to RUNNING"),
        ("x.Other", "chatter"),
    ),
    EXEC: (
        ("x.Exec", "Got assigned task {task}"),
        ("x.Exec", "Got assigned task {task}"),
        ("x.Exec", "Task attempt_1515715200000_0001_m_00000{task}_0 is done"),
        ("x.Exec", f"Registered ApplicationMaster for {APP}"),
        ("x.Exec", f"SDCHECKER START_ALLO Will request 4 executor container(s) for {APP}"),
        ("x.Exec", "Got assigned task slot on host node02"),
        ("x.Exec", "chatter"),
    ),
}


@st.composite
def candidate_lines(draw, daemon):
    """One stream's candidate-heavy lines: runs of equal milliseconds,
    steps back in time, and exact duplicates of the previous line."""
    shapes = CANDIDATES[daemon]
    lines = []
    millis = 30_000
    for pick, task, step, repeat in draw(
        st.lists(
            st.tuples(
                st.integers(0, len(shapes) - 1),
                st.integers(0, 9),
                st.sampled_from((0, 0, 1, 7, -1)),
                st.booleans(),
            ),
            max_size=30,
        )
    ):
        millis += step
        cls, message = shapes[pick]
        line = (
            f"2018-01-12 00:00:{millis // 1000:02d},{millis % 1000:03d} INFO "
            f"{cls}: {message.format(task=task)}"
        )
        lines.extend([line, line] if repeat else [line])
    return lines


@pytest.fixture(scope="module")
def miner():
    """One miner for a module's examples, so its pool is started once."""
    miner = LogMiner()
    yield miner
    miner.close()


def _diag_dict(diagnostics):
    return json.dumps(
        {d: s.to_dict() for d, s in diagnostics.streams.items()}, sort_keys=True
    )


def _reference(directory):
    """Mining the regex reader's store of ``directory``: the reference."""
    return LogMiner().mine(LogStore.load(directory))


def _assert_identical(directory):
    """Byte lane == reference, at jobs 1 and 4, whole-file and tiny chunks."""
    reference_events, reference_diag = _reference(directory)
    miner = LogMiner()
    for chunks in (nullcontext, tiny_chunks):
        for jobs in (1, 4):
            with chunks():
                events, diag = miner.mine(directory, jobs=jobs)
            assert events == reference_events, f"events differ (jobs={jobs})"
            assert _diag_dict(diag) == _diag_dict(reference_diag), (
                f"diag differ (jobs={jobs})"
            )
    miner.close()
    return reference_events


def _byte_lines(buf):
    """The ``\\n``-terminated lines of ``buf``, an unterminated tail included."""
    lines = buf.split(b"\n")
    if lines[-1] == b"":
        lines.pop()  # terminator of the final line, not an empty line
    return lines


def _write(tmp_path, name, lines, newline=True):
    body = "\n".join(lines) + ("\n" if newline and lines else "")
    (tmp_path / name).write_text(body, encoding="utf-8")


class TestChunkReader:
    """partition_file + read_chunk reconstruct every file exactly."""

    def test_small_file_is_one_chunk(self, tmp_path):
        path = tmp_path / "d.log"
        path.write_bytes(b"a\nb\n")
        assert partition_file(path) == [(0, 4)]

    def test_partition_covers_file_contiguously(self, tmp_path):
        path = tmp_path / "d.log"
        path.write_bytes(b"x" * 1000)
        ranges = partition_file(path, threshold=100, target=64)
        assert ranges[0][0] == 0 and ranges[-1][1] == 1000
        for (_, a_end), (b_start, _) in zip(ranges, ranges[1:]):
            assert a_end == b_start

    def test_chunks_reassemble_lines_exactly_once(self, tmp_path):
        lines = [f"2018-01-12 00:00:{i:02d},000 INFO C: line {i}" for i in range(40)]
        lines.insert(7, "noise without timestamp")
        lines.insert(20, "")  # empty line
        path = tmp_path / "d.log"
        _write(tmp_path, "d.log", lines)
        for target in (16, 48, 130, 4096):
            ranges = partition_file(path, threshold=1, target=target)
            buf = b"".join(read_chunk(path, s, e) for s, e in ranges)
            assert buf == path.read_bytes()
            # Every line is owned by exactly one range.
            owned = [
                ln
                for s, e in ranges
                for ln in read_chunk(path, s, e).split(b"\n")[:-1]
            ]
            assert owned == [ln.encode() for ln in lines]

    def test_unterminated_tail_line_is_kept(self, tmp_path):
        path = tmp_path / "d.log"
        path.write_bytes(b"first line\nsecond without newline")
        ranges = partition_file(path, threshold=4, target=8)
        buf = b"".join(read_chunk(path, s, e) for s, e in ranges)
        assert buf == path.read_bytes()

    def test_byte_lines_match_text_reader(self, tmp_path):
        path = tmp_path / "d.log"
        path.write_bytes(b"a\nbb\n\nccc\nd")
        text_lines = list(iter_file_lines(path))
        buf = read_chunk(path, 0, path.stat().st_size)
        assert [b.decode() for b in _byte_lines(buf)] == text_lines

    @settings(max_examples=120, deadline=None)
    @given(
        lines=st.lists(
            st.binary(max_size=12).filter(lambda b: b"\n" not in b), max_size=12
        ),
        terminated=st.booleans(),
        threshold=st.integers(0, 160),
        target=st.integers(1, 64),
    )
    def test_any_partition_owns_every_line_once(
        self, tmp_path_factory, lines, terminated, threshold, target
    ):
        path = tmp_path_factory.mktemp("own") / "d.log"
        body = b"\n".join(lines) + (b"\n" if terminated and lines else b"")
        path.write_bytes(body)
        chunks = [
            read_chunk(path, s, e)
            for s, e in partition_file(path, threshold=threshold, target=target)
        ]
        assert b"".join(chunks) == body
        # Each chunk holds whole lines only, so splitting chunk by chunk
        # gives every line of the file exactly once, in order.
        owned = [line for chunk in chunks for line in _byte_lines(chunk)]
        assert owned == _byte_lines(body)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.log"
        path.write_bytes(b"")
        assert partition_file(path) == [(0, 0)]
        assert read_chunk(path, 0, 0) == b""
        assert read_chunk(path, 0, 10) == b""

    def test_no_trailing_newline(self, tmp_path):
        """A range owns the unterminated last line iff it holds its first byte."""
        path = tmp_path / "d.log"
        path.write_bytes(b"alpha\nbeta")
        owned = {
            (0, 4): b"alpha\n",
            (0, 10): b"alpha\nbeta",
            (3, 6): b"",
            (3, 10): b"beta",
            (6, 10): b"beta",
        }
        for (start, end), expected in owned.items():
            assert read_chunk(path, start, end) == expected

    def test_partition_points_reconstruct_file(self, tmp_path):
        """Every chunk of a partition whose boundaries all land mid-line."""
        path = tmp_path / "d.log"
        # Lines of 37 bytes: no boundary of the 48-byte target ever
        # lands on a line start, so every chunk after the first
        # exercises the lookbehind and the read-to-newline extension.
        lines = [b"%036d" % i for i in range(40)]
        path.write_bytes(b"".join(line + b"\n" for line in lines))
        ranges = partition_file(path, threshold=64, target=48)
        assert len(ranges) > 1
        assert all(start % 37 for start, _ in ranges[1:])
        chunks = [read_chunk(path, s, e) for s, e in ranges]
        assert all(chunk.endswith(b"\n") for chunk in chunks if chunk)
        assert b"".join(chunks) == path.read_bytes()
        assert [line for chunk in chunks for line in _byte_lines(chunk)] == lines

    def test_default_threshold_straddle(self, tmp_path):
        """A ~9.4 MiB file: every default 4 MiB boundary lands mid-line."""
        path = tmp_path / "d.log"
        line = b"x" * 4093 + b"\n"  # 4094 B: coprime-ish with the target
        with open(path, "wb") as handle:
            for _ in range(2400):  # over FAST_SPLIT_THRESHOLD
                handle.write(line)
        chunks = partition_file(path)
        assert len(chunks) >= 2
        owned = [read_chunk(path, s, e) for s, e in chunks]
        assert all(chunk.endswith(b"\n") for chunk in owned)
        assert b"".join(owned) == path.read_bytes()


class TestFastPathIdentity:
    def test_clean_multi_stream_corpus(self, tmp_path):
        app = "application_1515715200000_0001"
        _write(
            tmp_path,
            f"{RM}.log",
            [
                f"2018-01-12 00:00:01,000 INFO x.RMAppImpl: {app} State change from NEW to SUBMITTED on event = START",
                f"2018-01-12 00:00:02,000 INFO x.RMContainerImpl: {EXEC} Container Transitioned from NEW to ALLOCATED",
                "2018-01-12 00:00:02,500 INFO x.Other: chatter line",
            ],
        )
        _write(
            tmp_path,
            f"{NM}.log",
            [
                f"2018-01-12 00:00:03,000 INFO x.ContainerImpl: Container {EXEC} transitioned from NEW to LOCALIZING",
            ],
        )
        _write(
            tmp_path,
            f"{EXEC}.log",
            [
                "2018-01-12 00:00:04,000 INFO org.apache.spark.executor.CoarseGrainedExecutorBackend: Started daemon",
                "2018-01-12 00:00:05,000 INFO org.apache.spark.executor.Executor: Got assigned task 1",
                "2018-01-12 00:00:06,000 INFO org.apache.spark.executor.Executor: Got assigned task 2",
            ],
        )
        events = _assert_identical(tmp_path)
        kinds = [e.kind for e in events]
        assert EventKind.INSTANCE_FIRST_LOG in kinds
        assert kinds.count(EventKind.FIRST_TASK) == 1  # first occurrence only

    def test_line_spanning_partition_point(self, tmp_path):
        # One long line crosses several 48-byte chunk boundaries; the
        # ownership protocol must mine it exactly once.
        long_msg = "Got assigned task 7" + " pad" * 40
        _write(
            tmp_path,
            f"{EXEC}.log",
            [
                f"2018-01-12 00:00:01,000 INFO x.Exec: {long_msg}",
                "2018-01-12 00:00:02,000 INFO x.Exec: Got assigned task 8",
            ],
        )
        _assert_identical(tmp_path)

    def test_rotation_segment_smaller_than_one_chunk(self, tmp_path):
        # Rotated stream: the old segment is far below the split
        # threshold while the live file is split — both orderings of
        # segment size vs chunk size must merge chronologically.
        _write(
            tmp_path,
            f"{EXEC}.log.1",
            ["2018-01-12 00:00:01,000 INFO x.Exec: Got assigned task 1"],
        )
        _write(
            tmp_path,
            f"{EXEC}.log",
            [
                f"2018-01-12 00:00:0{i},000 INFO x.Exec: chatter number {i}"
                for i in range(2, 9)
            ],
        )
        events = _assert_identical(tmp_path)
        first_log = [e for e in events if e.kind is EventKind.INSTANCE_FIRST_LOG]
        assert first_log[0].timestamp == 1.0  # from the rotated segment

    def test_first_log_when_first_chunk_is_all_noise(self, tmp_path):
        # The stream's first *parsed* record sits in a later chunk; the
        # merge must still synthesize FIRST_LOG from it.
        _write(
            tmp_path,
            f"{EXEC}.log",
            [
                "garbled noise line one with no timestamp at all........",
                "garbled noise line two with no timestamp at all........",
                "2018-01-12 00:00:05,000 INFO x.Exec: real first record",
            ],
        )
        events = _assert_identical(tmp_path)
        assert events[0].kind is EventKind.INSTANCE_FIRST_LOG
        assert events[0].timestamp == 5.0

    def test_duplicates_and_reorder_across_boundaries(self, tmp_path):
        line = "2018-01-12 00:00:05,000 INFO x.Exec: repeated message padpad"
        early = "2018-01-12 00:00:01,000 INFO x.Exec: backwards jump padpad"
        _write(tmp_path, f"{EXEC}.log", [line, line, line, early, line, line])
        _, reference_diag = _reference(tmp_path)
        stream = reference_diag.streams[EXEC]
        assert stream.duplicate_records == 3 and stream.out_of_order == 1
        _assert_identical(tmp_path)

    def test_duplicate_straddling_rotation_segments(self, tmp_path):
        line = "2018-01-12 00:00:05,000 INFO x.Exec: spans the rotation"
        _write(tmp_path, f"{EXEC}.log.1", [line])
        _write(tmp_path, f"{EXEC}.log", [line])
        _, diag = LogMiner().mine(tmp_path)
        assert diag.streams[EXEC].duplicate_records == 1
        _assert_identical(tmp_path)

    def test_garbled_drifted_and_invalid_utf8(self, tmp_path):
        (tmp_path / f"{RM}.log").write_bytes(
            b"2018-01-12 00:00:01,000 INFO x.RMAppImpl: application_1_1000 State change from NEW to SUBMITTED on event = START\n"
            b"2018-02-12 00:00:02,000 INFO x.Cls: drifted month\n"
            b"not a log line at all\n"
            b"2018-01-12 00:00:03,000 INFO x.Cls: bad \xff bytes\n"
            b"2018-01-12 25:00:00,000 INFO x.Cls: hour alias of next day 01:00\n"
        )
        _assert_identical(tmp_path)

    def test_empty_and_noise_only_files(self, tmp_path):
        (tmp_path / f"{EXEC}.log").write_bytes(b"")
        _write(tmp_path, f"{RM}.log", ["pure noise", "more noise"])
        _write(tmp_path, "unknown-daemon.log", ["2018-01-12 00:00:01,000 INFO C: x"])
        events = _assert_identical(tmp_path)
        assert events == []
        _, diag = LogMiner().mine(tmp_path)
        assert not diag.streams["unknown-daemon"].recognized
        assert diag.streams[EXEC].lines_total == 0

    @settings(max_examples=60, deadline=None)
    @given(
        picks=st.lists(st.integers(0, len(LINE_SHAPES) - 1), max_size=25),
        daemon=st.sampled_from([RM, NM, EXEC, "weird-daemon"]),
        terminated=st.booleans(),
    )
    def test_metamorphic_identity_on_line_soup(
        self, tmp_path_factory, picks, daemon, terminated
    ):
        tmp_path = tmp_path_factory.mktemp("soup")
        body = b"\n".join(LINE_SHAPES[i] for i in picks)
        if terminated and picks:
            body += b"\n"
        (tmp_path / f"{daemon}.log").write_bytes(body)
        _assert_identical(tmp_path)


    @settings(max_examples=40, deadline=None)
    @given(
        streams=st.fixed_dictionaries({d: candidate_lines(d) for d in CANDIDATES}),
        target=st.sampled_from((48, 160, 512)),
    )
    def test_candidate_heavy_chunks(self, tmp_path_factory, miner, streams, target):
        """Event-dense streams, serially and at ``jobs=2``, whole files and
        chunks: duplicates land inside a chunk and across its boundaries."""
        directory = tmp_path_factory.mktemp("candidates")
        for daemon, lines in streams.items():
            _write(directory, f"{daemon}.log", lines)
        reference_events, reference_diag = _reference(directory)
        for chunks in (nullcontext(), tiny_chunks(target)):
            with chunks:
                for jobs in (1, 2):
                    events, diag = miner.mine(directory, jobs=jobs)
                    assert events == reference_events
                    assert _diag_dict(diag) == _diag_dict(reference_diag)
        first_tasks = [e for e in reference_events if e.kind is EventKind.FIRST_TASK]
        assert len(first_tasks) <= 1


class TestChunkClassifier:
    """The bulk classifier's quiet lines read exactly as the reference's."""

    @staticmethod
    def _reference_ts(line: str) -> float:
        return parse_timestamp(line[:10], line[11:19], line[20:23])

    def test_every_day_and_millisecond_is_bit_identical(self):
        # Every DD and SSS value meets every other; HH, MM and SS run
        # through all their values too.
        lines = [
            f"2018-01-{day:02d} {(7 * millis + day) % 100:02d}:{millis % 100:02d}:"
            f"{(day + millis) % 100:02d},{millis:03d} INFO x.C: m"
            for day in range(100)
            for millis in range(1000)
        ]
        buf = "\n".join(lines).encode("ascii")
        view, starts, _ends, quiet, _clean = _line_kinds(buf, None)
        assert quiet.all()
        stamps = clean_timestamps(view, starts).tolist()
        for line, value in zip(lines, stamps):
            assert float.hex(value) == float.hex(self._reference_ts(line))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 99),
                st.integers(0, 99),
                st.integers(0, 99),
                st.integers(0, 99),
                st.integers(0, 999),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_timestamps_are_bit_identical(self, fields):
        lines = [
            f"2018-01-{d:02d} {h:02d}:{m:02d}:{s:02d},{ms:03d} INFO x.C: m"
            for d, h, m, s, ms in fields
        ]
        buf = "\n".join(lines).encode("ascii")
        view, starts, _ends, quiet, _clean = _line_kinds(buf, None)
        assert quiet.all()
        for line, value in zip(lines, clean_timestamps(view, starts).tolist()):
            assert float.hex(value) == float.hex(self._reference_ts(line))

    @settings(max_examples=200, deadline=None)
    @given(
        picks=st.lists(st.integers(0, len(LINE_SHAPES) - 1), max_size=30),
        gate=st.sampled_from([None, "rm", "nm", "container"]),
        terminated=st.booleans(),
    )
    def test_quiet_lines_parse_to_the_same_record(self, picks, gate, terminated):
        """Every clean line, quiet or a candidate, reads as the reference's."""
        buf = b"\n".join(LINE_SHAPES[i] for i in picks)
        if terminated and picks:
            buf += b"\n"
        view, starts, ends, quiet, clean = _line_kinds(buf, gate)
        assert [buf[s:e] for s, e in zip(starts.tolist(), ends.tolist())] == _byte_lines(buf)
        assert not (quiet & ~clean).any()
        lines = np.flatnonzero(clean).tolist()
        stamps = clean_timestamps(view, starts[clean]).tolist()
        for line, ts in zip(lines, stamps):
            start, end = int(starts[line]), int(ends[line])
            record, _outcome = LogRecord.classify_parse(buf[start:end].decode("utf-8"))
            level, cls, message = clean_fields(buf, start, end)
            assert record is not None
            assert float.hex(ts) == float.hex(record.timestamp)
            assert (record.level, record.cls, record.message) == (level, cls, message)
            if quiet[line]:  # a quiet line never yields an event
                assert _record_event(EXEC, gate, "application_1_1000", ts, cls, message) is None
        # Clean means exactly: ASCII, and parsed by the reference reader.
        for line, raw in enumerate(_byte_lines(buf)):
            record, _outcome = LogRecord.classify_parse(raw.decode("utf-8", "replace"))
            assert clean[line] == (raw.isascii() and record is not None)

    def test_every_chunk_of_a_container_log_is_bit_identical(self):
        # Chunks of every length from every starting line of a real
        # container log (the live path feeds chunks of a few lines), and
        # a shortest clean line that ends the buffer unterminated, whose
        # digits are the last rows the kernel's strided gather can read.
        golden = Path(__file__).resolve().parent / "data" / "golden"
        lines = (golden / f"{EXEC}.log").read_bytes().splitlines(keepends=True)
        chunks = [
            b"".join(lines[first:last])
            for first in range(len(lines))
            for last in range(first + 1, len(lines) + 1)
        ]
        chunks.append(lines[0] + b"2018-01-31 23:59:59,999 INFO C: m")
        for buf in chunks:
            view, starts, ends, quiet, _clean = _line_kinds(buf, "container")
            stamps = clean_timestamps(view, starts[quiet]).tolist()
            expected = [
                LogRecord.classify_parse(buf[s:e].decode("utf-8"))[0].timestamp
                for s, e in zip(starts[quiet].tolist(), ends[quiet].tolist())
            ]
            assert [float.hex(v) for v in stamps] == [float.hex(v) for v in expected]
        assert quiet[-1] and ends[-1] == len(buf)

    def test_no_clean_line_reads_no_timestamp(self):
        view, starts, _ends, quiet, _clean = _line_kinds(b"garbage\n", None)
        assert clean_timestamps(view, starts[quiet]).tolist() == []

    def test_chatter_is_quiet_and_events_are_not(self):
        picks = [10, 11, 12, 13, 14, 7, 8, 5, 9, 3, 4]
        buf = b"".join(LINE_SHAPES[i] + b"\n" for i in picks)
        quiet = _line_kinds(buf, "container")[3].tolist()
        assert quiet == [True] * 7 + [False] * 4


class TestReferenceReach:
    """Only an unclean line reaches the reference reader."""

    @staticmethod
    def _spy(monkeypatch):
        """The lines :meth:`LogRecord.classify_parse` reads from now on."""
        calls = []
        original = LogRecord.classify_parse

        def spy(cls, line):
            calls.append(line)
            return original(line)

        monkeypatch.setattr(LogRecord, "classify_parse", classmethod(spy))
        return calls

    def test_golden_corpus_reads_no_line_by_reference(self, monkeypatch):
        # 137 lines: 26 quiet, 111 clean candidates, none unclean.
        reference_events, reference_diag = _reference(GOLDEN)
        calls = self._spy(monkeypatch)
        events, diag = LogMiner().mine(GOLDEN)
        assert calls == []
        assert events == reference_events
        assert _diag_dict(diag) == _diag_dict(reference_diag)

    def test_only_unclean_lines_reach_the_reference(self, tmp_path, monkeypatch):
        shutil.copytree(GOLDEN, tmp_path, dirs_exist_ok=True)
        unclean = [
            "2018-01-12 00:00:30 INFO x.Exec: Got assigned task 90",  # garbled
            "2018-01-12 00:00:30,001 INFO x.Ex\u00e9c: Got assigned task 91",
            "2018-02-12 00:00:30,002 INFO x.Exec: Got assigned task 92",
        ]
        with open(tmp_path / f"{EXEC}.log", "a", encoding="utf-8") as log:
            log.write("".join(line + "\n" for line in unclean))
        reference_events, reference_diag = _reference(tmp_path)
        calls = self._spy(monkeypatch)
        events, diag = LogMiner().mine(tmp_path)
        assert calls == unclean
        assert events == reference_events
        assert _diag_dict(diag) == _diag_dict(reference_diag)
        stream = diag.streams[EXEC]
        assert (stream.dropped_garbled, stream.dropped_bad_timestamp) == (1, 1)


class TestLedger:
    """One ledger function counts duplicates and reorders for both scans."""

    RECORDS = (
        LogRecord(1.0, "x.C", "a"),
        LogRecord(1.0, "x.C", "a"),  # duplicate
        LogRecord(1.0, "x.C", "a"),  # duplicate, in a run of ties
        LogRecord(1.0, "x.C", "b"),  # a tie: another message
        LogRecord(1.0, "x.D", "b"),  # another class
        LogRecord(1.0, "x.D", "b", level="WARN"),  # another level
        LogRecord(0.5, "x.C", "a"),  # out of order
        LogRecord(0.5, "x.C", "a"),  # duplicate
        LogRecord(2.0, "x.Exec", "Got assigned task 1"),
        LogRecord(2.0, "x.Exec", "Got assigned task 1"),  # duplicate event
        LogRecord(1.75, "x.C", "z"),  # out of order
    )

    def test_ledger_reads_only_tied_keys(self):
        reads = set()

        def key(i):
            reads.add(i)
            return self.RECORDS[i]

        times = np.array([record.timestamp for record in self.RECORDS])
        assert _ledger(times, key) == (4, 2)
        assert reads == set(range(10))  # not the last record, which ties nothing
        assert _ledger(np.zeros(0), key) == (0, 0)

    @pytest.mark.parametrize("gate", [None, "container"])
    def test_both_scans_count_the_same_ledger(self, gate):
        buf = "".join(record.render() + "\n" for record in self.RECORDS).encode("ascii")
        chunk = _scan_chunk(EXEC, gate, buf)
        records = _scan_records(EXEC, gate, self.RECORDS)
        assert chunk[1] == (11, 11, 0, 0, 0, 4, 2)
        assert chunk == records  # events, counters, first and last keys
        # Scans pass every FIRST_TASK; the accumulator keeps the first.
        tasks = [e for e in chunk[0] if e[0] == EventKind.FIRST_TASK.value]
        assert len(tasks) == (2 if gate else 0)
        acc = StreamEventAccumulator(EXEC, gate)
        assert acc.absorb(chunk) == tasks[:1]


class TestTwoWorkers:
    """Serial == ``jobs=2`` == the reference on rotated and empty streams."""

    RM_LINES = [
        "2018-01-12 00:00:01,000 INFO x.RMAppImpl: application_1515715200000_0001 State change from NEW to SUBMITTED on event = START",
        "2018-01-12 00:00:02,000 INFO x.RMAppImpl: application_1515715200000_0001 State change from SUBMITTED to ACCEPTED on event = APP_ACCEPTED",
        "2018-01-12 00:00:03,000 INFO x.RMAppImpl: application_1515715200000_0001 State change from ACCEPTED to RUNNING on event = ATTEMPT_REGISTERED",
    ]

    def _mine(self, directory):
        miner = LogMiner()
        with tiny_chunks():
            serial = miner.mine(directory)
            parallel = miner.mine(directory, jobs=2)
        miner.close()
        reference = _reference(directory)
        for events, diag in (parallel, reference):
            assert events == serial[0]
            assert _diag_dict(diag) == _diag_dict(serial[1])
        return serial

    def test_rotation_segments(self, tmp_path):
        _write(tmp_path, f"{RM}.log.2", self.RM_LINES[:1])
        _write(tmp_path, f"{RM}.log.1", self.RM_LINES[1:2])
        # The live segment has no trailing newline.
        _write(tmp_path, f"{RM}.log", self.RM_LINES[2:], newline=False)
        events, diag = self._mine(tmp_path)
        assert [e.kind for e in events] == [
            EventKind.APP_SUBMITTED,
            EventKind.APP_ACCEPTED,
            EventKind.APP_ATTEMPT_REGISTERED,
        ]
        assert diag.streams[RM].segments == 3

    def test_empty_and_garbled_files(self, tmp_path):
        _write(tmp_path, f"{RM}.log", self.RM_LINES + ["stack trace noise", ""])
        (tmp_path / f"{NM}.log").write_bytes(b"")
        events, diag = self._mine(tmp_path)
        assert len(events) == 3
        assert diag.streams[RM].dropped_garbled == 2
        assert diag.streams[NM].lines_total == 0


class TestFirstEventIndexEquivalence:
    """Traces built from fast-path events index identically to the reference."""

    def test_first_event_index_fast_vs_legacy(self, tmp_path):
        from repro.core.grouping import group_events

        app = "application_1515715200000_0001"
        _write(
            tmp_path,
            f"{RM}.log",
            [
                f"2018-01-12 00:00:01,000 INFO x.RMAppImpl: {app} State change from NEW to SUBMITTED on event = START",
                f"2018-01-12 00:00:02,000 INFO x.RMAppImpl: {app} State change from SUBMITTED to ACCEPTED on event = APP_ACCEPTED",
                f"2018-01-12 00:00:03,000 INFO x.RMContainerImpl: {EXEC} Container Transitioned from NEW to ALLOCATED",
            ],
        )
        _write(
            tmp_path,
            f"{EXEC}.log",
            [
                "2018-01-12 00:00:04,000 INFO x.Exec: started",
                "2018-01-12 00:00:05,000 INFO x.Exec: Got assigned task 0",
            ],
        )
        with tiny_chunks():
            fast_traces = group_events(LogMiner().mine(tmp_path)[0])
        reference_traces = group_events(_reference(tmp_path)[0])
        assert fast_traces.keys() == reference_traces.keys()
        for app_id in fast_traces:
            fast_trace, reference_trace = fast_traces[app_id], reference_traces[app_id]
            for kind in EventKind:
                assert fast_trace.first(kind) == reference_trace.first(kind)


class TestGateKind:
    """Every scan gates a stream by the shape of its daemon name."""

    @pytest.mark.parametrize(
        "daemon,expected",
        [
            (RM, "rm"),
            ("hadoop-resourcemanager-host2", "rm"),
            (NM, "nm"),
            (EXEC, "container"),
            ("container_e17_1515715200000_0001_01_000002", "container"),
            ("weird-daemon", None),
            ("resourcemanager", None),
        ],
    )
    def test_gate_kind(self, daemon, expected):
        assert _gate_kind(daemon) == expected


class TestSlotsAndPickling:
    """Workers ship these across the process boundary: slots must not
    break pickling (frozen dataclasses with slots need no __dict__)."""

    def test_hot_classes_have_slots(self):
        for cls in (LogRecord, SchedulingEvent, StreamDiagnostics):
            assert not hasattr(cls(**_ctor_args(cls)), "__dict__"), cls

    @pytest.mark.parametrize("cls", [LogRecord, SchedulingEvent, StreamDiagnostics])
    def test_pickle_round_trip(self, cls):
        instance = cls(**_ctor_args(cls))
        clone = pickle.loads(pickle.dumps(instance))
        assert clone == instance


def _ctor_args(cls):
    if cls is LogRecord:
        return dict(timestamp=1.5, cls="x.Cls", message="m", level="WARN")
    if cls is SchedulingEvent:
        return dict(
            kind=EventKind.FIRST_TASK,
            timestamp=2.0,
            app_id="application_1_1000",
            container_id="container_1_1000_01_000001",
            daemon="container_1_1000_01_000001",
            source_class="x.Exec",
        )
    return dict(daemon="d", lines_total=3, records_parsed=2, dropped_garbled=1)


class TestResolveJobs:
    def test_explicit_counts_pass_through(self, tmp_path):
        assert resolve_jobs(1, tmp_path) == 1
        assert resolve_jobs(7, tmp_path) == 7

    def test_auto_is_serial_on_one_cpu(self, tmp_path, monkeypatch):
        import repro.core.parser as parser_mod

        monkeypatch.setattr(parser_mod, "available_cpus", lambda: 1)
        big = tmp_path / "big.log"
        big.write_bytes(b"x" * (AUTO_SERIAL_THRESHOLD_LINES * 200))
        assert resolve_jobs(AUTO_JOBS, tmp_path) == 1

    def test_auto_is_serial_below_line_threshold(self, tmp_path, monkeypatch):
        import repro.core.parser as parser_mod

        monkeypatch.setattr(parser_mod, "available_cpus", lambda: 8)
        (tmp_path / "small.log").write_bytes(b"short corpus\n")
        assert resolve_jobs(AUTO_JOBS, tmp_path) == 1
        assert resolve_jobs(AUTO_JOBS, LogStore()) == 1

    def test_auto_parallelizes_large_directories(self, tmp_path, monkeypatch):
        import repro.core.parser as parser_mod

        monkeypatch.setattr(parser_mod, "available_cpus", lambda: 8)
        big = tmp_path / "big.log"
        big.write_bytes(b"x" * (AUTO_SERIAL_THRESHOLD_LINES * 200))
        assert resolve_jobs(AUTO_JOBS, tmp_path) > 1
