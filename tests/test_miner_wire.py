"""Memory-path contracts: wire round-trips and mmap/read(2) identity.

Two invariants introduced by the zero-copy mining path live here:

* :mod:`repro.core.wire` — ``decode_scan(encode_scan(scan))`` must be
  an identity on every scan a worker can produce, including non-ASCII
  strings (log lines are UTF-8, and boundary-key messages carry them
  verbatim);
* :func:`repro.logsys.store.chunk_window` — the mmap window of any
  ``(start, end)`` range must be byte-identical to what the seeking
  ``read_chunk`` path returns, on every file shape (empty, missing
  trailing newline, chunk boundaries landing mid-line), because the
  fast miner treats the two as interchangeable (``REPRO_MMAP=0``).
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.events import EventKind
from repro.core.parser import LogMiner
from repro.core.wire import WIRE_VERSION, decode_scan, encode_scan
from repro.logsys.store import (
    MMAP_ENV_VAR,
    chunk_window,
    map_readonly,
    mmap_enabled,
    partition_file,
    read_chunk,
    read_chunk_fast,
)

pytest.importorskip("mmap")  # fallback platforms only have read_chunk

_KINDS = tuple(EventKind)

#: Timestamps round-trip through an IEEE-754 double on the wire, so any
#: finite float must survive exactly (NaN is excluded only because it
#: breaks tuple equality, not the codec).
_TS = st.floats(allow_nan=False, allow_infinity=False, width=64)

#: App/container/class strings, deliberately including non-ASCII — log
#: messages are UTF-8 and boundary keys quote them verbatim.
_NAME = st.one_of(
    st.none(),
    st.text(min_size=0, max_size=40),
    st.sampled_from(
        [
            "application_1515715200000_0001",
            "container_1515715200000_0001_01_000002",
            "café ünïcode Ω",
            "ステージ 1.0",
            "x.RMAppImpl",
        ]
    ),
)

_EVENT = st.tuples(
    st.sampled_from([k.value for k in _KINDS]), _TS, _NAME, _NAME, _NAME
)

_KEY = st.one_of(st.none(), st.tuples(_TS, _NAME, _NAME, _NAME))

_COUNTERS = st.tuples(*([st.integers(0, 2**40)] * 7))

_SCAN = st.tuples(st.lists(_EVENT, max_size=30), _COUNTERS, _KEY, _KEY)


class TestWireRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(scan=_SCAN)
    def test_decode_inverts_encode(self, scan):
        events, counters, first_key, last_key = decode_scan(encode_scan(scan))
        assert (list(events), counters, first_key, last_key) == (
            list(scan[0]),
            tuple(scan[1]),
            scan[2],
            scan[3],
        )

    def test_decoded_strings_are_shared(self):
        app = "application_1515715200000_0001"
        scan = (
            [
                (EventKind.APP_SUBMITTED.value, 1.0, app, None, "rm"),
                (EventKind.APP_ACCEPTED.value, 2.0, app, None, "rm"),
            ],
            (2, 2, 0, 0, 0, 0, 0),
            None,
            None,
        )
        events, _, _, _ = decode_scan(encode_scan(scan))
        # One str object per table entry: the parent-side merge dedups
        # for free instead of re-interning pickle's fresh copies.
        assert events[0][2] is events[1][2]
        assert events[0][4] is events[1][4]

    def test_version_skew_is_refused(self):
        blob = bytearray(encode_scan(([], (0,) * 7, None, None)))
        blob[0] = WIRE_VERSION + 1
        with pytest.raises(ValueError, match="wire version"):
            decode_scan(bytes(blob))


def _window_bytes(path, start, end):
    mm = map_readonly(path)
    if mm is None:  # empty file: mmap(fd, 0) is invalid, fast path falls back
        assert Path(path).stat().st_size == 0
        return bytes(read_chunk_fast(path, start, end))
    return bytes(chunk_window(mm, start, end))


class TestWindowIdentity:
    """chunk_window == read_chunk on every (content, range) pair."""

    @settings(max_examples=120, deadline=None)
    @given(
        lines=st.lists(st.binary(max_size=12).filter(lambda b: b"\n" not in b), max_size=12),
        terminated=st.booleans(),
        start=st.integers(0, 160),
        span=st.integers(1, 160),
    )
    def test_any_range_matches_read_chunk(
        self, tmp_path_factory, lines, terminated, start, span
    ):
        tmp_path = tmp_path_factory.mktemp("win")
        path = tmp_path / "d.log"
        body = b"\n".join(lines) + (b"\n" if terminated and lines else b"")
        path.write_bytes(body)
        assert _window_bytes(path, start, start + span) == read_chunk(
            path, start, start + span
        )

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.log"
        path.write_bytes(b"")
        assert _window_bytes(path, 0, 10) == read_chunk(path, 0, 10) == b""
        assert read_chunk_fast(path, 0, 10) == b""

    def test_no_trailing_newline(self, tmp_path):
        path = tmp_path / "d.log"
        path.write_bytes(b"alpha\nbeta")
        for start, end in ((0, 4), (0, 10), (3, 10), (6, 10)):
            assert _window_bytes(path, start, end) == read_chunk(path, start, end)

    def test_partition_points_reconstruct_file(self, tmp_path):
        """Every partition chunk, mmap vs read, over a mid-line boundary."""
        path = tmp_path / "d.log"
        # Lines of 37 bytes: no chunk boundary of the 48-byte target
        # ever lands on a newline, so both sides must exercise their
        # lookbehind/extend logic on every chunk.
        path.write_bytes(b"".join(b"%035d\n" % i for i in range(40)))
        chunks = partition_file(path, threshold=64, target=48)
        assert len(chunks) > 1
        windows = [_window_bytes(path, s, e) for s, e in chunks]
        reads = [read_chunk(path, s, e) for s, e in chunks]
        assert windows == reads
        assert b"".join(windows) == path.read_bytes()

    def test_default_threshold_straddle(self, tmp_path):
        """A real ~9 MiB file: the 4 MiB boundary lands mid-line."""
        path = tmp_path / "d.log"
        line = b"x" * 4093 + b"\n"  # 4094 B: prime-ish vs 4 MiB target
        with open(path, "wb") as handle:
            for _ in range(2400):  # ~9.4 MiB, over FAST_SPLIT_THRESHOLD
                handle.write(line)
        chunks = partition_file(path)
        assert len(chunks) >= 2
        for start, end in chunks:
            assert _window_bytes(path, start, end) == read_chunk(path, start, end)


RM = "hadoop-resourcemanager"
_RM_LINES = [
    "2018-01-12 00:00:01,000 INFO x.RMAppImpl: application_1515715200000_0001 State change from NEW to SUBMITTED on event = START",
    "2018-01-12 00:00:02,000 INFO x.RMAppImpl: application_1515715200000_0001 State change from SUBMITTED to ACCEPTED on event = APP_ACCEPTED",
    "2018-01-12 00:00:03,000 INFO x.RMAppImpl: application_1515715200000_0001 State change from ACCEPTED to RUNNING on event = ATTEMPT_REGISTERED",
]


class TestMinerMmapToggle:
    """LogMiner output is invariant under REPRO_MMAP, incl. rotation."""

    def _mine_both(self, directory, monkeypatch):
        miner = LogMiner(split_threshold=64, chunk_target=48)
        monkeypatch.setenv(MMAP_ENV_VAR, "1")
        assert mmap_enabled()
        with_mmap = miner.mine(str(directory))
        with_mmap_par = miner.mine(str(directory), jobs=2)
        monkeypatch.setenv(MMAP_ENV_VAR, "0")
        assert not mmap_enabled()
        without = miner.mine(str(directory))
        assert with_mmap[0] == without[0]
        assert with_mmap_par[0] == without[0]
        return with_mmap

    def test_rotation_segments(self, tmp_path, monkeypatch):
        (tmp_path / f"{RM}.log.2").write_text(_RM_LINES[0] + "\n", encoding="utf-8")
        (tmp_path / f"{RM}.log.1").write_text(_RM_LINES[1] + "\n", encoding="utf-8")
        # Live segment without a trailing newline.
        (tmp_path / f"{RM}.log").write_text(_RM_LINES[2], encoding="utf-8")
        events, _ = self._mine_both(tmp_path, monkeypatch)
        assert [e.kind for e in events] == [
            EventKind.APP_SUBMITTED,
            EventKind.APP_ACCEPTED,
            EventKind.APP_ATTEMPT_REGISTERED,
        ]

    def test_empty_and_garbled_files(self, tmp_path, monkeypatch):
        (tmp_path / f"{RM}.log").write_text(
            "\n".join(_RM_LINES + ["stack trace noise", ""]) + "\n",
            encoding="utf-8",
        )
        (tmp_path / "hadoop-nodemanager-node01.log").write_bytes(b"")
        events, diagnostics = self._mine_both(tmp_path, monkeypatch)
        assert len(events) == 3
        assert diagnostics.streams[RM].dropped_garbled >= 1

    def test_kill_switch_reaches_read_path(self, tmp_path, monkeypatch):
        path = tmp_path / "d.log"
        path.write_bytes(b"a\nb\n")
        monkeypatch.setenv(MMAP_ENV_VAR, "0")
        out = read_chunk_fast(path, 0, 4)
        assert isinstance(out, bytes) and out == b"a\nb\n"
        monkeypatch.setenv(MMAP_ENV_VAR, "1")
        out = read_chunk_fast(path, 0, 4)
        assert bytes(out) == b"a\nb\n"
