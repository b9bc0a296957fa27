"""Per-daemon log streams and directory round-tripping.

The store mirrors a real Hadoop log collection: one file for the
ResourceManager, one per NodeManager, and one per container (the Spark
driver's and each executor's stdout/stderr aggregation).  File names
follow the ``<daemon>.log`` convention so a directory of logs produced
by :meth:`LogStore.dump` is exactly what SDchecker's offline CLI
consumes.

Reading is streaming-first: :meth:`LogStore.iter_records` and
:func:`iter_file_records` yield one record at a time, so a million-line
log never has to be materialized to be mined.  :meth:`LogStore.records`
returns a cached immutable tuple view (rebuilt only after an append),
which makes repeated per-daemon reads O(1) instead of a list copy per
call.

A directory is listed one way, by :func:`stream_segments`: batch
mining, :meth:`LogStore.load`, the fault catalog and the live tailer
all read its ``(daemon, [Segment, ...])`` streams.  Directory mining
reads raw bytes: :func:`partition_file` cuts each file into byte ranges
by the size the listing read, and :func:`read_chunk`, one seeking
``read(2)`` per range, returns exactly the lines that range owns.  It
is the only chunk reader.
"""

from __future__ import annotations

import re
import sys
from functools import lru_cache
from pathlib import Path
from stat import S_ISREG
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from repro.logsys.diagnostics import StreamDiagnostics
from repro.logsys.record import PARSE_BAD_TIMESTAMP, LogRecord, millisecond_stamp

__all__ = [
    "DaemonLogger",
    "LogStore",
    "SealedStoreError",
    "Segment",
    "iter_file_lines",
    "iter_file_records",
    "partition_file",
    "read_chunk",
    "stream_segments",
    "FAST_SPLIT_THRESHOLD",
    "FAST_CHUNK_TARGET",
]

#: Default read size for the chunked file reader: large enough to
#: amortize syscalls, small enough to keep memory flat on huge logs.
_CHUNK_SIZE = 1 << 16

#: Files larger than this are split into byte-range chunks so several
#: workers can mine one daemon file concurrently (a multi-GB
#: ResourceManager log no longer serializes on a single worker).
FAST_SPLIT_THRESHOLD = 8 * 1024 * 1024

#: Aimed size of each split chunk.  Half the threshold, so a file just
#: over the threshold still yields at least two meaningful chunks.
FAST_CHUNK_TARGET = 4 * 1024 * 1024

#: ``<daemon>.log`` (live) or ``<daemon>.log.N`` (rotated segment, the
#: log4j RollingFileAppender convention: higher N is older).
_SEGMENT_RE = re.compile(r"^(?P<daemon>.+)\.log(?:\.(?P<index>\d+))?$")

#: Distinct file names whose segment parse is remembered.  A live
#: session lists the same directory every poll, so each name pays the
#: regex once; the bound keeps a long-lived process's memory flat.
_SEGMENT_NAME_CACHE = 1 << 16


class SealedStoreError(RuntimeError):
    """Raised by :meth:`LogStore.append` after :meth:`LogStore.seal`.

    A ``RuntimeError`` subclass so pre-existing callers that caught the
    old generic exception keep working.
    """


def iter_file_lines(path: str | Path, chunk_size: int = _CHUNK_SIZE) -> Iterator[str]:
    """Yield the text lines of ``path`` reading fixed-size chunks.

    Equivalent to ``path.read_text().splitlines()`` but with O(chunk)
    memory: the file is never fully materialized.  Invalid UTF-8 bytes
    (a crashed writer, bit rot, a truncated multi-byte character) are
    replaced with U+FFFD instead of raising — real log collections are
    not guaranteed to decode cleanly.

    Lines are terminated by ``\\n`` only (``newline="\\n"`` disables
    universal-newline translation): this is the log4j convention the
    simulator writes, and it keeps the text reader line-for-line
    identical with the byte-oriented fast path, which splits raw bytes
    on ``\\n``.
    """
    tail = ""
    with open(path, "r", encoding="utf-8", errors="replace", newline="\n") as handle:
        while True:
            chunk = handle.read(chunk_size)
            if not chunk:
                break
            chunk = tail + chunk
            lines = chunk.split("\n")
            tail = lines.pop()
            yield from lines
    if tail:
        yield tail


def partition_file(
    size: int,
    threshold: int = FAST_SPLIT_THRESHOLD,
    target: int = FAST_CHUNK_TARGET,
) -> List[Tuple[int, int]]:
    """Deterministic byte-range partition of a log file of ``size`` bytes.

    Returns ``[(start, end), ...]`` half-open byte ranges covering the
    file: a single range for files of at most ``threshold`` bytes,
    otherwise ranges of roughly ``target`` bytes each.  Boundaries are
    pure arithmetic over the size :func:`stream_segments` read — no
    bytes are read and nothing is stat'ed again — so the partition of a
    given file is identical on every run and process.  Line alignment
    is the reader's job: :func:`read_chunk` assigns each line to exactly
    one range via the line-ownership protocol.
    """
    if size <= threshold or target <= 0:
        return [(0, size)]
    chunks = -(-size // target)  # ceil division
    bounds = [size * i // chunks for i in range(chunks + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(chunks)]


def read_chunk(
    path: str | Path, start: int, end: int, read_size: int = _CHUNK_SIZE
) -> bytes:
    """The raw bytes of every line *owned* by the range ``[start, end)``.

    Ownership protocol: a line belongs to the range containing its
    first byte.  The returned buffer therefore starts at a line start
    and runs through the final newline of the last owned line (a line
    straddling ``end`` is read to completion here and skipped by the
    next range; the file's unterminated tail line has no trailing
    newline).  Splitting the buffer on ``\\n`` yields exactly the lines
    :func:`iter_file_lines` would yield for this region, so
    concatenating all ranges of :func:`partition_file` reconstructs the
    whole file with every line appearing exactly once.

    Detecting whether a line starts exactly at ``start`` requires one
    byte of lookbehind (is ``start - 1`` a newline?), which is why the
    reader seeks to ``start - 1`` rather than ``start``.
    """
    if end <= start:
        return b""
    with open(path, "rb") as handle:
        if start > 0:
            handle.seek(start - 1)
            head = handle.read(end - start + 1)
            if not head:
                return b""
            if head[0] == 0x0A:  # a line starts exactly at `start`
                buf = head[1:]
            else:
                # Mid-line: the straddling line is owned upstream.  Our
                # first owned line starts after the next newline — if
                # that is at or past `end`, this range owns nothing.
                newline_at = head.find(b"\n")
                if newline_at < 0 or start + newline_at >= end:
                    return b""
                buf = head[newline_at + 1 :]
        else:
            buf = handle.read(end)
        if buf.endswith(b"\n"):
            return buf
        # Complete the line that straddles `end` (EOF also ends it).
        parts = [buf]
        while True:
            block = handle.read(read_size)
            if not block:
                break
            newline_at = block.find(b"\n")
            if newline_at >= 0:
                parts.append(block[: newline_at + 1])
                break
            parts.append(block)
        return b"".join(parts)


def iter_file_records(
    path: str | Path,
    chunk_size: int = _CHUNK_SIZE,
    diagnostics: Optional[StreamDiagnostics] = None,
) -> Iterator[LogRecord]:
    """Yield the parseable :class:`LogRecord` lines of one log file.

    Unparseable lines (stack traces, wrapped output, a final record
    truncated by a crash) are skipped, as a log miner must.  When a
    :class:`StreamDiagnostics` is passed, every skipped line is counted
    there by reason instead of disappearing silently.
    """
    for line in iter_file_lines(path, chunk_size):
        record, outcome = LogRecord.classify_parse(line)
        if diagnostics is not None:
            diagnostics.lines_total += 1
            if "�" in line:
                diagnostics.encoding_replacements += 1
            if record is not None:
                diagnostics.records_parsed += 1
            elif outcome == PARSE_BAD_TIMESTAMP:
                diagnostics.dropped_bad_timestamp += 1
            else:
                diagnostics.dropped_garbled += 1
        if record is not None:
            yield record


class Segment(NamedTuple):
    """One file of a log stream, as a directory listing saw it."""

    path: Path
    inode: int
    size: int


@lru_cache(maxsize=_SEGMENT_NAME_CACHE)
def _segment_name(name: str) -> Optional[Tuple[str, int]]:
    """``(daemon, rotation index)`` of a segment file name, else None.

    The live ``<daemon>.log`` has index -1, so it sorts after every
    rotated segment.  The daemon name is interned: every scan and
    report of the directory shares it.
    """
    m = _SEGMENT_RE.match(name)
    if m is None:
        return None
    return sys.intern(m["daemon"]), -1 if m["index"] is None else int(m["index"])


def stream_segments(directory: str | Path) -> List[Tuple[str, List[Segment]]]:
    """The log streams of one directory, with rotation segments merged.

    Returns ``(daemon, [Segment, ...])`` pairs sorted by daemon name,
    each stream's segments in chronological order.  A stream rotated
    by log4j's RollingFileAppender is ``<daemon>.log.N`` (oldest) down
    through ``<daemon>.log.1`` and finally the live ``<daemon>.log``;
    reading the segments in that order reconstructs the original
    stream.  One ``stat`` per matching name answers regularity, inode
    and size together; a name that vanishes between the listing and
    its ``stat`` (a rotation racing the listing) is skipped.
    """
    groups: Dict[str, List[Tuple[int, Segment]]] = {}
    for path in Path(directory).iterdir():
        meta = _segment_name(path.name)
        if meta is None:
            continue
        try:
            stat = path.stat()
        except OSError:
            continue
        if not S_ISREG(stat.st_mode):
            continue
        daemon, index = meta
        groups.setdefault(daemon, []).append(
            (index, Segment(path, stat.st_ino, stat.st_size))
        )
    out: List[Tuple[str, List[Segment]]] = []
    for daemon in sorted(groups):
        # Highest index (oldest) first, the live file (index -1) last.
        entries = sorted(groups[daemon], key=lambda item: item[0], reverse=True)
        out.append((daemon, [segment for _index, segment in entries]))
    return out


class DaemonLogger:
    """Bound logger for one daemon; stamps records with simulated time.

    The stamp is the millisecond the record's line renders to
    (:func:`~repro.logsys.record.millisecond_stamp`), so the store holds
    exactly what its dumped files hold and mining either gives the same
    report.
    """

    def __init__(self, store: "LogStore", daemon: str, clock: Callable[[], float]):
        self._store = store
        self.daemon = daemon
        self._clock = clock

    def info(self, cls: str, message: str) -> LogRecord:
        return self.log("INFO", cls, message)

    def warn(self, cls: str, message: str) -> LogRecord:
        return self.log("WARN", cls, message)

    def error(self, cls: str, message: str) -> LogRecord:
        return self.log("ERROR", cls, message)

    def log(self, level: str, cls: str, message: str) -> LogRecord:
        record = LogRecord(
            timestamp=millisecond_stamp(self._clock()),
            cls=cls,
            message=message,
            level=level,
        )
        self._store.append(self.daemon, record)
        return record


class LogStore:
    """All log streams of one simulated cluster run."""

    def __init__(self):
        self._streams: Dict[str, List[LogRecord]] = {}
        #: daemon -> cached immutable view, invalidated by append().
        self._views: Dict[str, Tuple[LogRecord, ...]] = {}
        self._sealed = False
        #: daemon -> what :meth:`load` tolerated while reading that
        #: stream off disk.  Empty for stores built in memory, where
        #: every record arrived well-formed by construction.
        self.stream_diagnostics: Dict[str, StreamDiagnostics] = {}

    # -- writing ---------------------------------------------------------
    def logger(self, daemon: str, clock: Callable[[], float]) -> DaemonLogger:
        """A :class:`DaemonLogger` writing to the ``daemon`` stream."""
        self._streams.setdefault(daemon, [])
        return DaemonLogger(self, daemon, clock)

    def append(self, daemon: str, record: LogRecord) -> None:
        if self._sealed:
            raise SealedStoreError(
                f"cannot append to stream {daemon!r}: the LogStore is "
                "sealed — an offline log collection is complete and "
                "immutable (build a new store for new records)"
            )
        self._streams.setdefault(daemon, []).append(record)
        self._views.pop(daemon, None)

    def seal(self) -> "LogStore":
        """Freeze the store: further appends raise.

        A sealed store models an offline log collection — the run is
        over, the files are what they are — so readers may hold onto
        the tuple views from :meth:`records` indefinitely.
        """
        self._sealed = True
        return self

    @property
    def sealed(self) -> bool:
        return self._sealed

    # -- reading ---------------------------------------------------------
    @property
    def daemons(self) -> List[str]:
        """Names of all streams, sorted for determinism."""
        return sorted(self._streams)

    def records(self, daemon: str) -> Tuple[LogRecord, ...]:
        """Records of one stream in emission order, as an immutable view.

        The tuple is cached: repeated calls between appends return the
        same object instead of copying the backing list each time.
        """
        view = self._views.get(daemon)
        if view is None:
            view = tuple(self._streams.get(daemon, ()))
            self._views[daemon] = view
        return view

    def iter_records(self, daemon: str) -> Iterator[LogRecord]:
        """Lazily yield one stream's records in emission order."""
        yield from self._streams.get(daemon, ())

    def iter_lines(self, daemon: str) -> Iterator[str]:
        """Lazily yield one stream's rendered text lines."""
        for record in self.iter_records(daemon):
            yield record.render()

    def render(self, daemon: str) -> List[str]:
        """The rendered text lines of one stream."""
        return [r.render() for r in self._streams.get(daemon, [])]

    def __len__(self) -> int:
        return sum(len(v) for v in self._streams.values())

    # -- file round-trip ---------------------------------------------------
    def dump(self, directory: str | Path) -> List[Path]:
        """Write each stream to ``<directory>/<daemon>.log`` (UTF-8).

        An empty stream becomes an empty file — not a lone newline —
        so ``load(dump(store))`` is an identity on stream structure.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written = []
        for daemon in self.daemons:
            path = directory / f"{daemon}.log"
            path.write_text(
                "".join(line + "\n" for line in self.iter_lines(daemon)),
                encoding="utf-8",
            )
            written.append(path)
        return written

    @classmethod
    def load(cls, directory: str | Path) -> "LogStore":
        """Read every log stream in ``directory`` back into a store.

        Rotated segments (``<daemon>.log.N``) are merged into their
        stream in chronological order.  Unparseable lines (stack traces,
        wrapped output, truncated trailing records, invalid bytes) are
        skipped and counted in :attr:`stream_diagnostics`, as a log
        miner must.  A file with no parseable lines still registers its
        (empty) stream, and the returned store is sealed — the files on
        disk are the complete run.
        """
        store = cls()
        for daemon, segments in stream_segments(directory):
            store._streams.setdefault(daemon, [])
            diagnostics = StreamDiagnostics(daemon=daemon, segments=len(segments))
            for segment in segments:
                for record in iter_file_records(segment.path, diagnostics=diagnostics):
                    store.append(daemon, record)
            store.stream_diagnostics[daemon] = diagnostics
        return store.seal()

    @classmethod
    def from_lines(cls, named_lines: Iterable[tuple[str, str]]) -> "LogStore":
        """Build a store from (daemon, text-line) pairs.

        Unparseable lines are skipped and counted per stream in
        :attr:`stream_diagnostics`, mirroring :meth:`load`.
        """
        store = cls()
        for daemon, line in named_lines:
            diagnostics = store.stream_diagnostics.setdefault(
                daemon, StreamDiagnostics(daemon=daemon)
            )
            diagnostics.lines_total += 1
            record, outcome = LogRecord.classify_parse(line)
            if record is not None:
                diagnostics.records_parsed += 1
                store.append(daemon, record)
            elif outcome == PARSE_BAD_TIMESTAMP:
                diagnostics.dropped_bad_timestamp += 1
            else:
                diagnostics.dropped_garbled += 1
        return store

