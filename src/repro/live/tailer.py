"""Rotation-aware tailing of a growing log directory.

The batch pipeline reads a *finished* collection: every ``<daemon>.log``
plus its rotated ``<daemon>.log.N`` segments, oldest first.  The tailer
produces exactly the same byte stream **incrementally**, while the
directory is still growing, by keeping one cursor per physical file:

* a cursor is keyed by **inode**, not by name — log4j's
  RollingFileAppender rotates by *renaming* (``.1`` becomes ``.2``, the
  live file becomes ``.1``, a fresh live file appears), and inode
  identity is what survives the rename chain;
* every file is read by :meth:`StreamTailer._read`, one ``os.open``
  and positioned ``os.pread`` calls;
* the live file only ever surrenders *complete* lines (the incremental
  half of the batch reader's line-ownership protocol in
  :func:`repro.logsys.store.read_chunk`): bytes after the last newline
  are a record a writer may still be mid-way through, so they are held
  back and re-read once terminated — or read at :meth:`drain`, when
  EOF ends the line exactly as :func:`~repro.logsys.store.iter_file_lines`
  treats an unterminated tail;
* a file whose name gained a rotation index is *closed*: it is read to
  EOF (unterminated tail included, newline-normalized so segment
  boundaries never glue two lines together) and finalized before any
  younger segment's bytes are emitted, preserving oldest-first order;
* **truncation** (a file shrinking below its cursor — a writer
  restarted with a fresh file on the same name/inode) is detected by
  ``size < offset`` and re-synced from byte 0, counted in
  :attr:`StreamTailer.resyncs`;
* **recreation** (a writer that starts the file over on the same inode
  and grows it *past* the old offset between polls — ``size < offset``
  never fires) is detected by a small head fingerprint: the hash of the
  first consumed bytes (up to :data:`FINGERPRINT_BYTES`) is remembered
  per cursor, and a changed head forces the same re-sync from byte 0 —
  for a live file and for one read to EOF after its rotation alike.
  The fingerprint survives checkpoints (``to_state``/``from_state``),
  so a resumed session detects a restart that happened while it was
  down.

Determinism: the directory is listed by the batch reader's own
:func:`~repro.logsys.store.stream_segments` — daemons in sorted order,
segments in chronological order — so the concatenation of every
:class:`TailChunk` ever emitted for a daemon equals the line stream the
batch reader would produce over the final directory.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set

from repro.logsys.store import Segment, stream_segments

__all__ = [
    "DirectoryTailer",
    "FINGERPRINT_BYTES",
    "SegmentCursor",
    "StreamTailer",
    "TailChunk",
]

#: Upper bound on the per-cursor head fingerprint.  Small enough that
#: re-checking it every poll is one tiny read, long enough that a
#: restarted writer is only missed if its new log opens with the exact
#: same head bytes as the old one (a log4j stream opens with a
#: timestamped line, so same-head collisions require a same-millisecond
#: restart).
FINGERPRINT_BYTES = 64

#: Bytes a read to EOF asks for beyond the size the listing saw, so a
#: file that grew a little since is still read in one call (the next
#: call, at EOF, returns nothing).
_EOF_SLACK = 1 << 16


@dataclass
class TailChunk:
    """Newly available complete-line bytes of one daemon stream."""

    daemon: str
    data: bytes
    #: Total rotation segments known for the stream so far (for the
    #: diagnostics ledger's ``segments`` count).
    segments: int


@dataclass
class SegmentCursor:
    """Read position inside one physical log file, keyed by inode."""

    inode: int
    name: str
    offset: int = 0
    #: A finalized segment is fully consumed and will never be read
    #: again (rotated files do not grow).
    final: bool = False
    #: Head fingerprint: SHA-1 of the first ``fp_len`` consumed bytes
    #: (``fp_len <= FINGERPRINT_BYTES``).  ``None`` until the cursor has
    #: consumed its first complete line.  A changed head means the
    #: writer recreated the file on the same inode — even if it has
    #: already grown past the old offset — and forces a re-sync.
    fp: Optional[str] = None
    fp_len: int = 0

    def fingerprint(self, head: bytes) -> None:
        """Remember the head of a file just consumed from byte 0."""
        self.fp_len = min(FINGERPRINT_BYTES, len(head))
        self.fp = hashlib.sha1(head[: self.fp_len]).hexdigest()

    def head_changed(self, head: bytes) -> bool:
        """True when the file's head no longer matches the fingerprint.

        ``head`` is the file's first ``fp_len`` bytes, read off the
        data read's already-open descriptor so the recreation check
        shares that single open instead of paying its own — the check
        itself cannot be skipped on any poll: a same-size same-inode
        rewrite is invisible to every stat-based heuristic.
        """
        if self.fp is None:
            return False
        if len(head) < self.fp_len:
            return True  # shrunk below the fingerprinted head
        return hashlib.sha1(head[: self.fp_len]).hexdigest() != self.fp

    def resync(self) -> None:
        """Start over from byte 0 (truncation or recreation detected)."""
        self.offset = 0
        self.fp = None
        self.fp_len = 0

    def to_state(self) -> dict:
        return {
            "inode": self.inode,
            "name": self.name,
            "offset": self.offset,
            "final": self.final,
            "fp": self.fp,
            "fp_len": self.fp_len,
        }

    @classmethod
    def from_state(cls, state: dict) -> "SegmentCursor":
        return cls(
            inode=state["inode"],
            name=state["name"],
            offset=state["offset"],
            final=state["final"],
            fp=state.get("fp"),
            fp_len=state.get("fp_len", 0),
        )


def _normalized(buf: bytes) -> bytes:
    """Terminate a flushed tail so concatenation cannot merge lines."""
    if buf and not buf.endswith(b"\n"):
        return buf + b"\n"
    return buf


class StreamTailer:
    """Cursor chain of one daemon stream, in chronological segment order."""

    def __init__(self, daemon: str):
        self.daemon = daemon
        self.cursors: List[SegmentCursor] = []
        #: Truncation and recreation re-syncs observed (writer restarts).
        self.resyncs = 0
        #: Rotation segments discovered after the stream was first seen.
        self.rotations = 0
        #: Bytes known to exist but not yet consumed, as of the last poll.
        self.lag_bytes = 0

    @property
    def segments(self) -> int:
        return max(1, len(self.cursors))

    def _live_name(self) -> str:
        return f"{self.daemon}.log"

    def advance(self, segments: List[Segment], final: bool = False) -> bytes:
        """Consume what the stream's files newly offer, in stream order.

        ``segments`` is the daemon's current listing, oldest first, as
        :func:`~repro.logsys.store.stream_segments` returns it.  Returns
        the newly consumed bytes: complete lines only, unless ``final``
        (the drain), which reads every file to EOF and finalizes it.
        """
        by_inode: Dict[int, Segment] = {segment.inode: segment for segment in segments}
        known = {cursor.inode for cursor in self.cursors}
        # Rename tracking: a cursor follows its inode wherever the
        # rotation chain moved it.
        for cursor in self.cursors:
            segment = by_inode.get(cursor.inode)
            if segment is not None:
                cursor.name = str(segment.path)
            elif not cursor.final:
                # The file vanished (deleted mid-run): nothing more can
                # ever be read from it.
                cursor.final = True
        # Unseen inodes are new segments, appended after every existing
        # cursor (they are younger than anything already tracked) in
        # chronological order among themselves — the listing's order.
        fresh = [
            SegmentCursor(inode=segment.inode, name=str(segment.path))
            for segment in segments
            if segment.inode not in known
        ]
        if fresh and self.cursors:
            self.rotations += len(fresh)
        self.cursors.extend(fresh)

        out: List[bytes] = []
        lag = 0
        live_name = self._live_name()
        for cursor in self.cursors:
            if cursor.final:
                continue
            segment = by_inode[cursor.inode]
            # A rotated file is closed for writing: read to EOF, tail and all.
            closed = final or segment.path.name != live_name
            buf = self._read(cursor, cursor.name, segment.size, closed)
            if buf:
                out.append(buf)
            if not cursor.final:
                lag += segment.size - cursor.offset
        self.lag_bytes = lag
        return b"".join(out)

    def _read(self, cursor: SegmentCursor, path: str, size: int, final: bool) -> bytes:
        """Consume one file's new bytes through one ``os.open``.

        When the cursor holds a head fingerprint, it is checked first:
        truncation (``size < offset``) or a changed head means the
        writer started the file over, so the cursor re-syncs from byte 0
        and :attr:`resyncs` counts it.  A same-size same-inode rewrite
        is exactly the case the fingerprint exists for, so the check
        runs even when ``size == offset``.  Then the read:

        * not ``final`` (a live file): the bytes up to ``size`` the
          listing saw, holding back the partial line after the last
          newline — a file with no newline yet surrenders nothing;
        * ``final`` (a rotated file, or the drain): everything to EOF,
          newline-normalized, and the cursor is finalized.
        """
        if not final and cursor.fp is None and size <= cursor.offset:
            return b""  # nothing to check against, nothing to read
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            # Vanished mid-pass: a live cursor waits for the next
            # listing to say where its inode went; a final read is over.
            cursor.final = final
            return b""
        try:
            if cursor.fp is not None and (
                size < cursor.offset
                or cursor.head_changed(os.pread(fd, cursor.fp_len, 0))
            ):
                self.resyncs += 1
                cursor.resync()
            start = cursor.offset
            if final:
                # To EOF: the writer may have appended since the listing.
                parts = []
                while block := os.pread(
                    fd, max(size - cursor.offset, 0) + _EOF_SLACK, cursor.offset
                ):
                    parts.append(block)
                    cursor.offset += len(block)
                buf = b"".join(parts)
            else:
                buf = os.pread(fd, size - start, start) if size > start else b""
                # Hold back the trailing partial line — bytes after the
                # last newline are a record the writer may still be
                # mid-way through.
                buf = buf[: buf.rfind(b"\n") + 1]
                cursor.offset += len(buf)
        finally:
            os.close(fd)
        if start == 0 and buf:
            cursor.fingerprint(buf)
        if final:
            cursor.final = True
            return _normalized(buf)
        return buf

    def to_state(self) -> dict:
        return {
            "cursors": [cursor.to_state() for cursor in self.cursors],
            "resyncs": self.resyncs,
            "rotations": self.rotations,
            "lag_bytes": self.lag_bytes,
        }

    @classmethod
    def from_state(cls, daemon: str, state: dict) -> "StreamTailer":
        tailer = cls(daemon)
        tailer.cursors = [SegmentCursor.from_state(s) for s in state["cursors"]]
        tailer.resyncs = state["resyncs"]
        tailer.rotations = state["rotations"]
        # Restored so `tail_lag_bytes` reads true immediately after a
        # checkpoint resume, not 0 until the first poll.
        tailer.lag_bytes = state.get("lag_bytes", 0)
        return tailer


class DirectoryTailer:
    """Follows every ``<daemon>.log[.N]`` stream of one directory."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.streams: Dict[str, StreamTailer] = {}
        #: Daemons evicted by the session's TTL policy: their files are
        #: ignored by every future poll (no cursors, no re-reads from
        #: byte 0), so eviction actually releases the memory instead of
        #: re-accumulating it on the next scan.
        self.evicted: Set[str] = set()
        self.drained = False

    def _stream(self, daemon: str) -> StreamTailer:
        tailer = self.streams.get(daemon)
        if tailer is None:
            tailer = self.streams[daemon] = StreamTailer(daemon)
        return tailer

    # -- polling -----------------------------------------------------------
    def poll(self) -> List[TailChunk]:
        """One pass over the directory: every stream's new complete lines."""
        return self._pass(final=False)

    def drain(self) -> List[TailChunk]:
        """One final pass, held-back tails included: then the tailer is done."""
        chunks = self._pass(final=True)
        self.drained = True
        return chunks

    def _pass(self, final: bool) -> List[TailChunk]:
        try:
            listing = dict(stream_segments(self.directory))
        except OSError:
            listing = {}  # directory missing (or not a directory yet)
        chunks: List[TailChunk] = []
        for daemon in sorted((listing.keys() | self.streams.keys()) - self.evicted):
            tailer = self._stream(daemon)
            data = tailer.advance(listing.get(daemon, []), final)
            chunks.append(TailChunk(daemon, data, tailer.segments))
        return chunks

    def evict_stream(self, daemon: str) -> bool:
        """Stop following ``daemon`` forever; True when it was tracked."""
        self.evicted.add(daemon)
        return self.streams.pop(daemon, None) is not None

    # -- observability -----------------------------------------------------
    @property
    def tail_lag_bytes(self) -> int:
        return sum(t.lag_bytes for t in self.streams.values())

    @property
    def resyncs(self) -> int:
        return sum(t.resyncs for t in self.streams.values())

    @property
    def rotations(self) -> int:
        return sum(t.rotations for t in self.streams.values())

    # -- checkpointing -----------------------------------------------------
    def to_state(self) -> dict:
        return {
            "directory": str(self.directory),
            "streams": {
                daemon: self.streams[daemon].to_state()
                for daemon in sorted(self.streams)
            },
            "evicted": sorted(self.evicted),
        }

    @classmethod
    def from_state(
        cls, state: dict, directory: Optional[str | Path] = None
    ) -> "DirectoryTailer":
        tailer = cls(directory if directory is not None else state["directory"])
        for daemon, stream_state in state["streams"].items():
            tailer.streams[daemon] = StreamTailer.from_state(daemon, stream_state)
        tailer.evicted = set(state.get("evicted", ()))
        return tailer
