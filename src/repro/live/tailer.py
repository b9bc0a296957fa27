"""Rotation-aware tailing of a growing log directory.

The batch pipeline reads a *finished* collection: every ``<daemon>.log``
plus its rotated ``<daemon>.log.N`` segments, oldest first.  The tailer
produces exactly the same byte stream **incrementally**, while the
directory is still growing, by keeping one cursor per physical file:

* a cursor is keyed by **inode**, not by name — log4j's
  RollingFileAppender rotates by *renaming* (``.1`` becomes ``.2``, the
  live file becomes ``.1``, a fresh live file appears), and inode
  identity is what survives the rename chain;
* the live file only ever surrenders *complete* lines
  (:meth:`StreamTailer._advance_live`, the incremental half of the
  batch reader's line-ownership protocol in
  :func:`repro.logsys.store.read_chunk`): bytes after the last newline
  are a record a writer may still be mid-way through, so they are held
  back and re-read once terminated — or flushed at :meth:`drain`, when
  EOF ends the line exactly as :func:`~repro.logsys.store.iter_file_lines`
  treats an unterminated tail;
* a file whose name gained a rotation index is *closed*: it is read to
  EOF (unterminated tail included, newline-normalized so segment
  boundaries never glue two lines together) and finalized before any
  younger segment's bytes are emitted, preserving oldest-first order;
* **truncation** (the live file shrinking below its cursor — a writer
  restarted with a fresh file on the same name/inode) is detected by
  ``size < offset`` and re-synced from byte 0, counted in
  :attr:`StreamTailer.resyncs`;
* **recreation** (a writer that starts the file over on the same inode
  and grows it *past* the old offset between polls — ``size < offset``
  never fires) is detected by a small head fingerprint: the hash of the
  first consumed bytes (up to :data:`FINGERPRINT_BYTES`) is remembered
  per cursor, and a changed head forces the same re-sync from byte 0.
  The fingerprint survives checkpoints (``to_state``/``from_state``),
  so a resumed session detects a restart that happened while it was
  down.

Determinism: daemons are visited in sorted order and segments in the
batch reader's chronological order, so the concatenation of every
:class:`TailChunk` ever emitted for a daemon equals the line stream the
batch reader would produce over the final directory.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path
from stat import S_ISREG
from typing import Dict, List, Optional, Set, Tuple

from repro.logsys.store import _SEGMENT_RE

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
        data read's already-open descriptor so the per-poll recreation
        check shares that single open instead of paying its own — the
        check itself cannot be skipped on any poll: a same-size
        same-inode rewrite is invisible to every stat-based heuristic.
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
        #: Live-file truncation re-syncs observed (writer restarts).
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

    def advance(self, listing: List[Tuple[str, int, int]]) -> bytes:
        """Consume what the stream's files newly offer, in stream order.

        ``listing`` is the daemon's current directory entries as
        ``(name, inode, size)`` in chronological (oldest-first) order.
        Returns the newly consumed bytes, complete lines only.
        """
        by_inode: Dict[int, Tuple[str, int]] = {
            inode: (name, size) for name, inode, size in listing
        }
        known = {cursor.inode for cursor in self.cursors}
        # Rename tracking: a cursor follows its inode wherever the
        # rotation chain moved it.
        for cursor in self.cursors:
            entry = by_inode.get(cursor.inode)
            if entry is not None:
                cursor.name = entry[0]
            elif not cursor.final:
                # The file vanished (deleted mid-run): nothing more can
                # ever be read from it.
                cursor.final = True
        # Unseen inodes are new segments, appended after every existing
        # cursor (they are younger than anything already tracked) in
        # chronological order among themselves — the listing's order.
        fresh = [
            SegmentCursor(inode=inode, name=name)
            for name, inode, size in listing
            if inode not in known
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
            entry = by_inode.get(cursor.inode)
            if entry is None:
                cursor.final = True
                continue
            name, size = entry
            if os.path.basename(name) == live_name:
                buf = self._advance_live(cursor, name, size)
                if buf:
                    out.append(buf)
                lag += size - cursor.offset
            else:
                # Rotated: closed for writing — read to EOF, tail and all.
                buf = _read_to_eof(name, cursor.offset)
                cursor.offset += len(buf)
                cursor.final = True
                if buf:
                    out.append(_normalized(buf))
        self.lag_bytes = lag
        return b"".join(out)

    def _advance_live(self, cursor: SegmentCursor, name: str, size: int) -> bytes:
        """Consume the live file's new complete lines, in **one** open.

        Folds the per-poll head-fingerprint recreation check and the
        complete-line tail read into a single file open — the two
        separate opens per stream per poll were a measurable slice of
        live ingest cost.  The tail read surrenders the bytes from the
        cursor through the last newline and holds back the partial line
        after it; a file with no newline yet surrenders nothing.  The
        check still runs on *every* poll, even when ``size == offset``:
        a same-size same-inode rewrite is exactly the case the
        fingerprint exists for.
        """
        if cursor.fp is None and size <= cursor.offset:
            return b""  # nothing to check against, nothing to read
        try:
            fd = os.open(name, os.O_RDONLY)
        except OSError:
            return b""  # vanished mid-poll; the next listing finalizes it
        try:
            # Raw-fd pread: the hot loop pays one descriptor and two
            # positioned reads per stream per poll, with no buffered
            # reader object in between.
            head = os.pread(fd, cursor.fp_len, 0) if cursor.fp is not None else b""
            if size < cursor.offset or cursor.head_changed(head):
                # Truncation, or a writer that recreated the file on
                # the same inode (the head no longer matches, even
                # though the new content may already be larger than
                # the old offset): start over from byte 0.
                self.resyncs += 1
                cursor.resync()
            if size <= cursor.offset:
                return b""
            consumed_from_zero = cursor.offset == 0
            buf = os.pread(fd, size - cursor.offset, cursor.offset)
        finally:
            os.close(fd)
        # Hold back the trailing partial line — bytes after the last
        # newline are a record the writer may still be mid-way through.
        newline_at = buf.rfind(b"\n")
        if newline_at < 0:
            return b""
        buf = buf[: newline_at + 1]
        cursor.offset += newline_at + 1
        if consumed_from_zero:
            cursor.fingerprint(buf)
        return buf

    def flush(self, listing: List[Tuple[str, int, int]]) -> bytes:
        """Drain: surrender every held-back byte, unterminated tails included."""
        by_inode: Dict[int, Tuple[str, int]] = {
            inode: (name, size) for name, inode, size in listing
        }
        out: List[bytes] = []
        for cursor in self.cursors:
            if cursor.final or cursor.inode not in by_inode:
                cursor.final = True
                continue
            name = by_inode[cursor.inode][0]
            try:
                handle = open(name, "rb")
            except OSError:
                cursor.final = True
                continue
            with handle:
                if cursor.head_changed(handle.read(cursor.fp_len)):
                    # Recreated between the final poll and the drain
                    # flush (or while a checkpointed session was down):
                    # re-sync so the flush reads the new incarnation
                    # whole.
                    self.resyncs += 1
                    cursor.resync()
                handle.seek(cursor.offset)
                buf = handle.read()
            cursor.offset += len(buf)
            cursor.final = True
            if buf:
                out.append(_normalized(buf))
        self.lag_bytes = 0
        return b"".join(out)

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


def _read_to_eof(path: str, offset: int) -> bytes:
    try:
        with open(path, "rb") as handle:
            handle.seek(offset)
            return handle.read()
    except OSError:
        return b""


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
        #: name -> (daemon, index, full path) for segment-pattern
        #: matches, None for non-matching names.  A name's parse never
        #: changes, so the per-poll listing pays the regex and the path
        #: rendering once per distinct name, not once per poll.
        self._name_meta: Dict[str, Optional[Tuple[str, int, str]]] = {}

    # -- directory scanning ------------------------------------------------
    def _listing(self) -> Dict[str, List[Tuple[str, int, int]]]:
        """daemon -> [(name, inode, size)] in chronological order.

        One ``stat`` per matching file: the segment-name match runs on
        the entry name first, and a single ``stat`` answers regularity,
        inode, and size together — the previous version paid two
        ``stat`` calls per file per poll (``is_file`` plus ``stat``).
        """
        groups: Dict[str, List[Tuple[int, str, int, int]]] = {}
        try:
            paths = list(self.directory.iterdir())
        except OSError:
            return {}  # directory missing (or not a directory yet)
        meta_cache = self._name_meta
        for path in paths:
            name = path.name
            meta = meta_cache.get(name, False)
            if meta is False:
                m = _SEGMENT_RE.match(name)
                if m is None:
                    meta = None
                else:
                    index = -1 if m["index"] is None else int(m["index"])
                    meta = (m["daemon"], index, str(path))
                meta_cache[name] = meta
            if meta is None:
                continue
            try:
                stat = path.stat()
            except OSError:
                continue  # raced with a rename/delete; next poll sees it
            if not S_ISREG(stat.st_mode):
                continue
            daemon, index, full = meta
            groups.setdefault(daemon, []).append(
                (index, full, stat.st_ino, stat.st_size)
            )
        out: Dict[str, List[Tuple[str, int, int]]] = {}
        for daemon in sorted(groups):
            # Highest index (oldest) first, the live file (index -1) last:
            # the batch reader's chronological order.
            entries = sorted(groups[daemon], key=lambda item: item[0], reverse=True)
            out[daemon] = [(name, inode, size) for _i, name, inode, size in entries]
        return out

    def _stream(self, daemon: str) -> StreamTailer:
        tailer = self.streams.get(daemon)
        if tailer is None:
            tailer = self.streams[daemon] = StreamTailer(daemon)
        return tailer

    # -- polling -----------------------------------------------------------
    def poll(self) -> List[TailChunk]:
        """One pass over the directory: every stream's new complete lines."""
        chunks: List[TailChunk] = []
        listing = self._listing()
        for daemon in sorted((set(listing) | set(self.streams)) - self.evicted):
            tailer = self._stream(daemon)
            data = tailer.advance(listing.get(daemon, []))
            chunks.append(TailChunk(daemon, data, tailer.segments))
        return chunks

    def evict_stream(self, daemon: str) -> bool:
        """Stop following ``daemon`` forever; True when it was tracked."""
        self.evicted.add(daemon)
        return self.streams.pop(daemon, None) is not None

    def drain(self) -> List[TailChunk]:
        """Final poll plus held-back tails: after this the tailer is done."""
        chunks = self.poll()
        listing = self._listing()
        for chunk in chunks:
            tailer = self.streams[chunk.daemon]
            chunk.data += tailer.flush(listing.get(chunk.daemon, []))
            chunk.segments = tailer.segments
        self.drained = True
        return chunks

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
