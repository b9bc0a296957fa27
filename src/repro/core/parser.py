"""The log miner: text lines in, scheduling events out.

Per section III-B, SDchecker runs after the applications complete,
collects the daemon logs, and parses them with regular expressions,
keeping only the states critical for delay analysis.  Container log
streams (one per launched container, as YARN's log aggregation lays
them out) additionally yield the FIRST_LOG and FIRST_TASK events, which
are positional: *the first line* of the stream, and *the first* "Got
assigned task" line.

There is one mining lane and one entry point, :meth:`LogMiner.mine`.
Every source is cut into per-stream *scans* — compact event tuples,
ledger counters, and the stream's first and last parsed record — and
:class:`StreamEventAccumulator` stitches each stream's scans back into
stream semantics.  Only the way a scan is produced depends on the
source:

* a directory is scanned in byte chunks by :func:`_scan_chunk`;
* an in-memory :class:`LogStore` is scanned record by record by
  :func:`_scan_records`.  Its records carry the millisecond their line
  renders to (:meth:`~repro.logsys.store.DaemonLogger.log` stamps them
  so), so a store mines to exactly the events and ledger of its dumped
  files.  A store read back with :meth:`LogStore.load` — every line
  through the regex reader :meth:`LogRecord.classify_parse` — is the
  reference the byte lane is tested against.

Both scans classify a parsed record through :func:`_record_event` and
count duplicates and reorders through :func:`_ledger`; neither drops a
repeat, so the accumulator alone keeps a stream's first FIRST_TASK and
MR_TASK_DONE.

Directory sources take the **byte-oriented fast path**, one reader per
line kind.  A *clean* line is ASCII with
:data:`~repro.logsys.record.CLEAN_LINE_HEAD` at its start: the
reference regex parses it, at offsets the grammar pins.  numpy finds a
chunk's line offsets; one regex pass marks the *quiet* lines, clean
lines whose message cannot yield an event under the stream's gate, and
each line it declined gets one head check.  One numpy call reads every
clean line's timestamp, bit-identical to
:func:`~repro.logsys.record.parse_timestamp`, and a clean candidate's
fields are read at their offsets.  Only an *unclean* line (non-ASCII,
garbled, dated outside the epoch month) is decoded and judged by the
reference reader :meth:`LogRecord.classify_parse`.  Quiet lines are
99.6 % of the ``logdir-mine`` benchmark corpus, 19.0 % of the golden
corpus and 12.6 % of a dumped 80-app diurnal-burst run (all clean).

Parallelism is by deterministic byte-offset chunk: files above
:data:`~repro.logsys.store.FAST_SPLIT_THRESHOLD` are partitioned at
line boundaries (:func:`~repro.logsys.store.partition_file` /
:func:`~repro.logsys.store.read_chunk`, the one chunk reader on both
paths), chunks are mined independently, a worker's scan tuple comes
back through ``Executor.map``'s ordinary pickling, and results are
merged in (stream, segment, offset) order.  Per-stream state that
spans chunks — the positional FIRST_LOG, first-occurrence FIRST_TASK /
MR_TASK_DONE, and the duplicate / out-of-order ledger across chunk
boundaries — is reconstructed by the merge, which is shared verbatim
by the serial and parallel paths:
serial, ``--jobs N``, and any chunking of the same files produce
byte-identical reports.  A :class:`LogMiner` keeps its worker pool
from one parallel call to the next and joins it when closed or freed.
A store always mines in-process: its records already live here, and
shipping them to workers was never faster.

Mining is also *accounted*: :meth:`LogMiner.mine` returns a
:class:`~repro.core.diagnostics.MiningDiagnostics` alongside the
events, counting per stream what the readers dropped (garbled lines,
drifted timestamps, invalid bytes), which streams no dispatch rule
recognized, and how many consecutive duplicate records an
at-least-once log shipper injected.  A miner that skips silently turns
measurement error into invisible bias; this one keeps the ledger.
"""

from __future__ import annotations

import operator
import os
import re
import sys
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core import messages as msg
from repro.core.diagnostics import MiningDiagnostics
from repro.core.events import EventKind, SchedulingEvent
from repro.logsys.diagnostics import StreamDiagnostics
from repro.logsys.record import (
    CLEAN_LINE_HEAD,
    PARSE_BAD_TIMESTAMP,
    LogRecord,
    clean_fields,
    clean_timestamps,
)
from repro.logsys.store import (
    FAST_CHUNK_TARGET,
    FAST_SPLIT_THRESHOLD,
    LogStore,
    partition_file,
    read_chunk,
    stream_segments,
)

__all__ = [
    "LogMiner",
    "AUTO_JOBS",
    "StreamEventAccumulator",
    "available_cpus",
    "resolve_jobs",
]

_CONTAINER_DAEMON_RE = msg.CONTAINER_ID_RE

# -- byte-oriented directory fast path ----------------------------------------

#: Sentinel accepted wherever a job count is taken: pick the worker
#: count from the machine and the corpus via :func:`resolve_jobs`.
AUTO_JOBS = "auto"

#: Corpora below this many (estimated) lines mine faster serially than
#: one call can amortize a worker pool's start and join.  Measured for
#: one ``mine`` on a fresh miner (the CLI case), medians of 11 on
#: 2 vCPUs: 48k lines took 47 ms serially and 76 ms at ``jobs=2``, 67k
#: lines 64 and 60 ms, 77k lines 72 and 60 ms, 125k lines 111 and 80 ms.
AUTO_SERIAL_THRESHOLD_LINES = 75_000

#: Corpora are sized without reading them: total bytes over the
#: observed mean line length of the simulated logs (the benchmark
#: corpora average ~108 bytes/line at every scale).
_AUTO_BYTES_PER_LINE = 108

#: Cap on auto-resolved workers: the parent's ordered merge and the
#: result pickling serialize beyond this, so more workers add traffic
#: without throughput.
_AUTO_MAX_JOBS = 4

#: One chunk of parallel work: (daemon, gate kind, segment path, byte
#: start, byte end) — pure strings and ints, nothing to pickle slowly.
_ChunkTask = Tuple[str, Optional[str], str, int, int]


def _quiet_runs(candidates: bytes) -> "re.Pattern[bytes]":
    """Runs of clean lines whose message does not start with ``candidates``."""
    lookahead = b"(?!" + candidates + b")" if candidates else b""
    return re.compile(rb"(?m)^(?:" + CLEAN_LINE_HEAD + lookahead + rb".*(?:\n|\Z))+")


#: Per gate, the runs of *quiet* lines: clean lines that cannot yield an
#: event.  Container logs are mostly chatter, some of it sharing a
#: literal prefix with a Table I line, so their lookahead is the
#: container classifier itself; the daemons' candidates are their
#: literal prefixes, which head hardly any other line.
_QUIET_RUN_RE = {
    None: _quiet_runs(b""),
    "container": _quiet_runs(msg.CONTAINER_LINE_PATTERN.encode("ascii")),
    "rm": _quiet_runs(
        re.escape(msg.RM_APP_LINE_PREFIX.encode("ascii"))
        + b"|"
        + re.escape(msg.RM_CONTAINER_LINE_PREFIX.encode("ascii"))
    ),
    "nm": _quiet_runs(re.escape(msg.NM_CONTAINER_LINE_PREFIX.encode("ascii"))),
}

#: A clean line's head, matched at the start of each line the quiet
#: regex declined (the line's ASCII is checked apart).
_CLEAN_HEAD_RE = re.compile(CLEAN_LINE_HEAD)

#: Bytes searched for newlines at a time.
_NEWLINE_BLOCK = 1 << 16

_FIRST_TASK_VALUE = EventKind.FIRST_TASK.value
_MR_TASK_DONE_VALUE = EventKind.MR_TASK_DONE.value
_KIND_BY_VALUE = {kind.value: kind for kind in EventKind}


def _pool_map(pool: ProcessPoolExecutor, fn, tasks, chunksize: int = 1):
    """Order-preserving ``pool.map``, optionally sanitizer-checked.

    Under ``REPRO_SANITIZE=1`` submissions route through
    :func:`repro.analysis.sanitizer.checked_map`, which verifies that
    payloads pickle and double-submits a sampled fraction to confirm
    worker determinism.  Either way results come back in submission
    order — the property the deterministic merges rely on.
    """
    if os.environ.get("REPRO_SANITIZE", "") == "1":
        from repro.analysis.sanitizer import checked_map

        return checked_map(pool, fn, tasks, chunksize=chunksize)
    return pool.map(fn, tasks, chunksize=chunksize)


def _gate_kind(daemon: str) -> Optional[str]:
    """Stream type of a daemon name: ``container``, ``rm``, ``nm``, or None.

    None marks a stream no dispatch rule recognizes: it is read and
    accounted, but yields no events.
    """
    if _CONTAINER_DAEMON_RE.match(daemon):
        return "container"
    if daemon.startswith("hadoop-resourcemanager"):
        return "rm"
    if daemon.startswith("hadoop-nodemanager"):
        return "nm"
    return None


#: One stream of a mining run: (daemon, gate kind, rotation segments,
#: number of scans the merge consumes for it).
_StreamPlan = Tuple[str, Optional[str], int, int]


class LogMiner:
    """Extracts Table I events from a :class:`LogStore` or a directory.

    A miner keeps its worker pool from one parallel :meth:`mine` to the
    next: it starts on the first parallel call and is rebuilt when a
    worker dies or the worker count changes.  :meth:`close`, or dropping
    the miner, joins the workers, so none outlives its miner.
    """

    def __init__(self):
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_workers = 0
        self._shutdown_pool: Optional[weakref.finalize] = None

    def close(self) -> None:
        """Shut the worker pool down and join its workers.

        The miner stays usable; its next parallel call starts a new pool.
        """
        if self._shutdown_pool is not None:
            self._shutdown_pool()
        self._pool = self._shutdown_pool = None

    def mine(
        self, source: Union[LogStore, str, Path], jobs: Union[int, str] = 1
    ) -> Tuple[List[SchedulingEvent], MiningDiagnostics]:
        """All scheduling events, in per-stream log order, and the ledger.

        ``jobs`` is a worker-process count or :data:`AUTO_JOBS`, which
        resolves as :func:`resolve_jobs` does.  A directory's byte-range
        chunks are independent, and their scans are merged in the order
        serial mining visits them, so the output is byte-identical at
        every ``jobs``; ``jobs <= 1`` runs inline.  A :class:`LogStore`
        always mines in this process.
        """
        if isinstance(source, LogStore):
            return _mine_store(source)
        return self._mine_directory(source, jobs)

    def _mine_directory(
        self, source: Union[str, Path], jobs: Union[int, str]
    ) -> Tuple[List[SchedulingEvent], MiningDiagnostics]:
        """Mine a log directory chunk by chunk, inline or on the pool."""
        plans: List[_StreamPlan] = []
        tasks: List[_ChunkTask] = []
        for daemon, paths in stream_segments(source):
            gate = _gate_kind(daemon)
            chunks = [
                (daemon, gate, str(path), start, end)
                for path in paths
                for start, end in partition_file(
                    path, threshold=FAST_SPLIT_THRESHOLD, target=FAST_CHUNK_TARGET
                )
            ]
            plans.append((daemon, gate, len(paths), len(chunks)))
            tasks.extend(chunks)
        if jobs == AUTO_JOBS:
            jobs = _auto_jobs(sum(end - start for *_task, start, end in tasks))
        workers = min(int(jobs), len(tasks))
        if workers <= 1:
            # The generator keeps at most one chunk in memory.
            scans = (
                _scan_chunk(daemon, gate, read_chunk(path, start, end))
                for daemon, gate, path, start, end in tasks
            )
            return _merge_plans(plans, scans)
        try:
            return self._mine_on_pool(plans, tasks, workers)
        except BrokenProcessPool as error:
            # A worker died (killed, out of memory) since or during the
            # last call: mine once more on a fresh pool.  The error's
            # frames hold this miner; drop them, so freeing it still
            # joins the new pool at once.
            error.__traceback__ = None
            self.close()
            return self._mine_on_pool(plans, tasks, workers)

    def _mine_on_pool(
        self, plans: List[_StreamPlan], tasks: List[_ChunkTask], workers: int
    ) -> Tuple[List[SchedulingEvent], MiningDiagnostics]:
        """Scan the chunks on the kept pool, starting one if needed."""
        pool = self._pool
        if pool is None or self._pool_workers != workers:
            self.close()
            pool = ProcessPoolExecutor(max_workers=workers)
            self._pool, self._pool_workers = pool, workers
            self._shutdown_pool = weakref.finalize(self, pool.shutdown)
        chunksize = max(1, len(tasks) // (4 * workers))
        # Executor.map preserves input order: the merge is deterministic
        # no matter which worker finishes first, and it consumes results
        # lazily — the parent stitches chunk N while workers scan N+1.
        scans = _pool_map(pool, _mine_chunk_task, tasks, chunksize=chunksize)
        return _merge_plans(plans, scans)


def _mine_store(store: LogStore) -> Tuple[List[SchedulingEvent], MiningDiagnostics]:
    """Mine an in-memory store: one record scan per stream, same merge.

    Scans are produced lazily, so only one stream's event tuples are
    alive beside the rehydrated events at any time.
    """
    ledgers = store.stream_diagnostics
    plans: List[_StreamPlan] = []
    for daemon in store.daemons:
        base = ledgers.get(daemon)
        segments = 1 if base is None else base.segments
        plans.append((daemon, _gate_kind(daemon), segments, 1))
    scans = (
        _scan_records(daemon, gate, store.records(daemon), ledgers.get(daemon))
        for daemon, gate, _segments, _count in plans
    )
    return _merge_plans(plans, scans)


def _record_event(
    daemon: str,
    gate: Optional[str],
    stream_app: Optional[str],
    ts: float,
    cls: str,
    message: str,
) -> Optional[tuple]:
    """The compact event tuple one parsed record yields, or None.

    The per-record classification both scans share: :func:`_scan_chunk`
    for every parsed line that is not quiet, :func:`_scan_records` for
    every record of a store.  The tuple layout is the scans' —
    ``(kind_value, ts, app_id, container_id, source_class)``.
    ``stream_app`` is the application of a container stream (the
    default owner of its driver lines).  ``kind._value_`` is the kind's
    value without a call of the enum's ``value`` property.
    """
    if gate == "container":
        hit = msg.classify_container_line(message)
        if hit is None:
            return None
        kind, line_app = hit
        return (kind._value_, ts, line_app or stream_app, daemon, cls)
    if gate == "rm":
        if message.startswith(msg.RM_APP_LINE_PREFIX) and cls.endswith("RMAppImpl"):
            hit = msg.classify_rm_app_line(message)
            if hit is not None:
                return (hit[0]._value_, ts, hit[1], None, "")
            return None
        if not (
            message.startswith(msg.RM_CONTAINER_LINE_PREFIX)
            and cls.endswith("RMContainerImpl")
        ):
            return None
        hit = msg.classify_rm_container_line(message)
    elif gate == "nm":
        if not (
            message.startswith(msg.NM_CONTAINER_LINE_PREFIX)
            and cls.endswith("ContainerImpl")
        ):
            return None
        hit = msg.classify_nm_container_line(message)
    else:
        return None
    if hit is None:
        return None
    kind, container_id = hit
    return (kind._value_, ts, msg.app_id_of_container(container_id), container_id, "")


def _scan_records(
    daemon: str,
    gate: Optional[str],
    records: Sequence[LogRecord],
    base: Optional[StreamDiagnostics] = None,
) -> Tuple[List[tuple], Tuple[int, ...], Optional[tuple], Optional[tuple]]:
    """One store stream as a single :func:`_scan_chunk`-shaped scan.

    Events are every record's :func:`_record_event` in order (the
    accumulator keeps first occurrences), and the duplicate /
    out-of-order ledger is the chunk scan's :func:`_ledger`.  The
    reader-side counters come from ``base`` — what
    :meth:`LogStore.load` or :meth:`LogStore.from_lines` tolerated
    reading the stream — or, for records logged in memory (well-formed
    by construction), count one parsed line per record.
    """
    stream_app = msg.app_id_of_container(daemon) if gate == "container" else None
    events: List[tuple] = []
    emit = events.append
    for record in records:
        event = _record_event(
            daemon, gate, stream_app, record.timestamp, record.cls, record.message
        )
        if event is not None:
            emit(event)
    times = np.array([record.timestamp for record in records], dtype=float)
    dups, ooo = _ledger(times, records.__getitem__)
    if base is None:
        counters = (len(records), len(records), 0, 0, 0, dups, ooo)
    else:
        counters = (
            base.lines_total,
            base.records_parsed,
            base.dropped_garbled,
            base.dropped_bad_timestamp,
            base.encoding_replacements,
            dups,
            ooo,
        )
    if not records:
        return events, counters, None, None
    first, last = records[0], records[-1]
    return (
        events,
        counters,
        (first.timestamp, first.level, first.cls, first.message),
        (last.timestamp, last.level, last.cls, last.message),
    )


def _ledger(times: np.ndarray, key: Callable[[int], object]) -> Tuple[int, int]:
    """``(duplicate_records, out_of_order)`` of parsed records in log order.

    ``times`` holds their timestamps and ``key(i)`` the ``i``-th one's
    identity.  A record earlier than the one before it is out of order,
    one equal to it a duplicate.  Only a record that ties the previous
    timestamp is compared field by field, so only tied keys are read.
    """
    before, after = times[:-1], times[1:]
    ties = (after == before).nonzero()[0].tolist()
    dups = sum(map(operator.eq, map(key, ties), map(key, [i + 1 for i in ties])))
    return dups, int(np.count_nonzero(after < before))


def _line_kinds(buf: bytes, gate: Optional[str]):
    """``(view, starts, ends, quiet, clean)``: the lines of ``buf`` by kind.

    ``view`` is ``buf`` as a numpy ``uint8`` array; ``starts`` and
    ``ends`` bound each ``\\n``-terminated line (the terminator
    excluded, an unterminated last line included); ``clean`` marks the
    ASCII lines with :data:`CLEAN_LINE_HEAD` at their start, and
    ``quiet`` the clean lines that cannot yield an event under ``gate``.
    """
    view = np.frombuffer(buf, dtype=np.uint8)
    # Block by block, so the newline mask stays small beside the chunk.
    ends = [np.zeros(0, dtype=np.intp)]
    for at in range(0, len(view), _NEWLINE_BLOCK):
        ends.append(np.flatnonzero(view[at : at + _NEWLINE_BLOCK] == 0x0A) + at)
    if buf and not buf.endswith(b"\n"):
        ends.append(np.array([len(buf)]))  # the unterminated last line
    ends = np.concatenate(ends)
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1
    quiet = np.zeros(len(ends), dtype=bool)
    for run in _QUIET_RUN_RE[gate].finditer(buf):
        lo, hi = starts.searchsorted(run.span())
        quiet[lo:hi] = True
    clean = quiet.copy()
    declined = np.flatnonzero(~quiet)
    head = _CLEAN_HEAD_RE.match
    clean[declined] = [head(buf, at) is not None for at in starts[declined].tolist()]
    if not buf.isascii():
        # ``.`` matched the non-ASCII bytes; their lines are not clean.
        unclean = starts.searchsorted(np.flatnonzero(view >= 0x80), "right") - 1
        quiet[unclean] = clean[unclean] = False
    return view, starts, ends, quiet, clean


def _scan_chunk(
    daemon: str, gate: Optional[str], buf: bytes
) -> Tuple[List[tuple], Tuple[int, ...], Optional[tuple], Optional[tuple]]:
    """Classify one byte chunk in bulk: its events, ledger and end records.

    Returns ``(events, counters, first_key, last_key)``: *events* are
    compact ``(kind_value, ts, app_id, container_id, source_class)``
    tuples in line order; *counters* is ``(lines_total, records_parsed,
    dropped_garbled, dropped_bad_timestamp, encoding_replacements,
    duplicate_records, out_of_order)``; the keys are ``(ts, level, cls,
    message)`` of the chunk's first and last parsed record (None when
    nothing parsed), which :class:`StreamEventAccumulator` uses to
    stitch the duplicate/out-of-order ledger across chunk boundaries.

    One reader per line kind (:func:`_line_kinds`).  A quiet line costs
    no Python work unless it ties the previous record's timestamp; a
    clean candidate is read at its offsets (:func:`clean_fields`); only
    an unclean line goes through :meth:`LogRecord.classify_parse`, the
    reference reader, which parses a clean line to the same record, so
    every counter and every event agrees with it bit for bit.
    """
    view, starts, ends, quiet, clean = _line_kinds(buf, gate)
    stamps = np.zeros(len(ends))
    stamps[clean] = clean_timestamps(view, starts[clean])
    parsed = clean.copy()
    keys = {}  # line -> (ts, level, cls, message), read once per parsed line

    # -- every line that might yield an event, in line order -------------
    stream_app = msg.app_id_of_container(daemon) if gate == "container" else None
    events: List[tuple] = []
    garbled = bad_ts = replacements = 0
    declined = np.flatnonzero(~quiet)
    columns = (starts, ends, clean, stamps)
    rows = zip(declined.tolist(), *(column[declined].tolist() for column in columns))
    for line, start, end, is_clean, ts in rows:
        if is_clean:
            level, cls, message = clean_fields(buf, start, end)
        else:
            text = buf[start:end].decode("utf-8", errors="replace")
            if "\ufffd" in text:
                replacements += 1
            record, outcome = LogRecord.classify_parse(text)
            if record is None:
                if outcome == PARSE_BAD_TIMESTAMP:
                    bad_ts += 1
                else:
                    garbled += 1
                continue
            ts, level = record.timestamp, record.level
            cls, message = record.cls, record.message
            parsed[line] = True
            stamps[line] = ts
        keys[line] = (ts, level, cls, message)
        event = _record_event(daemon, gate, stream_app, ts, cls, message)
        if event is not None:
            events.append(event)

    # -- the ledger: each parsed record against the previous one ----------
    order = np.flatnonzero(parsed)

    def key(i: int) -> tuple:
        """``(ts, level, cls, message)`` of the ``i``-th parsed line."""
        line = int(order[i])
        if line not in keys:  # a quiet line
            fields = clean_fields(buf, int(starts[line]), int(ends[line]))
            keys[line] = (float(stamps[line]), *fields)
        return keys[line]

    dups, ooo = _ledger(stamps[order], key)
    counters = (len(ends), len(order), garbled, bad_ts, replacements, dups, ooo)
    if not len(order):
        return events, counters, None, None
    return events, counters, key(0), key(-1)


def _mine_chunk_task(task: _ChunkTask) -> tuple:
    """Worker entry point: read and scan one chunk.

    Module-level for pickling.  The scan holds only lists, tuples,
    strings and numbers, so ``Executor.map`` pickles it back to the
    parent as is.
    """
    daemon, gate, path, start, end = task
    return _scan_chunk(daemon, gate, read_chunk(path, start, end))


class StreamEventAccumulator:
    """Stitches one stream's scans back into stream semantics.

    Scans must be absorbed in (segment, offset) order, so
    concatenating their event tuples reproduces log order.  Three
    pieces of per-stream state span scan boundaries and are
    reconstructed here exactly as one scan of the whole stream would
    compute them:

    * the duplicate / out-of-order ledger compares each scan's first
      parsed record against the previous scan's last — scans with no
      parsed record are transparent, like rotation segments full of
      noise;
    * FIRST_TASK / MR_TASK_DONE keep only their first occurrence in
      the whole stream — scans pass every occurrence, so this is the
      one first-occurrence filter;
    * the positional INSTANCE_FIRST_LOG is synthesized from the first
      parsed record of the stream (container streams only).

    The accumulator is the chunk-arrival-schedule-independence contract
    in one object: the batch fast path folds a whole directory through
    it at once, an in-memory store folds one record scan per stream,
    and :mod:`repro.live` folds the *same* bytes as the batch path one
    tail-poll at a time — all end in identical state, which is why a
    drained live session's report is byte-identical to batch mining.
    Its state is plain data (:meth:`to_state` / :meth:`from_state`) so
    a live session can checkpoint mid-stream and resume.
    """

    __slots__ = (
        "daemon",
        "gate",
        "segments",
        "compact",
        "first_key",
        "previous_last",
        "saw_task",
        "saw_mr_done",
        "counters",
    )

    def __init__(self, daemon: str, gate: Optional[str], segments: int = 1):
        self.daemon = daemon
        self.gate = gate
        self.segments = segments
        #: Deduplicated compact event tuples, in stream order.
        self.compact: List[tuple] = []
        self.first_key: Optional[tuple] = None
        self.previous_last: Optional[tuple] = None
        self.saw_task = False
        self.saw_mr_done = False
        #: (lines_total, records_parsed, dropped_garbled,
        #: dropped_bad_timestamp, encoding_replacements,
        #: duplicate_records, out_of_order) — same layout as the
        #: counter tuple :func:`_scan_chunk` returns.
        self.counters = [0, 0, 0, 0, 0, 0, 0]

    def absorb(self, scan: tuple) -> List[tuple]:
        """Fold one :func:`_scan_chunk` result in; the accepted tuples.

        Returns the compact event tuples that survived stream-level
        deduplication (so an incremental caller can track which
        applications just gained events) — the batch merge ignores it.
        """
        chunk_events, counters, chunk_first, chunk_last = scan
        for i, value in enumerate(counters):
            self.counters[i] += value
        if chunk_first is not None:
            if self.previous_last is not None:
                if chunk_first == self.previous_last:
                    self.counters[5] += 1  # boundary-straddling duplicate
                elif chunk_first[0] < self.previous_last[0]:
                    self.counters[6] += 1  # boundary-straddling reorder
            if self.first_key is None:
                self.first_key = chunk_first
            self.previous_last = chunk_last
        accepted: List[tuple] = []
        for event in chunk_events:
            kind_value = event[0]
            if kind_value == _FIRST_TASK_VALUE:
                if self.saw_task:
                    continue
                self.saw_task = True
            elif kind_value == _MR_TASK_DONE_VALUE:
                if self.saw_mr_done:
                    continue
                self.saw_mr_done = True
            accepted.append(event)
        self.compact.extend(accepted)
        return accepted

    def diagnostics(self) -> StreamDiagnostics:
        """A fresh ledger snapshot of everything absorbed so far."""
        lines_total, parsed, garbled, bad_ts, replacements, dups, ooo = self.counters
        return StreamDiagnostics(
            daemon=self.daemon,
            segments=max(1, self.segments),
            lines_total=lines_total,
            records_parsed=parsed,
            dropped_garbled=garbled,
            dropped_bad_timestamp=bad_ts,
            encoding_replacements=replacements,
            duplicate_records=dups,
            out_of_order=ooo,
            recognized=self.gate is not None,
        )

    def events(self) -> List[SchedulingEvent]:
        """Rehydrate the stream's events, INSTANCE_FIRST_LOG included.

        IDs are interned: reports built from the same logs (a live
        session's revisions, repeated analyses) share them.
        """
        events: List[SchedulingEvent] = []
        if self.gate == "container" and self.first_key is not None:
            ts, _level, cls, message = self.first_key
            events.append(
                SchedulingEvent(
                    EventKind.INSTANCE_FIRST_LOG,
                    ts,
                    sys.intern(msg.app_id_of_container(self.daemon)),
                    self.daemon,
                    self.daemon,
                    source_class=cls,
                    detail=message,
                )
            )
        for kind_value, ts, app_id, container_id, source_class in self.compact:
            events.append(
                SchedulingEvent(
                    _KIND_BY_VALUE[kind_value],
                    ts,
                    app_id and sys.intern(app_id),
                    container_id and sys.intern(container_id),
                    self.daemon,
                    source_class=source_class,
                )
            )
        return events

    # -- checkpointing -----------------------------------------------------
    def to_state(self) -> dict:
        """JSON-serializable snapshot of the whole stitching state."""
        return {
            "daemon": self.daemon,
            "gate": self.gate,
            "segments": self.segments,
            "compact": [list(event) for event in self.compact],
            "first_key": list(self.first_key) if self.first_key else None,
            "previous_last": (
                list(self.previous_last) if self.previous_last else None
            ),
            "saw_task": self.saw_task,
            "saw_mr_done": self.saw_mr_done,
            "counters": list(self.counters),
        }

    @classmethod
    def from_state(cls, state: dict) -> "StreamEventAccumulator":
        acc = cls(state["daemon"], state["gate"], segments=state["segments"])
        acc.compact = [tuple(event) for event in state["compact"]]
        acc.first_key = tuple(state["first_key"]) if state["first_key"] else None
        acc.previous_last = (
            tuple(state["previous_last"]) if state["previous_last"] else None
        )
        acc.saw_task = state["saw_task"]
        acc.saw_mr_done = state["saw_mr_done"]
        acc.counters = list(state["counters"])
        return acc


def _merge_plans(
    plans: List[_StreamPlan], scans: Iterable[tuple]
) -> Tuple[List[SchedulingEvent], MiningDiagnostics]:
    """The deterministic merge, consuming scans as a stream.

    ``scans`` yields each plan's scans in plan order (Executor.map
    preserves submission order, so this holds for the parallel path
    too).  Consuming lazily means the parent absorbs and rehydrates
    chunk N while later chunks are still being scanned — merge work
    overlaps scan work instead of waiting behind a fully materialized
    result list.
    """
    scans = iter(scans)
    events: List[SchedulingEvent] = []
    diagnostics = MiningDiagnostics()
    for daemon, gate, segments, count in plans:
        acc = StreamEventAccumulator(daemon, gate, segments=segments)
        for _ in range(count):
            acc.absorb(next(scans))
        events.extend(acc.events())
        diagnostics.streams[daemon] = acc.diagnostics()
    return events, diagnostics


def available_cpus() -> int:
    """CPUs actually usable by this process (respects affinity masks)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def resolve_jobs(
    jobs: Union[int, str], source: Union[LogStore, str, Path]
) -> int:
    """Resolve a jobs request (a count or :data:`AUTO_JOBS`) for ``source``.

    A :class:`LogStore` always resolves to 1: its records already live
    in this process, and shipping them to workers measured 4-6x slower
    than mining them in place.

    For a directory, an explicit count (the CLI's ``--jobs N``) is
    used as is, and ``auto`` sizes the corpus by its bytes — no line
    scan — for :func:`_auto_jobs`.
    """
    if isinstance(source, LogStore):
        return 1
    if jobs != AUTO_JOBS:
        return int(jobs)
    return _auto_jobs(
        sum(
            path.stat().st_size
            for _daemon, paths in stream_segments(source)
            for path in paths
        )
    )


def _auto_jobs(total_bytes: int) -> int:
    """The ``auto`` worker count for a directory of ``total_bytes``.

    Serial unless both the machine and the corpus can profit from
    workers: on a single usable CPU, workers only add pickle traffic,
    and below :data:`AUTO_SERIAL_THRESHOLD_LINES` (estimated through the
    observed mean line length) the pool spin-up outweighs any speedup.
    """
    cpus = available_cpus()
    if cpus <= 1 or total_bytes // _AUTO_BYTES_PER_LINE < AUTO_SERIAL_THRESHOLD_LINES:
        return 1
    return min(cpus, _AUTO_MAX_JOBS)
