"""The corruption catalog: composable, seeded log-directory faults.

Each :class:`Corruption` rewrites the files of one dumped log directory
in place, drawing every random decision from a named, seeded
:class:`~repro.simul.distributions.RandomSource` substream — the same
(seed, corruption) pair always produces byte-identical corrupted
corpora, which is what makes metamorphic testing and the certification
sweep reproducible.

Catalog entries and what they model:

====================  ==========  ========================================
name                  identity?   real-world cause
====================  ==========  ========================================
``duplicate-lines``   yes         at-least-once log shippers re-delivering
``inject-noise``      yes         stack traces / non-Table-I chatter
``rotation-split``    yes         log4j RollingFileAppender rotation
``truncate-final``    no          crash mid-write (partial last record)
``truncate-tail``     no          crash / disk-full losing the log tail
``reorder-jitter``    no          async appenders swapping nearby lines
``invalid-utf8``      no          bit rot, mixed encodings
``delete-daemon``     no          a daemon's log never collected
``format-drift``      no          log4j layout changed mid-fleet
====================  ==========  ========================================

"identity" means the corrupted corpus must produce a byte-identical
analysis report; every corruption, identity or not, must leave
``SDChecker.analyze`` crash-free with all losses named in the
diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple, Type

from repro.core.messages import CONTAINER_ID_RE
from repro.logsys.store import stream_segments
from repro.simul.distributions import RandomSource

__all__ = [
    "CATALOG",
    "Corruption",
    "CorruptionReceipt",
    "degradation_names",
    "identity_names",
    "make_corruption",
]


@dataclass
class CorruptionReceipt:
    """What one corruption actually did — the test oracle's evidence."""

    corruption: str
    #: Daemon names whose streams were modified or removed.
    touched: List[str] = field(default_factory=list)
    #: Human-readable notes, one per mutation.
    details: List[str] = field(default_factory=list)


def _read_lines(path: Path) -> Tuple[List[bytes], bool]:
    """(lines without terminators, had-trailing-newline) of one file."""
    data = path.read_bytes()
    if not data:
        return [], True
    complete = data.endswith(b"\n")
    lines = data.split(b"\n")
    if complete:
        lines.pop()  # the split artifact after the final newline
    return lines, complete


def _write_lines(path: Path, lines: List[bytes], complete: bool = True) -> None:
    body = b"\n".join(lines)
    if complete and lines:
        body += b"\n"
    path.write_bytes(body)


def _is_container_stream(daemon: str) -> bool:
    return CONTAINER_ID_RE.match(daemon) is not None


class Corruption:
    """Base class: one seeded, in-place log-directory rewrite."""

    name = "corruption"
    #: True when the mining pipeline must absorb this corruption with a
    #: byte-identical report; False when graceful degradation (no crash,
    #: losses counted) is the contract.
    identity_preserving = False

    def apply(self, logdir: Path, rng: RandomSource) -> CorruptionReceipt:
        """Corrupt ``logdir`` in place; returns the receipt of changes."""
        raise NotImplementedError

    def _receipt(self) -> CorruptionReceipt:
        return CorruptionReceipt(corruption=self.name)


class DuplicateLines(Corruption):
    """Re-deliver lines verbatim, as an at-least-once shipper would.

    Each duplicate is inserted immediately after its original, so the
    relative order of *distinct* lines — and therefore the positional
    FIRST_LOG / first-task semantics — is untouched.
    """

    name = "duplicate-lines"
    identity_preserving = True

    def __init__(self, rate: float = 0.08):
        self.rate = rate

    def apply(self, logdir: Path, rng: RandomSource) -> CorruptionReceipt:
        receipt = self._receipt()
        for daemon, segments in stream_segments(logdir):
            for path, _inode, _size in segments:
                lines, complete = _read_lines(path)
                out: List[bytes] = []
                duplicated = 0
                for line in lines:
                    out.append(line)
                    if line and rng.uniform() < self.rate:
                        out.append(line)
                        duplicated += 1
                if duplicated:
                    _write_lines(path, out, complete)
                    receipt.touched.append(daemon)
                    receipt.details.append(
                        f"{path.name}: duplicated {duplicated} line(s)"
                    )
        return receipt


#: Multi-line Java stack trace, as an appender interleaves it (no
#: log4j header on the continuation lines — all unparseable).
_STACK_TRACE = [
    b"java.io.IOException: Connection reset by peer",
    b"\tat sun.nio.ch.FileDispatcherImpl.read0(Native Method)",
    b"\tat org.apache.hadoop.ipc.Server$Connection.readAndProcess(Server.java:1849)",
    b"\tat java.lang.Thread.run(Thread.java:748)",
    b"Caused by: java.nio.channels.ClosedChannelException",
    b"\t... 3 more",
]

#: Well-formed log4j lines that match no Table I classifier: the miner
#: must parse and then ignore them without side effects.
_PARSEABLE_NOISE = [
    b"2018-01-12 00:00:00,000 INFO org.apache.hadoop.util.GcTimeMonitor: GC pause of 12ms observed",
    b"2018-01-12 00:00:00,000 WARN org.apache.hadoop.hdfs.DFSClient: Slow ReadProcessor read fields took 301ms",
    b"2018-01-12 00:00:00,000 INFO org.apache.spark.storage.BlockManagerInfo: Added broadcast_1_piece0 in memory",
]

#: Wrapped console output with no log4j shape at all.
_WRAPPED_OUTPUT = [
    b"    | stage 3 -> partition 12 on host node02",
    b"    +--- Exchange hashpartitioning(l_orderkey, 200)",
]


class InjectNoise(Corruption):
    """Interleave stack traces and non-Table-I chatter between lines.

    Noise is only ever inserted *after* an existing line, never at the
    head of a stream: the first line of a container log is a positional
    event (messages 9/13), and real noise appears once the process is
    already logging anyway.
    """

    name = "inject-noise"
    identity_preserving = True

    def __init__(self, rate: float = 0.06):
        self.rate = rate
        self._blocks = [_STACK_TRACE, _PARSEABLE_NOISE[:1], _PARSEABLE_NOISE[1:], _WRAPPED_OUTPUT]

    def apply(self, logdir: Path, rng: RandomSource) -> CorruptionReceipt:
        receipt = self._receipt()
        for daemon, segments in stream_segments(logdir):
            for path, _inode, _size in segments:
                lines, complete = _read_lines(path)
                if not lines:
                    continue
                out: List[bytes] = []
                injected = 0
                for line in lines:
                    out.append(line)
                    if rng.uniform() < self.rate:
                        out.extend(rng.choice(self._blocks))
                        injected += 1
                if injected:
                    # A file whose last record was cut mid-line keeps its
                    # partial tail last: never append noise behind it.
                    if complete or out[-1] is lines[-1]:
                        _write_lines(path, out, complete)
                        receipt.touched.append(daemon)
                        receipt.details.append(
                            f"{path.name}: injected {injected} noise block(s)"
                        )
        return receipt


class RotationSplit(Corruption):
    """Split live ``<daemon>.log`` files into rotation segments.

    Produces the log4j RollingFileAppender layout — ``<daemon>.log.N``
    oldest through ``<daemon>.log.1``, then the live file — which the
    readers must merge back in chronological order.
    """

    name = "rotation-split"
    identity_preserving = True

    def __init__(self, max_segments: int = 3, rate: float = 0.6):
        self.max_segments = max_segments
        self.rate = rate

    def apply(self, logdir: Path, rng: RandomSource) -> CorruptionReceipt:
        receipt = self._receipt()
        for daemon, segments in stream_segments(logdir):
            if len(segments) > 1:
                continue  # already rotated
            path = segments[0].path
            lines, complete = _read_lines(path)
            if len(lines) < 2 or rng.uniform() >= self.rate:
                continue
            segments = min(self.max_segments, len(lines), 2 + rng.integers(0, 2))
            cuts = sorted(rng.sample(range(1, len(lines)), segments - 1))
            if not cuts:
                continue
            chunks: List[List[bytes]] = []
            start = 0
            for cut in cuts + [len(lines)]:
                chunks.append(lines[start:cut])
                start = cut
            # Oldest chunk gets the highest index; the newest stays live.
            for i, chunk in enumerate(chunks[:-1]):
                _write_lines(
                    logdir / f"{daemon}.log.{len(chunks) - 1 - i}", chunk, True
                )
            _write_lines(path, chunks[-1], complete)
            receipt.touched.append(daemon)
            receipt.details.append(
                f"{path.name}: split into {len(chunks)} segment(s)"
            )
        return receipt


class TruncateTail(Corruption):
    """Lose the tail of a stream: a crash or full disk ate the end.

    Removes up to ``max_lines`` final lines from a few streams and cuts
    the new final line mid-byte (leaving a partial record with no
    trailing newline).  Only the events that lived in the lost tail
    disappear; the affected applications must come back with those
    components explicitly missing.
    """

    name = "truncate-tail"
    identity_preserving = False

    def __init__(self, max_lines: int = 6, max_streams: int = 2, container_only: bool = False):
        self.max_lines = max_lines
        self.max_streams = max_streams
        self.container_only = container_only

    def apply(self, logdir: Path, rng: RandomSource) -> CorruptionReceipt:
        receipt = self._receipt()
        streams = [
            (daemon, segments)
            for daemon, segments in stream_segments(logdir)
            if not self.container_only or _is_container_stream(daemon)
        ]
        victims = [s for s in streams if _read_lines(s[1][-1].path)[0]]
        if not victims:
            return receipt
        chosen = rng.sample(victims, min(self.max_streams, len(victims)))
        for daemon, segments in sorted(chosen):
            path = segments[-1].path  # the live (newest) segment holds the tail
            lines, _complete = _read_lines(path)
            lost = min(rng.integers(0, self.max_lines + 1), len(lines) - 1)
            kept = lines[: len(lines) - lost]
            cut = b""
            if kept and self.max_lines >= 0:
                final = kept[-1]
                if len(final) > 1:
                    cut_at = 1 + rng.integers(0, len(final) - 1)
                    kept[-1] = final[:cut_at]
                    cut = final[cut_at:]
            _write_lines(path, kept, complete=not cut)
            receipt.touched.append(daemon)
            receipt.details.append(
                f"{path.name}: dropped {lost} tail line(s), cut final line"
            )
        return receipt


class TruncateFinalLine(TruncateTail):
    """Cut only the final line mid-byte: the classic crash-mid-write."""

    name = "truncate-final"

    def __init__(self, max_streams: int = 2, container_only: bool = False):
        super().__init__(
            max_lines=0, max_streams=max_streams, container_only=container_only
        )


class ReorderJitter(Corruption):
    """Swap nearby lines, as racing async appenders do under load."""

    name = "reorder-jitter"
    identity_preserving = False

    def __init__(self, rate: float = 0.05):
        self.rate = rate

    def apply(self, logdir: Path, rng: RandomSource) -> CorruptionReceipt:
        receipt = self._receipt()
        for daemon, segments in stream_segments(logdir):
            for path, _inode, _size in segments:
                lines, complete = _read_lines(path)
                swaps = 0
                i = 0
                while i < len(lines) - 1:
                    if rng.uniform() < self.rate:
                        lines[i], lines[i + 1] = lines[i + 1], lines[i]
                        swaps += 1
                        i += 2  # never un-swap what we just swapped
                    else:
                        i += 1
                if swaps:
                    _write_lines(path, lines, complete)
                    receipt.touched.append(daemon)
                    receipt.details.append(f"{path.name}: {swaps} adjacent swap(s)")
        return receipt


class InvalidBytes(Corruption):
    """Flip a few bytes per victim line into invalid UTF-8 sequences."""

    name = "invalid-utf8"
    identity_preserving = False

    #: Bytes that can never appear in well-formed UTF-8.
    _BAD = (b"\xfe", b"\xff", b"\xc0\xaf")

    def __init__(self, rate: float = 0.03):
        self.rate = rate

    def apply(self, logdir: Path, rng: RandomSource) -> CorruptionReceipt:
        receipt = self._receipt()
        for daemon, segments in stream_segments(logdir):
            for path, _inode, _size in segments:
                lines, complete = _read_lines(path)
                mangled = 0
                for i, line in enumerate(lines):
                    if not line or rng.uniform() >= self.rate:
                        continue
                    pos = rng.integers(0, len(line))
                    bad = rng.choice(self._BAD)
                    lines[i] = line[:pos] + bad + line[pos + 1 :]
                    mangled += 1
                if mangled:
                    _write_lines(path, lines, complete)
                    receipt.touched.append(daemon)
                    receipt.details.append(
                        f"{path.name}: invalid bytes in {mangled} line(s)"
                    )
        return receipt


class DeleteDaemon(Corruption):
    """Remove one daemon's files entirely: a log that was never collected."""

    name = "delete-daemon"
    identity_preserving = False

    def apply(self, logdir: Path, rng: RandomSource) -> CorruptionReceipt:
        receipt = self._receipt()
        streams = stream_segments(logdir)
        if len(streams) <= 1:
            return receipt  # never delete the only stream
        daemon, segments = rng.choice(streams)
        for segment in segments:
            segment.path.unlink()
        receipt.touched.append(daemon)
        receipt.details.append(f"removed {len(segments)} file(s) of {daemon}")
        return receipt


class FormatDrift(Corruption):
    """Drift the log4j layout of some lines, as config changes do.

    Three flavours, all observed in real fleets: an ISO-8601 ``T``
    date-time separator, a ``.`` millisecond separator, and a
    lower-cased level token (all three make the line unparseable), plus
    a month-shifted date that still *looks* like a timestamp but cannot
    be interpreted — the case the bad-timestamp counter exists for.
    """

    name = "format-drift"
    identity_preserving = False

    def __init__(self, rate: float = 0.08):
        self.rate = rate

    def _drift(self, line: bytes, rng: RandomSource) -> bytes:
        flavour = rng.integers(0, 4)
        if flavour == 0:  # ISO-8601 separator
            return line.replace(b" ", b"T", 1)
        if flavour == 1:  # dot milliseconds
            return line.replace(b",", b".", 1)
        if flavour == 2:  # lower-cased level
            head, sep, tail = line.partition(b" INFO ")
            if sep:
                return head + b" info " + tail
            return line.replace(b" WARN ", b" warn ", 1)
        # month shift: shape survives, the timestamp itself is bogus
        return line.replace(b"2018-01-", b"2018-02-", 1)

    def apply(self, logdir: Path, rng: RandomSource) -> CorruptionReceipt:
        receipt = self._receipt()
        for daemon, segments in stream_segments(logdir):
            for path, _inode, _size in segments:
                lines, complete = _read_lines(path)
                drifted = 0
                for i, line in enumerate(lines):
                    if not line.startswith(b"2018-") or rng.uniform() >= self.rate:
                        continue
                    lines[i] = self._drift(line, rng)
                    drifted += 1
                if drifted:
                    _write_lines(path, lines, complete)
                    receipt.touched.append(daemon)
                    receipt.details.append(
                        f"{path.name}: drifted {drifted} timestamp(s)"
                    )
        return receipt


#: The full catalog, keyed by CLI-facing name.
CATALOG: Dict[str, Type[Corruption]] = {
    cls.name: cls
    for cls in (
        DuplicateLines,
        InjectNoise,
        RotationSplit,
        TruncateFinalLine,
        TruncateTail,
        ReorderJitter,
        InvalidBytes,
        DeleteDaemon,
        FormatDrift,
    )
}


def make_corruption(name: str, **kwargs) -> Corruption:
    """Instantiate a catalog corruption by name."""
    if name not in CATALOG:
        raise KeyError(f"unknown corruption {name!r} (have {sorted(CATALOG)})")
    return CATALOG[name](**kwargs)


def identity_names() -> List[str]:
    """Corruptions the pipeline must absorb with byte-identical reports."""
    return [n for n, cls in CATALOG.items() if cls.identity_preserving]


def degradation_names() -> List[str]:
    """Corruptions the pipeline must survive with accounted losses."""
    return [n for n, cls in CATALOG.items() if not cls.identity_preserving]
