"""Log records and the log4j timestamp format.

Timestamps are simulated seconds since an arbitrary epoch; rendering
converts them to the log4j default layout ``yyyy-MM-dd HH:mm:ss,SSS``
with millisecond precision — matching the paper's statement that "each
timestamp has a precision of 1 millisecond, which is also the precision
of SDchecker".  A record is stamped with :func:`millisecond_stamp` when
it is logged, so its timestamp is already the one parsing its rendered
line gives back: a log held in memory and the same log read off disk
carry identical timestamps.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

__all__ = [
    "LogRecord",
    "TimestampMemo",
    "classify_head_bytes",
    "classify_ts_prefix",
    "format_timestamp",
    "millisecond_stamp",
    "parse_timestamp",
    "EPOCH_LABEL",
    "PARSE_OK",
    "PARSE_GARBLED",
    "PARSE_BAD_TIMESTAMP",
    "TS_PREFIX_LEN",
    "TS_GARBLED",
    "TS_FOREIGN",
]

#: Outcomes of :meth:`LogRecord.classify_parse`.
PARSE_OK = "ok"
#: The line does not have the log4j shape at all (stack trace, wrapped
#: output, truncation, garbled bytes).
PARSE_GARBLED = "garbled"
#: The line has the log4j shape but its timestamp cannot be interpreted
#: (format drift — e.g. a date outside the simulated epoch month).
PARSE_BAD_TIMESTAMP = "bad-timestamp"

#: Rendered date for simulation time zero.  Any fixed date works; we pick
#: one in the paper's submission year for flavour.
EPOCH_LABEL = "2018-01-12"

#: Seconds in a day, used to roll the rendered clock past midnight.
_DAY = 86_400

_LINE_RE = re.compile(
    r"^(?P<date>\d{4}-\d{2}-\d{2}) "
    r"(?P<time>\d{2}:\d{2}:\d{2}),(?P<millis>\d{3}) "
    r"(?P<level>[A-Z]+) +"
    r"(?P<cls>[\w.$\-]+): (?P<message>.*)$"
)

# -- byte-oriented fast-path primitives ---------------------------------------
#
# The directory-mining fast path (repro.core.parser) classifies raw
# ``bytes`` lines before any str decoding or LogRecord construction.
# The contract is *exactness*: for any line these helpers either decide
# precisely what :meth:`LogRecord.classify_parse` would decide, or they
# refuse (TS_FOREIGN / a failed shape probe) and the caller falls back
# to ``classify_parse`` on the decoded line.  They therefore only ever
# handle pure-ASCII lines, where byte offsets equal str offsets and the
# ASCII-only byte patterns agree with the unicode-aware str patterns.

#: Length of the ``yyyy-MM-dd HH:mm:ss`` prefix the fast path memoizes.
#: Millisecond digits are excluded on purpose: lines emitted within the
#: same second share a memo entry, so a ticking corpus hits the cache
#: ~1000x more often than a full-timestamp key would.
TS_PREFIX_LEN = 19

#: The 19-byte prefix cannot open a log4j line at all.
TS_GARBLED = object()
#: The prefix is timestamp-shaped but outside the simulated epoch month
#: (format drift).  Whether the line counts as bad-timestamp or garbled
#: then depends on the rest of its shape — callers must fall back to
#: :meth:`LogRecord.classify_parse`.
TS_FOREIGN = object()

_TS_PREFIX_RE_B = re.compile(rb"\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2}")
#: ``LEVEL  emitting.Cls`` between the timestamp and the ``": "``
#: delimiter.  ``\w`` in a bytes pattern is ASCII-only, which is exact
#: here because the fast path never feeds non-ASCII lines through.
_HEAD_RE_B = re.compile(rb"[A-Z]+ +[\w.$\-]+")

_EPOCH_YM_B = EPOCH_LABEL[:7].encode("ascii")


def classify_ts_prefix(prefix: bytes):
    """Classify a 19-byte ``yyyy-MM-dd HH:mm:ss`` candidate prefix.

    Returns the simulated seconds as a ``float`` (the value
    :func:`parse_timestamp` would produce for zero milliseconds), or
    :data:`TS_GARBLED` / :data:`TS_FOREIGN` as described above.
    """
    if len(prefix) != TS_PREFIX_LEN or _TS_PREFIX_RE_B.fullmatch(prefix) is None:
        return TS_GARBLED
    if prefix[:7] != _EPOCH_YM_B:
        return TS_FOREIGN
    text = prefix.decode("ascii")
    return parse_timestamp(text[:10], text[11:], "000")


def classify_head_bytes(head: bytes):
    """``(level, cls)`` for a ``LEVEL  Cls`` byte span, or None.

    ``head`` is the region between the timestamp field and the first
    ``": "`` delimiter.  A None return is definitive for ASCII lines:
    the full line cannot match the log4j layout, because the level/class
    region admits neither ``':'`` nor any character outside the strict
    pattern, so no later ``": "`` can rescue the match.
    """
    if _HEAD_RE_B.fullmatch(head) is None:
        return None
    text = head.decode("ascii")
    level, _, rest = text.partition(" ")
    return level, rest.lstrip(" ")


class TimestampMemo:
    """Memoized timestamp-prefix classification for one mining run.

    A bounded dict from 19-byte prefixes to :func:`classify_ts_prefix`
    results.  Log lines arrive in near-monotonic bursts, so consecutive
    lines overwhelmingly share a one-second prefix; the cap only exists
    so hostile input (every line a distinct garbled prefix) cannot grow
    the memo without bound — on overflow the cache simply restarts.

    :attr:`cache` is deliberately public: a hot loop binds
    ``cache.get`` locally and only pays the :meth:`miss` call on the
    rare prefix it has not seen this second.
    """

    __slots__ = ("cache", "_cap")

    def __init__(self, cap: int = 1 << 16):
        #: The raw prefix -> result mapping, exposed for inlined reads.
        self.cache: dict = {}
        self._cap = cap

    def lookup(self, prefix: bytes):
        """Cached :func:`classify_ts_prefix` of ``prefix``."""
        hit = self.cache.get(prefix)
        if hit is None:
            hit = self.miss(prefix)
        return hit

    def miss(self, prefix: bytes):
        """Classify, remember, and return an uncached ``prefix``."""
        if len(self.cache) >= self._cap:
            self.cache.clear()
        hit = self.cache[prefix] = classify_ts_prefix(prefix)
        return hit


def format_timestamp(sim_seconds: float) -> str:
    """Render simulated seconds as ``yyyy-MM-dd HH:mm:ss,SSS``.

    The simulated clock starts at midnight of :data:`EPOCH_LABEL`; runs
    longer than 24 h roll the day-of-month forward (sufficient for the
    month-long traces these experiments never reach).
    """
    if sim_seconds < 0:
        raise ValueError(f"negative simulation time {sim_seconds!r}")
    millis_total = int(round(sim_seconds * 1000.0))
    days, rem = divmod(millis_total, _DAY * 1000)
    secs, millis = divmod(rem, 1000)
    hours, rem_s = divmod(secs, 3600)
    minutes, seconds = divmod(rem_s, 60)
    year, month, day = (int(x) for x in EPOCH_LABEL.split("-"))
    return (
        f"{year:04d}-{month:02d}-{day + days:02d} "
        f"{hours:02d}:{minutes:02d}:{seconds:02d},{millis:03d}"
    )


def millisecond_stamp(sim_seconds: float) -> float:
    """``sim_seconds`` at the millisecond its rendered line shows.

    Equal, bit for bit, to :func:`parse_timestamp` of the
    :func:`format_timestamp` text (the same whole seconds plus the same
    ``millis / 1000.0``), and it renders to that same text again.
    """
    secs, millis = divmod(int(round(sim_seconds * 1000.0)), 1000)
    return secs + millis / 1000.0


def parse_timestamp(date: str, time: str, millis: str) -> float:
    """Invert :func:`format_timestamp` back to simulated seconds."""
    year, month, day = (int(x) for x in date.split("-"))
    base_year, base_month, base_day = (int(x) for x in EPOCH_LABEL.split("-"))
    if (year, month) != (base_year, base_month):
        raise ValueError(f"timestamp {date} outside the simulated epoch month")
    days = day - base_day
    hours, minutes, seconds = (int(x) for x in time.split(":"))
    return days * _DAY + hours * 3600 + minutes * 60 + seconds + int(millis) / 1000.0


@dataclass(frozen=True, slots=True)
class LogRecord:
    """One log line: (timestamp, level, emitting class, message)."""

    timestamp: float
    cls: str
    message: str
    level: str = field(default="INFO")

    def render(self) -> str:
        """The log4j text line for this record."""
        return f"{format_timestamp(self.timestamp)} {self.level} {self.cls}: {self.message}"

    @classmethod
    def classify_parse(cls, line: str) -> "tuple[LogRecord | None, str]":
        """Parse one line, reporting *why* when it cannot be parsed.

        Returns ``(record, PARSE_OK)`` for a well-formed line, and
        ``(None, PARSE_GARBLED | PARSE_BAD_TIMESTAMP)`` otherwise.  The
        distinction feeds :class:`~repro.logsys.diagnostics.StreamDiagnostics`:
        garbled lines are expected noise (stack traces), bad timestamps
        signal layout drift a user should know about.  Never raises.
        """
        m = _LINE_RE.match(line.rstrip("\n"))
        if m is None:
            return None, PARSE_GARBLED
        try:
            ts = parse_timestamp(m["date"], m["time"], m["millis"])
        except ValueError:
            return None, PARSE_BAD_TIMESTAMP
        return (
            cls(timestamp=ts, cls=m["cls"], message=m["message"], level=m["level"]),
            PARSE_OK,
        )

    @classmethod
    def parse(cls, line: str) -> "LogRecord":
        """Parse a rendered log4j line; raises ValueError on mismatch."""
        record, outcome = cls.classify_parse(line)
        if record is None:
            raise ValueError(f"unparseable log line ({outcome}): {line!r}")
        return record

    @classmethod
    def try_parse(cls, line: str) -> "LogRecord | None":
        """Parse, returning None for non-log lines (stack traces etc.)."""
        return cls.classify_parse(line)[0]
