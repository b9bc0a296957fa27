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
    "clean_fields",
    "clean_timestamps",
    "format_timestamp",
    "millisecond_stamp",
    "parse_timestamp",
    "CLEAN_LINE_HEAD",
    "EPOCH_LABEL",
    "PARSE_OK",
    "PARSE_GARBLED",
    "PARSE_BAD_TIMESTAMP",
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

# -- clean lines: the bulk directory scan's share of the grammar ----------
#
# The directory miner (repro.core.parser) scans whole byte chunks.  It
# finds the *clean* lines by :data:`CLEAN_LINE_HEAD` and reads their
# timestamps and fields at fixed offsets; only every other line goes
# through :meth:`LogRecord.classify_parse`, one at a time.  A clean line
# is a pure-ASCII line that ``_LINE_RE`` matches and whose date lies in
# the epoch month, so it parses.  On ASCII bytes ``\d`` and ``\w`` mean
# what they mean on ASCII text; ``\w`` is spelled out as its class,
# which ``re`` matches faster.

#: Bytes pattern of a clean line up to its message: the epoch-month
#: timestamp, the level, the class and the first ``": "``.
CLEAN_LINE_HEAD = (
    re.escape(EPOCH_LABEL[:8].encode("ascii"))
    + rb"\d\d \d\d:\d\d:\d\d,\d\d\d [A-Z]+ +[0-9A-Za-z_.$\-]+: "
)

#: Offset of the level: after the 23-byte timestamp and one space.
_HEAD_OFFSET = 24


def clean_timestamps(view, starts):
    """:func:`parse_timestamp` of the clean lines at ``starts``, in bulk.

    ``view`` is a numpy ``uint8`` view of the buffer and ``starts`` an
    integer array of clean-line offsets.  One gather copies each line's
    digits, as five three-byte groups from offset 8 (``dd ``, ``HH:``,
    ``mm:``, ``ss,`` and ``SSS``), 15 bytes a line.  The whole seconds
    are summed in integers, then the milliseconds are added as
    :func:`parse_timestamp` adds them, so each float is bit-identical
    to the reference parse.  Work arrays are updated in place.
    """
    import numpy as np  # the miner's dependency; the simulator never calls this

    if not len(starts):
        return np.zeros(0)
    groups = np.ndarray((len(view) - 22, 5, 3), np.uint8, view, 8, (1, 3, 1))
    groups = groups[starts]
    groups -= 48
    pairs = groups[:, :, 0] * 10
    pairs += groups[:, :, 1]
    last_milli = groups[:, 4, 2].copy()
    del groups
    seconds = pairs[:, 0].astype(np.int32)
    seconds -= int(EPOCH_LABEL[8:])
    for column, scale in ((1, 24), (2, 60), (3, 60)):
        seconds *= scale
        seconds += pairs[:, column]
    millis = pairs[:, 4] * 10.0
    millis += last_milli
    millis /= 1000.0
    millis += seconds
    return millis


def clean_fields(buf: bytes, start: int, end: int) -> "tuple[str, str, str]":
    """``(level, cls, message)`` of the clean line ``buf[start:end]``.

    The head admits no ``':'``, so the first ``": "`` after the
    timestamp is the delimiter.
    """
    delim = buf.find(b": ", start + _HEAD_OFFSET, end)
    level, _, cls = buf[start + _HEAD_OFFSET : delim].decode("ascii").partition(" ")
    return level, cls.lstrip(" "), buf[delim + 2 : end].decode("ascii")


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
