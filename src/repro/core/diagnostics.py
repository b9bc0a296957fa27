"""Mining diagnostics: the ledger of everything the pipeline tolerated.

SDchecker's degradation contract is *skip, count, and keep going*:
corrupted input never makes :meth:`~repro.core.checker.SDChecker.analyze`
raise, and it never silently lies either.  Every tolerated imperfection
— a dropped line, an ignored stream, an event bound to no ID, a delay
component whose endpoints are missing, a negative span betraying clock
skew — lands in a :class:`MiningDiagnostics` attached to the
:class:`~repro.core.report.AnalysisReport`, so a user (or ``--strict``)
can tell a pristine measurement from a best-effort one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.logsys.diagnostics import StreamDiagnostics

__all__ = ["AppDiagnostics", "MiningDiagnostics", "StreamDiagnostics"]


@dataclass
class AppDiagnostics:
    """Component completeness and sanity of one application's decomposition."""

    app_id: str
    #: Headline delay components that could not be measured because one
    #: of their endpoint events is missing from the logs.
    missing_components: List[str] = field(default_factory=list)
    #: Negative spans: evidence of clock skew between daemons (or of a
    #: reordered/corrupted stream).  Reported verbatim, never clamped.
    skew_warnings: List[str] = field(default_factory=list)

    def degraded(self) -> bool:
        return bool(self.missing_components or self.skew_warnings)

    def to_dict(self) -> Dict[str, object]:
        return {
            "app_id": self.app_id,
            "missing_components": list(self.missing_components),
            "skew_warnings": list(self.skew_warnings),
        }


@dataclass
class MiningDiagnostics:
    """Everything one analysis run tolerated, per stream and per app."""

    streams: Dict[str, StreamDiagnostics] = field(default_factory=dict)
    apps: Dict[str, AppDiagnostics] = field(default_factory=dict)
    #: Mined events that could not be bound to any application ID
    #: (e.g. a container ID garbled beyond the app-ID derivation).
    orphan_events: int = 0

    # -- aggregates ------------------------------------------------------
    @property
    def unknown_streams(self) -> List[str]:
        """Daemon names no miner dispatch rule recognized, sorted."""
        return sorted(d for d, s in self.streams.items() if not s.recognized)

    @property
    def lines_dropped(self) -> int:
        return sum(s.lines_dropped for s in self.streams.values())

    @property
    def encoding_replacements(self) -> int:
        return sum(s.encoding_replacements for s in self.streams.values())

    @property
    def duplicate_records(self) -> int:
        return sum(s.duplicate_records for s in self.streams.values())

    @property
    def out_of_order_records(self) -> int:
        return sum(s.out_of_order for s in self.streams.values())

    def degraded(self) -> bool:
        """True when this run is anything less than a pristine measurement.

        ``--strict`` gates on exactly this: dropped or garbled lines,
        unrecognized streams, unbindable events, duplicate or reordered
        records, missing delay components, or skew warnings.
        """
        return bool(
            self.lines_dropped
            or self.encoding_replacements
            or self.duplicate_records
            or self.out_of_order_records
            or self.unknown_streams
            or self.orphan_events
            or any(a.degraded() for a in self.apps.values())
        )

    # -- rendering -------------------------------------------------------
    def summary(self) -> str:
        """The human-readable diagnostics section (``--diagnostics``)."""
        lines = [
            f"Mining diagnostics: {'DEGRADED' if self.degraded() else 'clean'} "
            f"({len(self.streams)} stream(s), {len(self.apps)} application(s))"
        ]
        totals = (
            f"  lines dropped: {self.lines_dropped}, invalid UTF-8 lines: "
            f"{self.encoding_replacements}, duplicate records: "
            f"{self.duplicate_records}, out-of-order records: "
            f"{self.out_of_order_records}, orphan events: {self.orphan_events}"
        )
        lines.append(totals)
        for daemon in sorted(self.streams):
            notes = self.streams[daemon].notes()
            if notes:
                lines.append(f"  stream {daemon}: " + "; ".join(notes))
        for app_id in sorted(self.apps):
            app = self.apps[app_id]
            if app.missing_components:
                lines.append(
                    f"  app {app_id}: missing "
                    + ", ".join(app.missing_components)
                )
            for warning in app.skew_warnings:
                lines.append(f"  app {app_id}: skew {warning}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "degraded": self.degraded(),
            "orphan_events": self.orphan_events,
            "lines_dropped": self.lines_dropped,
            "encoding_replacements": self.encoding_replacements,
            "duplicate_records": self.duplicate_records,
            "out_of_order_records": self.out_of_order_records,
            "unknown_streams": self.unknown_streams,
            "streams": {
                daemon: self.streams[daemon].to_dict()
                for daemon in sorted(self.streams)
            },
            "apps": {
                app_id: self.apps[app_id].to_dict()
                for app_id in sorted(self.apps)
            },
        }
