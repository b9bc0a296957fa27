"""The per-layer metrics of the traced run, and what each should move.

Every row names the program layer it measures, the end-to-end metric
(and workload) a change to that layer should move, and the workloads
where the prediction is no change.  ``BENCHMARK.json`` lists the same
names; a test keeps the two in step.  Later changes cite these rows.

End-to-end metrics are named as a run prints them: ``apps_per_s``,
``lines_per_s`` and ``trials_per_s`` are ``work_per_s`` on
scenario-scale, logdir-mine and calibrate-fit; ``query_p25_ms`` is
``latency_ms`` on live-serve; ``query_p50_ms`` and ``query_p99_ms`` are
printed by live-serve runs and, unbounded, the p99 is measured here as
``live.query.p99_ms``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["LAYER_OF_SPAN", "LayerMetric", "PER_LAYER", "layer_of"]


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    layer: str
    moves: str
    unchanged: str


_SIM = ("simul", "apps_per_s on scenario-scale; trials_per_s on calibrate-fit", "logdir-mine, live-serve")
_BUILD = ("workloads.scenarios, testbed", "trials_per_s on calibrate-fit", "logdir-mine, live-serve")
_DUMP = ("logsys", "trials_per_s on calibrate-fit", "scenario-scale, logdir-mine, live-serve")
_MINE = (
    "core.parser",
    "lines_per_s on logdir-mine; a small share of trials_per_s and apps_per_s",
    "none",
)
_ANALYZE = ("core analysis", "query_p50_ms on live-serve", "~2% of logdir-mine")
_LIVE_P99 = ("live", "query_p99_ms on live-serve", "all others")
_LIVE_P50 = ("live", "query_p50_ms on live-serve", "all others")
_CAL = ("calibrate", "trials_per_s on calibrate-fit", "all others")
_TRACE = ("benchmark", "none: describes the traced run itself", "all")


def _rows(spec: Tuple[str, str, str], *metrics: Tuple[str, str, str]) -> Tuple[LayerMetric, ...]:
    return tuple(LayerMetric(name, unit, better, *spec) for name, unit, better in metrics)


PER_LAYER: Tuple[LayerMetric, ...] = (
    *_rows(_BUILD, ("sim.build.s", "s", "lower")),
    *_rows(
        _SIM,
        ("sim.run.s", "s", "lower"),
        ("sim.events", "count", "lower"),
        ("sim.events_per_s", "1/s", "higher"),
        ("sim.simulated_s", "s", "lower"),
        ("sim.log_records", "count", "lower"),
    ),
    *_rows(_DUMP, ("logs.dump.s", "s", "lower"), ("logs.dump.bytes", "B", "lower")),
    *_rows(
        _MINE,
        ("mine.s", "s", "lower"),
        ("mine.lines", "count", "lower"),
        ("mine.bytes", "B", "lower"),
        ("mine.events", "count", "lower"),
        ("mine.lines_per_s", "lines/s", "higher"),
        ("mine.event_yield", "ratio", "higher"),
        ("mine.jobs", "count", "higher"),
        ("mine.dropped_lines", "count", "lower"),
        ("mine.store_dump_gap_ms", "ms", "lower"),
    ),
    *_rows(
        _ANALYZE,
        ("analyze.group.s", "s", "lower"),
        ("analyze.decompose.s", "s", "lower"),
        ("analyze.bugcheck.s", "s", "lower"),
        ("analyze.apps", "count", "lower"),
        ("analyze.containers", "count", "lower"),
    ),
    *_rows(
        _LIVE_P99,
        ("live.query.p99_ms", "ms", "lower"),
        ("live.poll.calls", "count", "lower"),
        ("live.poll.s", "s", "lower"),
        ("live.poll.p99_ms", "ms", "lower"),
        ("live.ingest_lps", "lines/s", "higher"),
        ("live.query.wait_p99_ms", "ms", "lower"),
        ("live.gen.late_ms", "ms", "lower"),
    ),
    *_rows(
        _LIVE_P50,
        ("live.report.calls", "count", "lower"),
        ("live.report.rebuilds", "count", "lower"),
        ("live.report.hit_ratio", "ratio", "higher"),
        ("live.report.rebuild.s", "s", "lower"),
        ("live.query.apps.server_ms", "ms", "lower"),
        ("live.query.decomposition.server_ms", "ms", "lower"),
    ),
    *_rows(
        _CAL,
        ("calibrate.trials", "count", "higher"),
        ("calibrate.trials_failed", "count", "lower"),
        ("calibrate.workers", "count", "higher"),
        ("calibrate.trial.p50_s", "s", "lower"),
        ("calibrate.score.s", "s", "lower"),
    ),
    *_rows(
        _TRACE,
        ("trace.overhead_ms", "ms", "lower"),
        ("trace.uncovered_share", "ratio", "lower"),
    ),
)

#: Span name -> the layer whose self time it is.
LAYER_OF_SPAN = {
    "sim.build": "workloads.scenarios+testbed",
    "sim.run": "simul",
    "logs.dump": "logsys",
    "mine": "core.parser",
    "analyze": "core analysis",
    "analyze.group": "core analysis",
    "analyze.decompose": "core analysis",
    "analyze.bugcheck": "core analysis",
    "live.poll": "live",
    "live.tail": "live",
    "live.fold": "live",
    "live.report": "live",
    "live.query.apps": "live",
    "live.query.decomposition": "live",
    "calibrate.trial": "calibrate",
    "calibrate.score": "calibrate",
}


def layer_of(span_name: str) -> str:
    """The layer a span belongs to; run roots belong to the harness."""
    return LAYER_OF_SPAN.get(span_name, "(not covered by a layer span)")
