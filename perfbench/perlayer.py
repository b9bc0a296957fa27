"""Per-layer metrics and self times from a traced phase's spans."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from perfbench.layers import PER_LAYER, layer_of
from perfbench.spans import Span, Tracer, self_times, uncovered
from perfbench.stats import percentile

__all__ = ["layer_values", "print_report"]


def _median(values: List[float]) -> float:
    return percentile(values, 50.0) if values else 0.0


def _per_op(runs: Dict[str, List[Span]], name: str, count: str = "") -> float:
    """Median over operations of the summed span time (or a count) of ``name``."""
    return _median(
        [
            sum(s.counts.get(count, 0) if count else s.duration for s in spans if s.name == name)
            for spans in runs.values()
        ]
    )


def _total(runs: Dict[str, List[Span]], name: str, count: str = "") -> float:
    return sum(
        s.counts.get(count, 0) if count else s.duration
        for spans in runs.values()
        for s in spans
        if s.name == name
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(tracer: Tracer, untraced, traced) -> Dict[str, float]:
    """Every per-layer metric; 0 where the workload does not reach the layer."""
    runs = {run_id: tracer.of_run(run_id) for run_id in traced.run_ids}
    mine_jobs = [s.counts["jobs"] for spans in runs.values() for s in spans if s.name == "mine"]
    trials = [s.duration for spans in runs.values() for s in spans if s.name == "calibrate.trial"]
    roots = [s for spans in runs.values() for s in spans if s.parent is None]
    values: Dict[str, float] = {
        "sim.build.s": _per_op(runs, "sim.build"),
        "sim.run.s": _per_op(runs, "sim.run"),
        "sim.events": _per_op(runs, "sim.run", "events"),
        "sim.events_per_s": _ratio(_total(runs, "sim.run", "events"), _total(runs, "sim.run")),
        "sim.simulated_s": _per_op(runs, "sim.run", "simulated_s"),
        "sim.log_records": _per_op(runs, "sim.run", "log_records"),
        "logs.dump.s": _per_op(runs, "logs.dump"),
        "logs.dump.bytes": _per_op(runs, "logs.dump", "bytes"),
        "mine.s": _per_op(runs, "mine"),
        "mine.lines": _per_op(runs, "mine", "lines"),
        "mine.bytes": _per_op(runs, "mine", "bytes"),
        "mine.events": _per_op(runs, "mine", "events"),
        "mine.lines_per_s": _ratio(_total(runs, "mine", "lines"), _total(runs, "mine")),
        "mine.event_yield": _ratio(_total(runs, "mine", "events"), _total(runs, "mine", "lines")),
        "mine.jobs": _median(mine_jobs),
        "mine.dropped_lines": _per_op(runs, "mine", "dropped"),
        "mine.store_dump_gap_ms": 0.0,
        "analyze.group.s": _per_op(runs, "analyze.group"),
        "analyze.decompose.s": _per_op(runs, "analyze.decompose"),
        "analyze.bugcheck.s": _per_op(runs, "analyze.bugcheck"),
        "analyze.apps": _per_op(runs, "analyze.group", "apps"),
        "analyze.containers": _per_op(runs, "analyze.decompose", "containers"),
        "calibrate.trials": _median(
            [sum(1 for s in spans if s.name == "calibrate.trial") for spans in runs.values()]
        ),
        "calibrate.trials_failed": _per_op(runs, "calibrate.trial", "failed"),
        "calibrate.workers": 0.0,
        "calibrate.trial.p50_s": _median(trials),
        "calibrate.score.s": _per_op(runs, "calibrate.score"),
        "trace.overhead_ms": 1000.0
        * (_median(traced.scaled_ops()) - _median(untraced.scaled_ops())),
        "trace.uncovered_share": _ratio(
            sum(uncovered(runs[r.run_id], r) for r in roots), sum(r.duration for r in roots)
        ),
    }
    values.update({row.name: 0.0 for row in PER_LAYER if row.name not in values})
    values.update(traced.layer)
    return {row.name: float(values[row.name]) for row in PER_LAYER}


def print_report(tracer: Tracer, untraced, traced, values: Dict[str, float]) -> None:
    ops = len(traced.run_ids)
    wall = 0.0
    by_layer: Dict[str, float] = defaultdict(float)
    for run_id in traced.run_ids:
        spans = tracer.of_run(run_id)
        own = self_times(spans)
        for span in spans:
            if span.parent is None:
                wall += span.duration
                by_layer["(no span: uncovered)"] += own[span.span_id]
            else:
                by_layer[layer_of(span.name)] += own[span.span_id]
    print(f"traced half: {ops} operation(s), {wall:.4f} s of operation wall time")
    print("  layer self time per operation:")
    for layer, seconds in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<30} {seconds / ops:>12.6f} s  {100.0 * seconds / wall:6.2f}% of wall")
    print(
        f"  tracing overhead (at nominal host speed): p50 "
        f"{1000 * _median(traced.scaled_ops()):.4f} ms traced vs "
        f"{1000 * _median(untraced.scaled_ops()):.4f} ms untraced "
        f"({values['trace.overhead_ms']:+.4f} ms)"
    )
    print("  per-layer metrics, by layer (0 where this workload does not reach the layer):")
    last = None
    for row in PER_LAYER:
        if (row.layer, row.moves) != last:
            last = (row.layer, row.moves)
            print(f"    [{row.layer}] should move: {row.moves}; predicted unchanged: {row.unchanged}")
        print(f"      {row.name:<36} {values[row.name]:>14.6g} {row.unit}")
