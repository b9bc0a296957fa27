"""The benchmark's own helpers, at tiny sizes.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import socket
import statistics
import threading
import time
from pathlib import Path

import pytest

from perfbench import checks
from perfbench.layers import PER_LAYER
from perfbench import speed
from perfbench.openloop import QueryLoad, QueryResult, Schedule, run_schedule
from perfbench.spans import Span, Tracer, covered, self_times, uncovered
from perfbench.stats import Summary, iqr_share, percentile, tail_percentile
from repro.core.checker import SDChecker

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "tests" / "data" / "golden"


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


# -- percentiles, IQR, sample counts ----------------------------------------


class TestStats:
    def test_percentile_interpolates_like_numpy(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == 2.5
        assert percentile(values, 25) == pytest.approx(1.75)

    def test_percentile_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_iqr_share_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.0, 12.0, 10.5, 9.5, 10.2, 11.5, 9.8, 10.1]
        q1, _, q3 = statistics.quantiles(values, n=4)
        assert iqr_share(values) == pytest.approx((q3 - q1) / statistics.median(values))
        with pytest.raises(ValueError):
            iqr_share([1.0])

    def test_tail_needs_ten_samples_beyond_it(self):
        assert tail_percentile(1000) == 99.0
        assert tail_percentile(10_000) == 99.9
        assert tail_percentile(200) == 95.0
        assert tail_percentile(100) == 90.0
        assert tail_percentile(99) is None

    def test_summary_states_its_sample_count(self):
        values = [float(i) for i in range(1, 1001)]
        summary = Summary.of(values)
        assert summary.count == 1000
        assert summary.tail_label == "p99"
        assert summary.tail == pytest.approx(percentile(values, 99))
        assert summary.p50 == pytest.approx(500.5)

    def test_few_samples_report_the_median_as_tail(self):
        summary = Summary.of([1.0, 2.0, 30.0])
        assert summary.count == 3
        assert summary.tail_pct is None
        assert summary.tail == summary.p50 == 2.0
        assert summary.tail_label == "p50"


# -- span self time -----------------------------------------------------------


def _span(span_id, start, end, parent=None, name="x", run_id="r"):
    return Span(span_id, name, start, end, parent, run_id)


class TestSpans:
    def test_covered_merges_overlaps_and_clips(self):
        assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
        assert covered([(-5, 2), (9, 20)], 0, 10) == 3
        assert covered([], 0, 10) == 0

    def test_self_time_with_nested_children(self):
        spans = [
            _span(1, 0.0, 10.0),
            _span(2, 1.0, 4.0, parent=1),
            _span(3, 2.0, 3.0, parent=2),  # grandchild: only charged to span 2
            _span(4, 6.0, 7.0, parent=1),
        ]
        own = self_times(spans)
        assert own[1] == pytest.approx(10.0 - 3.0 - 1.0)
        assert own[2] == pytest.approx(2.0)
        assert own[3] == pytest.approx(1.0)

    def test_self_time_with_overlapping_children(self):
        # Two threads' spans under one root overlap; the union counts once.
        spans = [
            _span(1, 0.0, 10.0),
            _span(2, 1.0, 5.0, parent=1),
            _span(3, 3.0, 6.0, parent=1),
            _span(4, 9.0, 12.0, parent=1),  # runs past its parent's end
        ]
        assert self_times(spans)[1] == pytest.approx(10.0 - 5.0 - 1.0)
        assert uncovered(spans, spans[0]) == pytest.approx(4.0)

    def test_tracer_nests_per_thread_and_under_the_root(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.root("op", "run-1") as root:
            clock.sleep(1)
            with tracer.span("child") as child:
                clock.sleep(2)
            clock.sleep(1)
        assert child.parent == root.span_id
        assert child.run_id == "run-1"
        assert self_times(tracer.of_run("run-1"))[root.span_id] == pytest.approx(2.0)

    def test_patch_wraps_and_restores(self):
        class Thing:
            def double(self, x):
                return 2 * x

        tracer = Tracer()
        thing = Thing()
        with tracer.patch(Thing, "double", "thing.double"):
            assert thing.double(3) == 6
        with tracer.patch(thing, "double", "one.double"):
            assert thing.double(4) == 8
        assert "double" not in vars(thing)
        assert Thing.double(thing, 5) == 10
        assert [s.name for s in tracer.spans] == ["thing.double", "one.double"]

    def test_adopted_spans_nest_under_the_root_they_started_in(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.root("window", "w") as root:
            clock.sleep(10)
        records = [
            {"span_id": 1, "name": "live.poll", "start": 2.0, "end": 3.0, "parent": None,
             "run_id": "", "counts": {"lines": 5}},
            {"span_id": 2, "name": "live.tail", "start": 2.1, "end": 2.5, "parent": 1,
             "run_id": "", "counts": {}},
            {"span_id": 3, "name": "live.poll", "start": 11.0, "end": 12.0, "parent": None,
             "run_id": "", "counts": {}},
        ]
        tracer.adopt(records, root)
        run = tracer.of_run("w")
        assert sorted(s.name for s in run) == ["live.poll", "live.tail", "window"]
        poll = next(s for s in run if s.name == "live.poll")
        tail = next(s for s in run if s.name == "live.tail")
        assert poll.parent == root.span_id and tail.parent == poll.span_id
        assert poll.counts == {"lines": 5}


# -- open loop: latency from the due time -------------------------------------


class TestOpenLoop:
    def test_latency_counts_from_due_time_not_send_time(self):
        query = QueryResult(index=0, op="apps", due=1.0, sent=1.5, done=1.6, ok=True)
        assert query.latency == pytest.approx(0.6)
        assert query.late == pytest.approx(0.5)
        assert QueryResult(1, "apps", due=1.0, sent=1.0).latency is None

    def test_a_late_action_does_not_shift_the_schedule(self):
        clock = FakeClock(0.0)
        schedule = Schedule(start=1.0, interval=1.0, count=4)
        started = []

        def action(index):
            started.append(clock.now)
            if index == 1:
                clock.sleep(2.5)  # a stall: runs past the next two due times

        late = run_schedule(schedule, action, clock=clock, sleep=clock.sleep)
        assert started == [1.0, 2.0, 4.5, 4.5]
        assert late == pytest.approx([0.0, 0.0, 1.5, 0.5])

    def test_query_load_times_from_due_and_probes_only_while_idle(self):
        """A server that answers 30 ms late: every latency includes the wait,
        and no probe slice runs while a query is outstanding."""
        listener = socket.create_server(("127.0.0.1", 0))
        gaps = []

        def serve():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as lines:
                for _ in lines:
                    gaps.append(len(load.slices))
                    time.sleep(0.03)
                    gaps.append(len(load.slices))
                    conn.sendall(b'{"ok": true, "result": [{"app_id": "a"}]}\n')

        server = threading.Thread(target=serve)
        server.start()
        load = QueryLoad("127.0.0.1", listener.getsockname()[1],
                         Schedule(start=time.perf_counter() + 0.01, interval=0.05, count=4),
                         seed=1)
        try:
            results = load.run()
        finally:
            server.join(timeout=10)
            listener.close()
        assert [q.op for q in results] == ["apps", "apps", "decomposition", "apps"]
        assert all(q.ok and q.latency >= 0.03 and q.done > q.sent >= q.due for q in results)
        assert load.slices
        assert gaps[0::2] == gaps[1::2]


# -- host speed probe ---------------------------------------------------------------


class TestSpeedProbe:
    def test_slices_cover_the_probe_work_once(self):
        lines, blob = zip(*(speed.slice_bounds(i) for i in range(speed.SLICES)))
        assert [s.start for s in lines] == [0] + [s.stop for s in lines][:-1]
        assert lines[-1].stop == len(speed._LINES)
        assert [s.start for s in blob] == [0] + [s.stop for s in blob][:-1]
        assert blob[-1].stop == len(speed._BLOB)
        assert speed.slice_bounds(speed.SLICES) == speed.slice_bounds(0)

    def test_scale_from_slices(self):
        nominal = speed.NOMINAL_S / speed.SLICES
        assert speed.SpeedProbe.scale_from_slices([nominal] * 3) == pytest.approx(1.0)
        assert speed.SpeedProbe.scale_from_slices([nominal, 3 * nominal]) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            speed.SpeedProbe.scale_from_slices([])


# -- output checks fire on corrupted results -----------------------------------


@pytest.fixture(scope="module")
def report():
    return SDChecker(jobs=1).analyze(GOLDEN)


class TestChecks:
    def test_a_sound_report_passes(self, report):
        good, problems = checks.decomposed_apps(report, len(report.apps))
        assert (good, problems) == (len(report.apps), [])
        assert checks.store_vs_dump(report, report) == ([], 0.0)

    def test_incomplete_app_fires(self, report):
        broken = dataclasses.replace(report.apps[0], driver_delay=None)
        corrupt = dataclasses.replace(report, apps=[broken, *report.apps[1:]])
        good, problems = checks.decomposed_apps(corrupt, len(report.apps))
        assert good == len(report.apps) - 1
        assert "incomplete" in problems[0]

    def test_breakdown_not_adding_up_fires(self, report):
        app = report.apps[0]
        drifted = dataclasses.replace(app, ramp_delay=(app.ramp_delay or 0.0) + 1e-6)
        corrupt = dataclasses.replace(report, apps=[drifted, *report.apps[1:]])
        good, problems = checks.decomposed_apps(corrupt, len(report.apps))
        assert good == len(report.apps) - 1
        assert "breakdown sums" in problems[0]

    def test_missing_app_fires(self, report):
        good, problems = checks.decomposed_apps(report, len(report.apps) + 1)
        assert "submitted" in problems[0]

    def test_store_vs_dump_fires_on_a_non_timing_field(self, report):
        app = report.apps[0]
        renamed = dataclasses.replace(app, containers=app.containers[:-1])
        corrupt = dataclasses.replace(report, apps=[renamed, *report.apps[1:]])
        problems, _ = checks.store_vs_dump(report, corrupt)
        assert problems

    def test_store_vs_dump_reports_timing_gap_without_failing(self, report):
        app = report.apps[0]
        shifted = dataclasses.replace(app, total_delay=app.total_delay + 0.0004)
        corrupt = dataclasses.replace(report, apps=[shifted, *report.apps[1:]])
        problems, gap_ms = checks.store_vs_dump(report, corrupt)
        assert problems == []
        assert gap_ms == pytest.approx(0.4)

    def test_byte_identity_fires(self, report):
        data = checks.report_bytes(report)
        assert checks.identical(data, data, "x") == []
        assert checks.identical(data, data.replace(b"0", b"1", 1), "x")

    def test_pinned_digest_fires(self, tmp_path):
        shutil.copytree(GOLDEN, tmp_path / "logs")
        digest = checks.directory_digest(tmp_path / "logs")
        assert checks.pinned(digest, digest, "logs") == []
        victim = sorted((tmp_path / "logs").iterdir())[0]
        victim.write_bytes(victim.read_bytes() + b"x")
        assert checks.pinned(checks.directory_digest(tmp_path / "logs"), digest, "logs")

    def test_baseline_error_must_be_exactly_zero(self):
        trials = [{"kind": "baseline", "error": 0.0}, {"kind": "grid", "error": 0.3}]
        assert checks.baseline_error_is_zero(trials) == []
        trials[0]["error"] = 1e-12
        assert checks.baseline_error_is_zero(trials)
        assert checks.baseline_error_is_zero([{"kind": "grid", "error": 0.0}])


# -- BENCHMARK.json agrees with the benchmark ----------------------------------


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == [(row.name, row.unit, row.better) for row in PER_LAYER]
    assert {w["name"] for w in spec["workloads"]} == {
        "scenario-scale", "logdir-mine", "live-serve", "calibrate-fit"
    }
    assert [m["name"] for m in spec["end_to_end"]] == [
        "work_per_s", "latency_ms", "setup_s", "peak_rss_mb"
    ]
