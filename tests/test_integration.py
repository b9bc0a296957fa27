"""End-to-end integration tests: simulate, mine, decompose, verify.

These close the loop the paper's methodology depends on: the simulator's
white-box milestones must agree with SDchecker's black-box log analysis,
and the whole pipeline must be deterministic under a fixed seed.
"""

import pytest

from repro.core.checker import SDChecker
from repro.core.events import EventKind
from repro.params import SimulationParams
from repro.testbed import Testbed
from tests.conftest import make_query_app


class TestWhiteBoxAgreement:
    """SDchecker's measurements vs the simulator's own milestones."""

    def test_driver_delay_matches_milestones(self, single_app_run):
        _bed, app, report = single_app_run
        measured = report.sample("driver_delay").p50
        truth = app.milestones["driver_registered"] - app.milestones["driver_first_log"]
        assert measured == pytest.approx(truth, abs=0.005)

    def test_total_delay_ends_at_first_task(self, single_app_run):
        _bed, app, report = single_app_run
        delays = report.apps[0]
        assert delays.first_task_at >= app.milestones["job_start"]

    def test_allocation_delay_matches_milestones(self, single_app_run):
        _bed, app, report = single_app_run
        measured = report.sample("allocation_delay").p50
        truth = app.milestones["allocation_complete"] - app.milestones["driver_registered"]
        # START_ALLO is logged right after registration.
        assert measured == pytest.approx(truth, abs=0.05)

    def test_job_runtime_matches_finish_event(self, single_app_run):
        _bed, app, report = single_app_run
        delays = report.apps[0]
        assert delays.finished_at == pytest.approx(app.finished.value, abs=0.002)


class TestInvariants:
    def test_event_timestamps_causally_ordered(self, single_app_run):
        _bed, _app, report = single_app_run
        delays = report.apps[0]
        assert delays.submitted_at <= delays.registered_at
        assert delays.registered_at <= delays.first_task_at
        assert delays.first_task_at <= delays.finished_at
        for c in delays.containers:
            for value in (
                c.acquisition_delay,
                c.localization_delay,
                c.launching_delay,
            ):
                if value is not None:
                    assert value >= 0

    def test_all_components_nonnegative(self, single_app_run):
        _bed, _app, report = single_app_run
        delays = report.apps[0]
        for metric in (
            delays.total_delay,
            delays.am_delay,
            delays.driver_delay,
            delays.executor_delay,
            delays.in_app_delay,
            delays.out_app_delay,
            delays.allocation_delay,
        ):
            assert metric is not None and metric >= 0

    def test_cl_at_least_cf(self, single_app_run):
        _bed, _app, report = single_app_run
        delays = report.apps[0]
        assert delays.cl_delay >= delays.cf_delay


class TestDeterminism:
    def _run(self, seed):
        bed = Testbed(params=SimulationParams(num_nodes=5), seed=seed)
        apps = [make_query_app(f"q{i}", query=i + 1) for i in range(3)]
        for i, app in enumerate(apps):
            bed.submit(app, delay=2.0 * i)
        bed.run_until_all_finished(limit=5000)
        report = SDChecker().analyze(bed.log_store)
        return [(a.app_id, a.total_delay, a.executor_delay) for a in report.apps]

    def test_same_seed_identical_reports(self):
        assert self._run(31) == self._run(31)

    def test_different_seed_differs(self):
        assert self._run(31) != self._run(32)


class TestMultiTenancy:
    def test_concurrent_spark_and_mapreduce(self):
        from repro.mapreduce.application import MapReduceApplication

        bed = Testbed(params=SimulationParams(num_nodes=5), seed=41)
        spark = make_query_app("q", query=3)
        mr = MapReduceApplication("wc", num_maps=10, num_reduces=2)
        bed.submit(spark)
        bed.submit(mr, delay=1.0)
        bed.run_until_all_finished(limit=5000)
        report = SDChecker().analyze(bed.log_store)
        assert len(report) == 2
        # Spark app measurable end to end; the MR app contributes
        # container-level samples but has no Spark-style first task.
        spark_delays = next(a for a in report.apps if a.app_id == str(spark.app_id))
        assert spark_delays.complete()

    def test_log_precision_is_one_millisecond(self, single_app_run):
        bed, _app, _report = single_app_run
        for daemon in bed.log_store.daemons:
            for rendered in bed.log_store.iter_lines(daemon):
                # ...HH:MM:SS,mmm — exactly three millisecond digits.
                time_part = rendered.split(" ")[1]
                assert len(time_part.split(",")[1]) == 3
