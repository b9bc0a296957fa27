"""Tests for the analysis report and the SPARK-21562 bug detector."""

import pytest

from repro.core.bugcheck import find_unused_containers
from repro.core.grouping import group_events
from repro.core.parser import LogMiner
from repro.core.report import AnalysisReport, METRICS
from repro.logsys.store import LogStore

APP = "application_1515715200000_0009"
AM = "container_1515715200000_0009_01_000001"
USED = "container_1515715200000_0009_01_000002"
GHOST = "container_1515715200000_0009_01_000003"  # never launched
IDLE = "container_1515715200000_0009_01_000004"  # launched, no task


def build_buggy_store() -> LogStore:
    lines = [
        ("hadoop-resourcemanager", f"2018-01-12 00:00:00,000 INFO x.RMAppImpl: {APP} State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"),
        # RM-side container states for all three workers.
        *[
            ("hadoop-resourcemanager", f"2018-01-12 00:00:01,{ms:03d} INFO x.RMContainerImpl: {cid} Container Transitioned from NEW to ALLOCATED")
            for ms, cid in ((0, USED), (1, GHOST), (2, IDLE))
        ],
        *[
            ("hadoop-resourcemanager", f"2018-01-12 00:00:01,{ms:03d} INFO x.RMContainerImpl: {cid} Container Transitioned from ALLOCATED to ACQUIRED")
            for ms, cid in ((100, USED), (101, GHOST), (102, IDLE))
        ],
        ("hadoop-resourcemanager", f"2018-01-12 00:00:20,000 INFO x.RMContainerImpl: {GHOST} Container Transitioned from ACQUIRED to RELEASED"),
        # NM + executor logs only for USED and IDLE.
        ("hadoop-nodemanager-node01", f"2018-01-12 00:00:02,000 INFO x.ContainerImpl: Container {USED} transitioned from NEW to LOCALIZING"),
        ("hadoop-nodemanager-node01", f"2018-01-12 00:00:02,500 INFO x.ContainerImpl: Container {USED} transitioned from LOCALIZING to SCHEDULED"),
        ("hadoop-nodemanager-node01", f"2018-01-12 00:00:03,200 INFO x.ContainerImpl: Container {USED} transitioned from SCHEDULED to RUNNING"),
        (USED, f"2018-01-12 00:00:03,200 INFO org.apache.spark.executor.CoarseGrainedExecutorBackend: Started daemon with process name: 1@node01 for container {USED}"),
        (USED, "2018-01-12 00:00:05,000 INFO org.apache.spark.executor.Executor: Got assigned task 0"),
        ("hadoop-nodemanager-node02", f"2018-01-12 00:00:02,000 INFO x.ContainerImpl: Container {IDLE} transitioned from NEW to LOCALIZING"),
        ("hadoop-nodemanager-node02", f"2018-01-12 00:00:02,500 INFO x.ContainerImpl: Container {IDLE} transitioned from LOCALIZING to SCHEDULED"),
        ("hadoop-nodemanager-node02", f"2018-01-12 00:00:03,400 INFO x.ContainerImpl: Container {IDLE} transitioned from SCHEDULED to RUNNING"),
        (IDLE, f"2018-01-12 00:00:03,400 INFO org.apache.spark.executor.CoarseGrainedExecutorBackend: Started daemon with process name: 2@node02 for container {IDLE}"),
    ]
    return LogStore.from_lines(lines)


class TestBugCheck:
    def test_categories(self):
        traces = group_events(LogMiner().mine(build_buggy_store())[0])
        findings = find_unused_containers(traces)
        by_container = {f.container_id: f.category for f in findings}
        assert by_container == {GHOST: "never_launched", IDLE: "never_used"}

    def test_used_container_not_flagged(self):
        traces = group_events(LogMiner().mine(build_buggy_store())[0])
        findings = find_unused_containers(traces)
        assert USED not in {f.container_id for f in findings}

    def test_finding_describes_observed_states(self):
        traces = group_events(LogMiner().mine(build_buggy_store())[0])
        ghost = next(f for f in find_unused_containers(traces) if f.container_id == GHOST)
        assert "CONTAINER_RELEASED" in ghost.observed_kinds
        assert "never_launched" in ghost.describe()

    def test_am_container_exempt(self):
        """The AM has no FIRST_TASK by design; it must not be flagged."""
        traces = group_events(LogMiner().mine(build_buggy_store())[0])
        assert AM not in {f.container_id for f in find_unused_containers(traces)}

    def test_detects_bug_on_opportunistic_run(self, opportunistic_run):
        _bed, _app, report = opportunistic_run
        categories = {f.category for f in report.bug_findings}
        assert "never_launched" in categories

    def test_clean_on_guaranteed_run(self, single_app_run):
        _bed, _app, report = single_app_run
        assert report.bug_findings == []


class TestReport:
    def test_all_metrics_sampleable(self, single_app_run):
        _bed, _app, report = single_app_run
        for metric in METRICS:
            report.sample(metric)  # no raise

    def test_unknown_metric_rejected(self, single_app_run):
        _bed, _app, report = single_app_run
        with pytest.raises(KeyError):
            report.sample("nonsense")

    def test_in_plus_out_equals_total(self, single_app_run):
        _bed, _app, report = single_app_run
        for app in report.apps:
            assert app.in_app_delay + app.out_app_delay == pytest.approx(
                app.total_delay
            )

    def test_normalized_total_below_one(self, single_app_run):
        _bed, _app, report = single_app_run
        norm = report.normalized_total()
        assert 0.0 < norm.max() < 1.0

    def test_contributions_present_and_positive(self, single_app_run):
        _bed, _app, report = single_app_run
        contributions = report.component_contributions()
        for key in ("driver", "executor", "am"):
            assert contributions[key] > 0

    def test_summary_text(self, single_app_run):
        _bed, _app, report = single_app_run
        text = report.summary()
        assert "SDchecker report" in text
        assert "total_delay" in text

    def test_summary_mentions_bug(self, opportunistic_run):
        _bed, _app, report = opportunistic_run
        assert "SPARK-21562" in report.summary()

    def test_container_sample_filters_instance_type(self, single_app_run):
        _bed, _app, report = single_app_run
        spe = report.container_sample("launching", instance_type="spe")
        assert len(spe) == 4  # 4 executors
        spm = report.container_sample(
            "launching", instance_type="spm", workers_only=False
        )
        assert len(spm) == 1
