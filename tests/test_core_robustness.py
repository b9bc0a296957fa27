"""Robustness of the SDchecker pipeline on degenerate inputs.

A log miner must survive whatever a real cluster throws at it: empty
collections, partial workflows, clock skew between daemons, streams it
has never seen.
"""

import pytest

from repro.core.checker import SDChecker
from repro.core.decompose import decompose
from repro.core.graph import SchedulingGraph
from repro.core.grouping import group_events
from repro.core.parser import LogMiner
from repro.logsys.store import LogStore
from tests.test_core_graph import is_dag

APP = "application_1515715200000_0001"
EXEC = "container_1515715200000_0001_01_000002"


class TestDegenerateInputs:
    def test_empty_store(self):
        report = SDChecker().analyze(LogStore())
        assert len(report) == 0
        assert report.summary().startswith("SDchecker report: 0")

    def test_empty_directory(self, tmp_path):
        report = SDChecker().analyze(tmp_path)
        assert len(report) == 0

    def test_rm_log_only(self):
        store = LogStore.from_lines(
            [
                (
                    "hadoop-resourcemanager",
                    f"2018-01-12 00:00:00,100 INFO x.RMAppImpl: {APP} State "
                    "change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED",
                )
            ]
        )
        report = SDChecker().analyze(store)
        assert len(report) == 1
        app = report.apps[0]
        assert app.submitted_at == pytest.approx(0.1)
        assert app.total_delay is None

    def test_pure_noise_store(self):
        store = LogStore.from_lines(
            [
                ("hadoop-resourcemanager", "2018-01-12 00:00:00,000 INFO a.B: noise"),
                ("hadoop-nodemanager-node01", "2018-01-12 00:00:00,000 INFO c.D: more"),
            ]
        )
        assert len(SDChecker().analyze(store)) == 0


class TestClockSkew:
    """NM clocks can lag the RM's despite NTP; spans must not explode."""

    @pytest.fixture
    def skewed_trace(self):
        # SCHEDULED is logged *before* LOCALIZING due to skew.
        store = LogStore.from_lines(
            [
                (
                    "hadoop-resourcemanager",
                    f"2018-01-12 00:00:00,100 INFO x.RMAppImpl: {APP} State "
                    "change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED",
                ),
                (
                    "hadoop-nodemanager-node01",
                    f"2018-01-12 00:00:05,000 INFO x.ContainerImpl: Container "
                    f"{EXEC} transitioned from NEW to LOCALIZING",
                ),
                (
                    "hadoop-nodemanager-node01",
                    f"2018-01-12 00:00:04,500 INFO x.ContainerImpl: Container "
                    f"{EXEC} transitioned from LOCALIZING to SCHEDULED",
                ),
            ]
        )
        return group_events(LogMiner().mine(store)[0])[APP]

    def test_decompose_reports_negative_span_verbatim(self, skewed_trace):
        """Decomposition is a measurement tool: it reports what the logs
        say (a negative localization delay flags the skew to the user)."""
        delays = decompose(skewed_trace)
        container = delays.containers[0]
        assert container.localization_delay == pytest.approx(-0.5)

    def test_graph_refuses_backward_edges(self, skewed_trace):
        graph = SchedulingGraph(skewed_trace)
        for successors in graph.succ.values():
            for data in successors.values():
                assert data["weight"] >= 0

    def test_graph_still_dag(self, skewed_trace):
        assert is_dag(SchedulingGraph(skewed_trace))


class TestMultipleApplications:
    def test_interleaved_apps_separate_cleanly(self):
        app2 = "application_1515715200000_0002"
        store = LogStore.from_lines(
            [
                (
                    "hadoop-resourcemanager",
                    f"2018-01-12 00:00:00,100 INFO x.RMAppImpl: {APP} State "
                    "change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED",
                ),
                (
                    "hadoop-resourcemanager",
                    f"2018-01-12 00:00:00,150 INFO x.RMAppImpl: {app2} State "
                    "change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED",
                ),
                (
                    "hadoop-resourcemanager",
                    f"2018-01-12 00:00:01,000 INFO x.RMContainerImpl: "
                    f"container_1515715200000_0002_01_000001 Container "
                    "Transitioned from NEW to ALLOCATED",
                ),
            ]
        )
        traces = group_events(LogMiner().mine(store)[0])
        assert set(traces) == {APP, app2}
        assert len(traces[app2].containers) == 1
        assert len(traces[APP].containers) == 0

    def test_report_sorted_by_app_id(self, tmp_path):
        from repro.core.report import AnalysisReport
        from repro.core.decompose import ApplicationDelays

        def mk(app_id):
            return ApplicationDelays(
                app_id=app_id,
                submitted_at=0.0,
                registered_at=None,
                finished_at=None,
                first_task_at=None,
                total_delay=None,
                am_delay=None,
                driver_delay=None,
                executor_delay=None,
                in_app_delay=None,
                out_app_delay=None,
                cf_delay=None,
                cl_delay=None,
                allocation_delay=None,
                job_runtime=None,
            )

        report = AnalysisReport(apps=[mk("application_1_0002"), mk("application_1_0001")])
        assert [a.app_id for a in report.apps] == [
            "application_1_0001",
            "application_1_0002",
        ]
