"""SDchecker applied to MapReduce applications.

The paper's tool is framework-agnostic on the YARN side: MR apps have
no Spark driver/executor markers, so the Spark-specific metrics are
None while the container-level components remain fully measurable.
"""

import pytest

from repro.core.checker import SDChecker
from repro.core.events import EventKind
from repro.core.timeline import render_timeline
from repro.mapreduce.application import MapReduceApplication
from repro.params import SimulationParams
from repro.testbed import Testbed
from tests.test_core_graph import is_dag


@pytest.fixture(scope="module")
def mr_analysis():
    bed = Testbed(params=SimulationParams(num_nodes=5), seed=95)
    app = MapReduceApplication("wc", num_maps=5, num_reduces=1)
    bed.submit(app)
    bed.run_until_all_finished(limit=5000)
    checker = SDChecker()
    return bed, app, checker, checker.group(bed.log_store)


class TestMapReduceDecomposition:
    def test_spark_metrics_absent(self, mr_analysis):
        bed, app, checker, _traces = mr_analysis
        report = checker.analyze(bed.log_store)
        delays = report.apps[0]
        assert delays.driver_delay is None  # no Spark REGISTER line
        assert delays.allocation_delay is None  # no SDCHECKER markers
        assert delays.total_delay is None  # no "Got assigned task"

    def test_yarn_metrics_present(self, mr_analysis):
        bed, _app, checker, _traces = mr_analysis
        report = checker.analyze(bed.log_store)
        delays = report.apps[0]
        assert delays.am_delay is not None and delays.am_delay > 0
        assert delays.job_runtime is not None
        for c in delays.containers:
            assert c.localization_delay is not None
            assert c.launching_delay is not None

    def test_graph_has_no_first_task_path(self, mr_analysis):
        _bed, _app, checker, traces = mr_analysis
        graph = checker.graph(next(iter(traces.values())))
        assert is_dag(graph)
        assert graph.critical_path() == []  # no FIRST_TASK target

    def test_timeline_renders_without_task_markers(self, mr_analysis):
        _bed, _app, _checker, traces = mr_analysis
        text = render_timeline(next(iter(traces.values())))
        assert "driver" in text
        assert text.count("executor-") == 6  # 5 maps + 1 reduce lifelines

    def test_no_bug_findings_for_mr(self, mr_analysis):
        """MR children log 'Task attempt_... is done' instead of Spark's
        'Got assigned task'; the detector recognizes both as work."""
        bed, _app, checker, _traces = mr_analysis
        report = checker.analyze(bed.log_store)
        assert report.bug_findings == []
