"""Tests for the scheduling graph (Fig 3)."""

import pytest

from repro.core.checker import SDChecker
from repro.core.graph import SchedulingGraph
from repro.core.grouping import group_events
from repro.core.parser import LogMiner
from tests.test_core_parser import AM, APP, EXEC, build_store


@pytest.fixture(scope="module")
def graph():
    traces = group_events(LogMiner().mine(build_store())[0])
    return SchedulingGraph(traces[APP])


class TestStructure:
    def test_is_dag(self, graph):
        assert graph.is_dag()

    def test_yarn_vs_spark_node_shapes(self, graph):
        g = graph.to_networkx()
        owners = {data["kind"]: data["owner"] for _n, data in g.nodes(data=True)}
        assert owners["APP_SUBMITTED"] == "yarn"
        assert owners["CONTAINER_LOCALIZING"] == "yarn"
        assert owners["INSTANCE_FIRST_LOG"] == "spark"
        assert owners["FIRST_TASK"] == "spark"

    def test_edges_carry_elapsed_time(self, graph):
        g = graph.to_networkx()
        a = f"{EXEC}:CONTAINER_ALLOCATED"
        b = f"{EXEC}:CONTAINER_ACQUIRED"
        assert g.edges[a, b]["weight"] == pytest.approx(0.5)
        assert g.edges[a, b]["component"] == "acquisition"

    def test_no_backward_edges(self, graph):
        g = graph.to_networkx()
        for a, b, data in g.edges(data=True):
            assert data["weight"] >= 0


class TestCriticalPath:
    def test_path_spans_submit_to_first_task(self, graph):
        path = graph.critical_path()
        assert path, "critical path must exist"
        assert path[0][0] == "app:APP_SUBMITTED"
        assert path[-1][1].endswith("FIRST_TASK")

    def test_path_time_equals_total_delay(self, graph):
        path = graph.critical_path()
        total = sum(seconds for _a, _b, seconds, _c in path)
        # submitted 0.1 -> first task 9.5
        assert total == pytest.approx(9.4)

    def test_path_components_are_labelled(self, graph):
        components = {c for _a, _b, _s, c in graph.critical_path()}
        assert "driver-delay" in components
        assert "executor-delay" in components


class TestDot:
    def test_dot_renders_shapes(self, graph):
        dot = graph.to_dot()
        assert dot.startswith("digraph")
        assert "shape=box" in dot  # YARN states
        assert "shape=ellipse" in dot  # Spark states

    def test_dot_contains_components(self, graph):
        assert "acquisition" in graph.to_dot()


class TestOnRealRun:
    def test_graph_from_simulated_run(self, single_app_run):
        bed, app, _report = single_app_run
        checker = SDChecker()
        traces = checker.group(bed.log_store)
        graph = checker.graph(traces[str(app.app_id)])
        assert graph.is_dag()
        assert graph.node_count >= 20
        path = graph.critical_path()
        total = sum(s for _a, _b, s, _c in path)
        report_total = _report_total(_report, str(app.app_id))
        assert total == pytest.approx(report_total, abs=0.01)


def _report_total(report, app_id):
    return next(a.total_delay for a in report.apps if a.app_id == app_id)
