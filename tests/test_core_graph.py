"""Tests for the scheduling graph (Fig 3)."""

import graphlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.checker import SDChecker
from repro.core.graph import SchedulingGraph, longest_path
from repro.core.grouping import group_events
from repro.core.parser import LogMiner
from tests.test_core_parser import AM, APP, EXEC, build_store


def is_dag(graph) -> bool:
    """Whether ``graph.succ`` has no cycle (graphlib sorts its reverse,
    which has the same cycles)."""
    try:
        graphlib.TopologicalSorter(graph.succ).prepare()
    except graphlib.CycleError:
        return False
    return True


@pytest.fixture(scope="module")
def graph():
    traces = group_events(LogMiner().mine(build_store())[0])
    return SchedulingGraph(traces[APP])


class TestStructure:
    def test_is_dag(self, graph):
        assert is_dag(graph)

    def test_yarn_vs_spark_node_shapes(self, graph):
        owners = {data["kind"]: data["owner"] for data in graph.nodes.values()}
        assert owners["APP_SUBMITTED"] == "yarn"
        assert owners["CONTAINER_LOCALIZING"] == "yarn"
        assert owners["INSTANCE_FIRST_LOG"] == "spark"
        assert owners["FIRST_TASK"] == "spark"

    def test_edges_carry_elapsed_time(self, graph):
        a = f"{EXEC}:CONTAINER_ALLOCATED"
        b = f"{EXEC}:CONTAINER_ACQUIRED"
        assert graph.succ[a][b]["weight"] == pytest.approx(0.5)
        assert graph.succ[a][b]["component"] == "acquisition"

    def test_no_backward_edges(self, graph):
        for successors in graph.succ.values():
            for data in successors.values():
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


#: Weights whose partial sums round: 0.1 + 0.2 != 0.3, and 1e16 swallows
#: the small ones, so equal-looking paths tie or differ by one ulp.
ROUNDING_PRONE = (0.0, 0.1, 0.2, 0.3, 0.7, 1e16)


@st.composite
def dags(draw):
    """``(succ, source, target)`` over a random DAG of 2-8 nodes.

    Node ``str(i)`` has rank ``i`` and edges go up in rank; nodes are
    inserted in a random order and edges in another, with weights from
    :data:`ROUNDING_PRONE` or millisecond floats.
    """
    n = draw(st.integers(2, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    weight = st.one_of(
        st.sampled_from(ROUNDING_PRONE),
        st.integers(0, 10**6).map(lambda ms: ms / 1000),
    )
    succ = {str(i): {} for i in draw(st.permutations(range(n)))}
    for a, b in draw(st.lists(st.sampled_from(pairs), unique=True)):
        succ[str(a)][str(b)] = {"weight": draw(weight)}
    source, target = draw(st.sampled_from(pairs))
    return succ, str(source), str(target)


def reference_longest_path(succ, source, target):
    """Every source -> target path, in order of its tuple of successor
    indices; the first whose ``sum`` of weights is the maximum."""
    paths = []

    def extend(path, indices):
        if path[-1] == target:
            paths.append((indices, path))
            return
        for i, node in enumerate(succ[path[-1]]):
            if node not in path:
                extend(path + [node], indices + (i,))

    extend([source], ())
    paths.sort(key=lambda item: item[0])
    weights = lambda path: sum(succ[a][b]["weight"] for a, b in zip(path, path[1:]))
    return max((path for _indices, path in paths), key=weights, default=[])


class TestLongestPath:
    @settings(max_examples=400, deadline=None)
    @given(dags())
    def test_matches_first_maximum_of_every_path(self, dag):
        succ, source, target = dag
        assert longest_path(succ, source, target) == reference_longest_path(
            succ, source, target
        )

    def test_tie_keeps_the_earlier_path(self):
        # The later path reaches "m" one ulp longer (0.1 + 0.2 + 0.3 >
        # 0.3 + 0.3), but both totals round to 1e16: the earlier path in
        # depth-first order wins, where a per-node maximum would not.
        succ = {
            "s": {"c": {"weight": 0.3}, "a": {"weight": 0.1}},
            "c": {"m": {"weight": 0.3}},
            "a": {"b": {"weight": 0.2}},
            "b": {"m": {"weight": 0.3}},
            "m": {"t": {"weight": 1e16}},
            "t": {},
        }
        assert 0.3 + 0.3 < 0.1 + 0.2 + 0.3
        assert longest_path(succ, "s", "t") == ["s", "c", "m", "t"]

    def test_unreachable_target_is_empty(self):
        succ = {"s": {}, "t": {"s": {"weight": 1.0}}}
        assert longest_path(succ, "s", "t") == []


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
        assert is_dag(graph)
        assert len(graph.nodes) >= 20
        path = graph.critical_path()
        total = sum(s for _a, _b, s, _c in path)
        report_total = _report_total(_report, str(app.app_id))
        assert total == pytest.approx(report_total, abs=0.01)


def _report_total(report, app_id):
    return next(a.total_delay for a in report.apps if a.app_id == app_id)
