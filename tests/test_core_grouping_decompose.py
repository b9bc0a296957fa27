"""Tests for grouping and delay decomposition on hand-built events.

The store built here has exact, hand-computable timestamps so every
decomposition formula of section III-C is checked against a known
answer.
"""

import pytest

from repro.core.decompose import decompose
from repro.core.events import EventKind
from repro.core.grouping import group_events
from repro.core.parser import LogMiner
from tests.test_core_parser import AM, APP, EXEC, build_store


@pytest.fixture(scope="module")
def trace():
    traces = group_events(LogMiner().mine(build_store())[0])
    assert list(traces) == [APP]
    return traces[APP]


@pytest.fixture(scope="module")
def delays(trace):
    return decompose(trace)


class TestGrouping:
    def test_containers_grouped_under_app(self, trace):
        assert set(trace.containers) == {AM, EXEC}

    def test_am_container_identified(self, trace):
        assert trace.am_container.container_id == AM

    def test_worker_containers(self, trace):
        assert [c.container_id for c in trace.worker_containers] == [EXEC]

    def test_app_level_events_sorted(self, trace):
        times = [e.timestamp for e in trace.events]
        assert times == sorted(times)

    def test_instance_types(self, trace):
        assert trace.containers[AM].instance_type == "spm"
        assert trace.containers[EXEC].instance_type == "spe"

    def test_container_trace_first(self, trace):
        exec_trace = trace.containers[EXEC]
        assert exec_trace.first(EventKind.FIRST_TASK).timestamp == pytest.approx(9.5)
        assert exec_trace.time_of(EventKind.CONTAINER_RELEASED) is None

    def test_events_without_app_id_dropped(self):
        from repro.core.events import SchedulingEvent

        orphan = SchedulingEvent(
            EventKind.CONTAINER_ALLOCATED, 1.0, None, "container_x", "rm"
        )
        assert group_events([orphan]) == {}


class TestInstanceTypeDetailGuard:
    """A YarnChild first-log with missing detail must not crash (#2)."""

    def _mr_trace(self, detail):
        from repro.core.events import SchedulingEvent
        from repro.core.grouping import ContainerTrace

        trace = ContainerTrace(EXEC)
        trace.add(
            SchedulingEvent(
                EventKind.INSTANCE_FIRST_LOG,
                1.0,
                APP,
                EXEC,
                EXEC,
                source_class="org.apache.hadoop.mapred.YarnChild",
                detail=detail,
            )
        )
        return trace

    def test_none_detail_returns_unrefined_mrs(self):
        assert self._mr_trace(None).instance_type == "mrs"

    def test_empty_detail_defaults_to_map_child(self):
        assert self._mr_trace("").instance_type == "mrsm"

    def test_reduce_marker_still_refines(self):
        attempt = "attempt_1515715200000_0001_r_000000_0"
        assert self._mr_trace(f"Starting task {attempt}").instance_type == "mrsr"


class TestDecomposition:
    """Hand-checked against the timestamps in build_store():

    submitted 0.1, registered 5.0, AM first-log 2.0, driver-register
    5.0, START 5.1, END 6.7, exec ALLOCATED 6.0, ACQUIRED 6.5,
    LOCALIZING 6.6, SCHEDULED 7.1, NM RUNNING 7.9, exec first-log 7.9,
    first task 9.5.
    """

    def test_total_delay(self, delays):
        assert delays.total_delay == pytest.approx(9.5 - 0.1)

    def test_am_delay(self, delays):
        assert delays.am_delay == pytest.approx(5.0 - 0.1)

    def test_driver_delay(self, delays):
        assert delays.driver_delay == pytest.approx(5.0 - 2.0)

    def test_executor_delay(self, delays):
        assert delays.executor_delay == pytest.approx(9.5 - 7.9)

    def test_in_out_split(self, delays):
        assert delays.in_app_delay == pytest.approx(3.0 + 1.6)
        assert delays.out_app_delay == pytest.approx(delays.total_delay - 4.6)

    def test_allocation_delay(self, delays):
        assert delays.allocation_delay == pytest.approx(6.7 - 5.1)

    def test_cf_cl(self, delays):
        assert delays.cf_delay == pytest.approx(7.9 - 0.1)
        assert delays.cl_delay == pytest.approx(7.9 - 0.1)
        assert delays.cl_cf_delay == pytest.approx(0.0)

    def test_container_components(self, delays):
        exec_delays = next(c for c in delays.containers if c.container_id == EXEC)
        assert exec_delays.acquisition_delay == pytest.approx(0.5)
        assert exec_delays.localization_delay == pytest.approx(0.5)
        assert exec_delays.launching_delay == pytest.approx(0.8)

    def test_job_runtime_none_without_finish(self, delays):
        assert delays.job_runtime is None  # no FINISHED line in the store
        assert delays.normalized_total is None

    def test_complete_flag(self, delays):
        assert delays.complete()


class TestMissingEvents:
    def test_partial_workflow_yields_none_metrics(self):
        from repro.logsys.store import LogStore

        store = LogStore.from_lines(
            [
                (
                    "hadoop-resourcemanager",
                    f"2018-01-12 00:00:00,100 INFO x.RMAppImpl: {APP} State "
                    "change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED",
                ),
                (
                    "hadoop-resourcemanager",
                    f"2018-01-12 00:00:00,300 INFO x.RMContainerImpl: {EXEC} "
                    "Container Transitioned from NEW to ALLOCATED",
                ),
            ]
        )
        traces = group_events(LogMiner().mine(store)[0])
        delays = decompose(traces[APP])
        assert delays.total_delay is None
        assert delays.am_delay is None
        assert delays.driver_delay is None
        assert not delays.complete()
        container = delays.containers[0]
        assert container.acquisition_delay is None
