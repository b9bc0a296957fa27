"""Tests for the log miner."""

import pytest

from repro.core.events import EventKind
from repro.core.parser import LogMiner
from repro.logsys.store import LogStore

APP = "application_1515715200000_0001"
AM = "container_1515715200000_0001_01_000001"
EXEC = "container_1515715200000_0001_01_000002"


def build_store() -> LogStore:
    """A hand-written log collection covering every Table I message."""
    lines = [
        # ResourceManager
        ("hadoop-resourcemanager", f"2018-01-12 00:00:00,100 INFO x.RMAppImpl: {APP} State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"),
        ("hadoop-resourcemanager", f"2018-01-12 00:00:00,200 INFO x.RMAppImpl: {APP} State change from SUBMITTED to ACCEPTED on event = APP_ACCEPTED"),
        ("hadoop-resourcemanager", f"2018-01-12 00:00:00,300 INFO x.RMContainerImpl: {AM} Container Transitioned from NEW to ALLOCATED"),
        ("hadoop-resourcemanager", f"2018-01-12 00:00:00,400 INFO x.RMContainerImpl: {AM} Container Transitioned from ALLOCATED to ACQUIRED"),
        ("hadoop-resourcemanager", f"2018-01-12 00:00:05,000 INFO x.RMAppImpl: {APP} State change from ACCEPTED to RUNNING on event = ATTEMPT_REGISTERED"),
        ("hadoop-resourcemanager", f"2018-01-12 00:00:06,000 INFO x.RMContainerImpl: {EXEC} Container Transitioned from NEW to ALLOCATED"),
        ("hadoop-resourcemanager", f"2018-01-12 00:00:06,500 INFO x.RMContainerImpl: {EXEC} Container Transitioned from ALLOCATED to ACQUIRED"),
        # NodeManager
        ("hadoop-nodemanager-node02", f"2018-01-12 00:00:06,600 INFO x.ContainerImpl: Container {EXEC} transitioned from NEW to LOCALIZING"),
        ("hadoop-nodemanager-node02", f"2018-01-12 00:00:07,100 INFO x.ContainerImpl: Container {EXEC} transitioned from LOCALIZING to SCHEDULED"),
        ("hadoop-nodemanager-node02", f"2018-01-12 00:00:07,900 INFO x.ContainerImpl: Container {EXEC} transitioned from SCHEDULED to RUNNING"),
        # Driver log
        (AM, "2018-01-12 00:00:02,000 INFO org.apache.spark.deploy.yarn.ApplicationMaster: Preparing Local resources"),
        (AM, f"2018-01-12 00:00:05,000 INFO org.apache.spark.deploy.yarn.ApplicationMaster: Registered ApplicationMaster for {APP}"),
        (AM, f"2018-01-12 00:00:05,100 INFO org.apache.spark.deploy.yarn.YarnAllocator: SDCHECKER START_ALLO Will request 1 executor container(s) for {APP}"),
        (AM, f"2018-01-12 00:00:06,700 INFO org.apache.spark.deploy.yarn.YarnAllocator: SDCHECKER END_ALLO All requested containers allocated for {APP} (1 granted)"),
        # Executor log
        (EXEC, f"2018-01-12 00:00:07,900 INFO org.apache.spark.executor.CoarseGrainedExecutorBackend: Started daemon with process name: 2@node02 for container {EXEC}"),
        (EXEC, "2018-01-12 00:00:09,500 INFO org.apache.spark.executor.Executor: Got assigned task 0"),
        (EXEC, "2018-01-12 00:00:09,900 INFO org.apache.spark.executor.Executor: Got assigned task 1"),
    ]
    return LogStore.from_lines(lines)


class TestMining:
    def test_extracts_every_table1_kind(self):
        events = LogMiner().mine(build_store())[0]
        kinds = {e.kind for e in events}
        assert kinds == {
            EventKind.APP_SUBMITTED,
            EventKind.APP_ACCEPTED,
            EventKind.APP_ATTEMPT_REGISTERED,
            EventKind.CONTAINER_ALLOCATED,
            EventKind.CONTAINER_ACQUIRED,
            EventKind.CONTAINER_LOCALIZING,
            EventKind.CONTAINER_SCHEDULED,
            EventKind.CONTAINER_NM_RUNNING,
            EventKind.INSTANCE_FIRST_LOG,
            EventKind.DRIVER_REGISTERED,
            EventKind.START_ALLO,
            EventKind.END_ALLO,
            EventKind.FIRST_TASK,
        }

    def test_first_log_is_streams_first_line(self):
        events = LogMiner().mine(build_store())[0]
        first_logs = [e for e in events if e.kind is EventKind.INSTANCE_FIRST_LOG]
        am_first = next(e for e in first_logs if e.container_id == AM)
        assert am_first.timestamp == pytest.approx(2.0)
        assert "ApplicationMaster" in am_first.source_class

    def test_only_first_task_line_yields_event(self):
        events = LogMiner().mine(build_store())[0]
        tasks = [e for e in events if e.kind is EventKind.FIRST_TASK]
        assert len(tasks) == 1
        assert tasks[0].timestamp == pytest.approx(9.5)

    def test_container_events_bind_app_id(self):
        events = LogMiner().mine(build_store())[0]
        for event in events:
            assert event.app_id == APP

    def test_unknown_streams_ignored(self):
        store = build_store()
        store.append(
            "random-service",
            __import__("repro.logsys.record", fromlist=["LogRecord"]).LogRecord(
                1.0, "X", "whatever"
            ),
        )
        events_with = LogMiner().mine(store)[0]
        assert all(e.daemon != "random-service" for e in events_with)

    def test_mining_from_directory(self, tmp_path):
        store = build_store()
        store.dump(tmp_path)
        events = LogMiner().mine(tmp_path)[0]
        assert len(events) == len(LogMiner().mine(store)[0])

    def test_noise_lines_between_messages_tolerated(self):
        store = build_store()
        from repro.logsys.record import LogRecord

        store.append("hadoop-resourcemanager", LogRecord(3.0, "x.RMAppImpl", "garbage text"))
        store.append("hadoop-resourcemanager", LogRecord(3.0, "x.Other", "noise"))
        events = LogMiner().mine(store)[0]
        assert len([e for e in events if e.kind is EventKind.APP_SUBMITTED]) == 1
