"""Tests for the log-consistency validator."""

import pytest

from repro.core.grouping import group_events
from repro.core.parser import LogMiner
from repro.core.validate import validate_trace, validate_traces
from repro.logsys.store import LogStore
from tests.test_core_parser import APP, EXEC, build_store


def _mine(lines):
    return group_events(LogMiner().mine(LogStore.from_lines(lines))[0])


class TestCleanLogs:
    def test_reference_store_is_clean(self):
        traces = group_events(LogMiner().mine(build_store())[0])
        assert validate_traces(traces) == []

    def test_simulated_run_is_clean(self, single_app_run):
        bed, _app, _report = single_app_run
        from repro.core.checker import SDChecker

        traces = SDChecker().group(bed.log_store)
        assert validate_traces(traces) == []

    def test_opportunistic_run_is_clean(self, opportunistic_run):
        bed, _app, _report = opportunistic_run
        from repro.core.checker import SDChecker

        traces = SDChecker().group(bed.log_store)
        assert validate_traces(traces) == []


class TestViolations:
    def test_out_of_order_app_states(self):
        traces = _mine(
            [
                ("hadoop-resourcemanager", f"2018-01-12 00:00:05,000 INFO x.RMAppImpl: {APP} State change from SUBMITTED to ACCEPTED on event = APP_ACCEPTED"),
                ("hadoop-resourcemanager", f"2018-01-12 00:00:09,000 INFO x.RMAppImpl: {APP} State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"),
            ]
        )
        violations = validate_trace(traces[APP])
        assert any(v.kind == "order" for v in violations)

    def test_duplicate_state(self):
        traces = _mine(
            [
                ("hadoop-resourcemanager", f"2018-01-12 00:00:01,000 INFO x.RMContainerImpl: {EXEC} Container Transitioned from NEW to ALLOCATED"),
                ("hadoop-resourcemanager", f"2018-01-12 00:00:02,000 INFO x.RMContainerImpl: {EXEC} Container Transitioned from NEW to ALLOCATED"),
            ]
        )
        violations = validate_trace(traces[APP])
        assert any("duplicate" in v.detail for v in violations)

    def test_causality_task_before_running(self):
        traces = _mine(
            [
                ("hadoop-nodemanager-node01", f"2018-01-12 00:00:05,000 INFO x.ContainerImpl: Container {EXEC} transitioned from SCHEDULED to RUNNING"),
                (EXEC, f"2018-01-12 00:00:04,000 INFO org.apache.spark.executor.CoarseGrainedExecutorBackend: Started daemon with process name: 9@x for container {EXEC}"),
                (EXEC, "2018-01-12 00:00:04,500 INFO org.apache.spark.executor.Executor: Got assigned task 0"),
            ]
        )
        violations = validate_trace(traces[APP])
        assert any(v.kind == "causality" for v in violations)

    def test_localizing_before_acquired(self):
        traces = _mine(
            [
                ("hadoop-resourcemanager", f"2018-01-12 00:00:05,000 INFO x.RMContainerImpl: {EXEC} Container Transitioned from ALLOCATED to ACQUIRED"),
                ("hadoop-nodemanager-node01", f"2018-01-12 00:00:03,000 INFO x.ContainerImpl: Container {EXEC} transitioned from NEW to LOCALIZING"),
            ]
        )
        violations = validate_trace(traces[APP])
        assert any("acquired" in v.detail for v in violations)

    def test_describe_format(self):
        from repro.core.validate import Violation

        v = Violation("container_x", "order", "something odd")
        assert v.describe() == "container_x [order]: something odd"


class TestCliValidate:
    def test_clean_logs_exit_zero(self, single_app_run, tmp_path, capsys):
        from repro.core.cli import main

        bed, _app, _report = single_app_run
        bed.dump_logs(tmp_path)
        assert main([str(tmp_path), "--validate"]) == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_corrupt_logs_exit_one(self, tmp_path, capsys):
        from repro.core.cli import main

        (tmp_path / "hadoop-resourcemanager.log").write_text(
            f"2018-01-12 00:00:05,000 INFO x.RMAppImpl: {APP} State change from SUBMITTED to ACCEPTED on event = APP_ACCEPTED\n"
            f"2018-01-12 00:00:09,000 INFO x.RMAppImpl: {APP} State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED\n"
        )
        assert main([str(tmp_path), "--validate"]) == 1
        assert "order" in capsys.readouterr().out
