"""Tests for the Fig 10 timeline rendering."""

import pytest

from repro.core.checker import SDChecker
from repro.core.grouping import ApplicationTrace
from repro.core.timeline import render_timeline
from repro.core.parser import LogMiner
from repro.core.grouping import group_events
from tests.test_core_parser import AM, APP, EXEC, build_store


class TestRenderTimeline:
    @pytest.fixture(scope="class")
    def text(self, single_app_run):
        bed, app, _report = single_app_run
        traces = SDChecker().group(bed.log_store)
        return render_timeline(traces[str(app.app_id)])

    def test_one_row_per_container(self, text):
        assert text.count("executor-") == 4
        assert "driver" in text

    def test_idle_phase_precedes_work(self, text):
        exec_row = next(l for l in text.splitlines() if l.startswith("executor-1"))
        body = exec_row.split("|")[1]
        assert "-" in body and "=" in body
        assert body.index("-") < body.index("=")

    def test_first_task_marker_present(self, text):
        assert "T" in text

    def test_legend(self, text):
        assert "idle (waiting for driver)" in text

    def test_hand_built_trace(self):
        traces = group_events(LogMiner().mine(build_store())[0])
        text = render_timeline(traces[APP], width=40)
        assert APP in text
        assert "driver" in text and "executor-1" in text

    def test_empty_trace(self):
        assert "no events" in render_timeline(ApplicationTrace("application_1_0009"))

    def test_cli_timeline_mode(self, single_app_run, tmp_path, capsys):
        from repro.core.cli import main

        bed, app, _report = single_app_run
        bed.dump_logs(tmp_path)
        assert main([str(tmp_path), "--timeline", str(app.app_id)]) == 0
        assert "executor-1" in capsys.readouterr().out
        assert main([str(tmp_path), "--timeline", "application_9_9999"]) == 2
