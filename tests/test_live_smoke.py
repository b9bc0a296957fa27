"""End-to-end smoke tests for ``python -m repro.live {watch,serve,query}``.

These are the tests ``make live-smoke`` runs in CI: fast, no fixed
ports (the server binds port 0), and every path exercised the way an
operator would drive it.
"""

from __future__ import annotations

import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.checker import SDChecker
from repro.live import LiveSession, serve_in_thread
from repro.live.cli import main

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden"
APP_ID = "application_1515715200000_0001"
SRC = Path(__file__).resolve().parents[1] / "src"


def _golden_copy(tmp_path):
    logdir = tmp_path / "logs"
    logdir.mkdir()
    for path in sorted(GOLDEN.iterdir()):
        (logdir / path.name).write_bytes(path.read_bytes())
    return logdir


class _ClosedStdout(io.StringIO):
    """A stdout whose reader has gone: every write raises EPIPE."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


class TestWatch:
    def test_watch_json_matches_batch(self, tmp_path, capsys):
        logdir = _golden_copy(tmp_path)
        rc = main(
            [
                "watch",
                str(logdir),
                "--poll-interval",
                "0.01",
                "--idle-polls",
                "1",
                "--json",
            ]
        )
        assert rc == 0
        live = json.loads(capsys.readouterr().out)
        batch = SDChecker(jobs=1).analyze(logdir)
        assert live == batch.to_dict(include_diagnostics=True)

    def test_watch_text_summary(self, tmp_path, capsys):
        logdir = _golden_copy(tmp_path)
        rc = main(
            ["watch", str(logdir), "--poll-interval", "0.01", "--idle-polls", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("SDchecker report: 1 application(s)")

    def test_watch_writes_a_checkpoint(self, tmp_path, capsys):
        logdir = _golden_copy(tmp_path)
        checkpoint = tmp_path / "state.json"
        rc = main(
            [
                "watch",
                str(logdir),
                "--poll-interval",
                "0.01",
                "--idle-polls",
                "1",
                "--checkpoint",
                str(checkpoint),
            ]
        )
        assert rc == 0
        state = json.loads(checkpoint.read_text())
        assert state["drained"] is True

    def test_watch_checkpoint_creates_missing_parent_directories(
        self, tmp_path, capsys
    ):
        logdir = _golden_copy(tmp_path)
        checkpoint = tmp_path / "missing" / "dir" / "state.json"
        rc = main(
            [
                "watch",
                str(logdir),
                "--poll-interval",
                "0.01",
                "--idle-polls",
                "1",
                "--checkpoint",
                str(checkpoint),
            ]
        )
        assert rc == 0
        assert json.loads(checkpoint.read_text())["drained"] is True

    def test_watch_module_entry_point(self, tmp_path):
        logdir = _golden_copy(tmp_path)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.live",
                "watch",
                str(logdir),
                "--poll-interval",
                "0.01",
                "--idle-polls",
                "1",
                "--json",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        live = json.loads(result.stdout)
        assert [a["app_id"] for a in live["applications"]] == [APP_ID]

    def test_max_polls_bounds_the_loop(self, tmp_path, capsys):
        logdir = _golden_copy(tmp_path)
        rc = main(
            [
                "watch",
                str(logdir),
                "--poll-interval",
                "0.01",
                "--idle-polls",
                "1000000",
                "--max-polls",
                "2",
                "--json",
            ]
        )
        assert rc == 0  # terminates despite the huge idle threshold


class TestQueryCli:
    @pytest.fixture()
    def server(self, tmp_path):
        session = LiveSession(_golden_copy(tmp_path))
        handle = serve_in_thread(session, poll_interval=0.01)
        yield handle
        handle.stop()

    def _query(self, server, *argv):
        return main(
            ["query", *argv, "--host", server.host, "--port", str(server.port)]
        )

    def test_query_apps(self, server, capsys):
        assert self._query(server, "apps") == 0
        (app,) = json.loads(capsys.readouterr().out)
        assert app["app_id"] == APP_ID

    def test_query_decomposition(self, server, capsys):
        assert self._query(server, "decomposition", APP_ID) == 0
        decomposition = json.loads(capsys.readouterr().out)
        assert decomposition["status"] == "final"

    def test_query_decomposition_needs_app_id(self, server, capsys):
        assert self._query(server, "decomposition") == 2

    def test_query_diagnostics(self, server, capsys):
        assert self._query(server, "diagnostics") == 0
        diagnostics = json.loads(capsys.readouterr().out)
        assert diagnostics["degraded"] is False

    def test_query_metrics_prints_exposition_text(self, server, capsys):
        assert self._query(server, "metrics") == 0
        out = capsys.readouterr().out
        assert out.startswith("# HELP")

    def test_query_unreachable_server_fails_cleanly(self, tmp_path, capsys):
        rc = main(
            ["query", "apps", "--port", "1", "--timeout", "1"]
        )
        assert rc == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_query_shutdown(self, server, capsys):
        assert self._query(server, "shutdown") == 0

    def test_query_into_a_closed_stdout_exits_quietly(
        self, server, capsys, monkeypatch
    ):
        monkeypatch.setattr(sys, "stdout", _ClosedStdout())
        assert self._query(server, "apps") == 0
        assert capsys.readouterr().err == ""

    def test_closed_stdout_still_reports_an_unreachable_server(
        self, capsys, monkeypatch
    ):
        monkeypatch.setattr(sys, "stdout", _ClosedStdout())
        assert main(["query", "apps", "--port", "1", "--timeout", "1"]) == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_query_piped_into_a_reader_that_has_gone(self, server):
        # ``query apps | head -1`` once ``head`` has exited.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro.live",
                    "query",
                    "apps",
                    "--host",
                    server.host,
                    "--port",
                    str(server.port),
                ],
                env=dict(os.environ, PYTHONPATH=str(SRC)),
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (0, "")


class TestServeCli:
    def test_serve_runs_until_client_shutdown(self, tmp_path):
        logdir = _golden_copy(tmp_path)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        # Leaving the ``with`` closes both pipes and reaps the process.
        with subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.live",
                "serve",
                str(logdir),
                "--port",
                "0",
                "--poll-interval",
                "0.01",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        ) as process:
            try:
                # The banner announces the bound port.
                banner = process.stderr.readline()
                assert "serving" in banner
                port = int(banner.rsplit(":", 1)[1])
                rc = main(["query", "shutdown", "--port", str(port)])
                assert rc == 0
                assert process.wait(timeout=60) == 0
            finally:
                if process.poll() is None:
                    process.kill()
