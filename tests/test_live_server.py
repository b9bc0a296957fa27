"""Tests for the JSON-lines query server, its client, and backpressure."""

from __future__ import annotations

import asyncio
import json
import logging
import socket
from pathlib import Path

import pytest

from repro.live import LiveClient, LiveSession, QueryError, serve_in_thread
from repro.live.server import LiveServer

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden"
APP_ID = "application_1515715200000_0001"


def _golden_copy(tmp_path):
    logdir = tmp_path / "logs"
    logdir.mkdir()
    for path in sorted(GOLDEN.iterdir()):
        (logdir / path.name).write_bytes(path.read_bytes())
    return logdir


@pytest.fixture()
def handle(tmp_path):
    session = LiveSession(_golden_copy(tmp_path))
    server = serve_in_thread(session, poll_interval=0.01)
    yield server
    server.stop()


class TestOperations:
    def test_apps(self, handle):
        with LiveClient(handle.host, handle.port) as client:
            (app,) = client.apps()
        assert app["app_id"] == APP_ID
        assert app["status"] == "final"
        assert app["containers"] == 5

    def test_decomposition(self, handle):
        with LiveClient(handle.host, handle.port) as client:
            decomposition = client.decomposition(APP_ID)
        assert decomposition["status"] == "final"
        assert decomposition["total_delay"] == pytest.approx(15.886)
        assert len(decomposition["containers"]) == 5

    def test_diagnostics(self, handle):
        with LiveClient(handle.host, handle.port) as client:
            diagnostics = client.diagnostics()
        assert diagnostics["degraded"] is False
        assert "tail_lag_bytes" in diagnostics
        assert "rotations" in diagnostics and "resyncs" in diagnostics

    def test_metrics_exposition(self, handle):
        with LiveClient(handle.host, handle.port) as client:
            text = client.metrics()
        assert "# TYPE repro_live_ingest_lines_total counter" in text
        assert "# TYPE repro_live_component_delay_seconds histogram" in text
        assert 'le="+Inf"' in text

    def test_queries_are_counted(self, handle):
        with LiveClient(handle.host, handle.port) as client:
            client.apps()
            client.apps()
            text = client.metrics()
        # The metrics call itself is the third query.
        assert "repro_live_queries_total 3" in text

    def test_shutdown_stops_the_server(self, handle):
        with LiveClient(handle.host, handle.port) as client:
            assert client.shutdown() == "shutting down"
        # The listening socket goes away; further connects fail.
        handle.stop()
        with pytest.raises(OSError):
            socket.create_connection((handle.host, handle.port), timeout=1.0)


class TestStop:
    def test_stop_with_an_idle_client_logs_no_error(self, handle, caplog):
        # The handler is parked reading the client's next line when the
        # server stops: it must return, not be cancelled, or asyncio's
        # stream callback logs the CancelledError.
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with LiveClient(handle.host, handle.port) as client:
                client.apps()
                handle.stop()
                with pytest.raises(ConnectionError):
                    client.apps()
        assert [r.getMessage() for r in caplog.records] == []


class TestPollFailure:
    def test_a_failed_poll_is_logged_and_answered(self, tmp_path, caplog):
        # Two copies of one directory hold the same daemons, which the
        # session rejects on its first poll.
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        session = LiveSession(
            [_golden_copy(tmp_path / "a"), _golden_copy(tmp_path / "b")]
        )
        with caplog.at_level(logging.ERROR, logger="repro.live"):
            handle = serve_in_thread(session, poll_interval=0.01)
            try:
                with LiveClient(handle.host, handle.port) as client:
                    response = client.request("apps")
                    for op in ("diagnostics", "state", "drain"):
                        assert client.request(op)["error"] == response["error"]
                    with pytest.raises(QueryError, match="^poll failed: "):
                        client.decomposition(APP_ID)
                    assert "repro_live_queries_total" in client.metrics()
            finally:
                handle.stop()
        assert response["ok"] is False
        assert response["error"].startswith("poll failed: daemon ")
        assert "appears in both" in response["error"]
        (record,) = [r for r in caplog.records if r.name == "repro.live"]
        assert "appears in both" in record.getMessage()
        # stop() ran the whole close: the listening socket is gone.
        with pytest.raises(OSError):
            socket.create_connection((handle.host, handle.port), timeout=1.0)


    def test_a_failed_drain_is_logged_and_answered(self, tmp_path, caplog):
        # No poll loop: the duplicate daemons first meet in ``drain``.
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        session = LiveSession(
            [_golden_copy(tmp_path / "a"), _golden_copy(tmp_path / "b")]
        )
        with caplog.at_level(logging.ERROR):
            handle = serve_in_thread(session, poll=False)
            try:
                with LiveClient(handle.host, handle.port) as client:
                    response = client.request("drain")
                    for op in ("drain", "apps", "diagnostics", "state"):
                        assert client.request(op) == {**response, "op": op}
                    assert "repro_live_queries_total" in client.metrics()
                with LiveClient(handle.host, handle.port) as client:
                    with pytest.raises(QueryError, match="^poll failed: "):
                        client.apps()
            finally:
                handle.stop()
        assert response["ok"] is False
        assert response["error"].startswith("poll failed: daemon ")
        assert "appears in both" in response["error"]
        # Logged once on repro.live; nothing escaped to asyncio.
        (record,) = [r for r in caplog.records if r.name == "repro.live"]
        assert "appears in both" in record.getMessage()
        assert [r for r in caplog.records if r.name == "asyncio"] == []


class TestErrors:
    def test_unknown_op(self, handle):
        with LiveClient(handle.host, handle.port) as client:
            response = client.request("frobnicate")
        assert response["ok"] is False
        assert "unknown op" in response["error"]

    def test_unknown_app(self, handle):
        with LiveClient(handle.host, handle.port) as client:
            with pytest.raises(QueryError, match="unknown application"):
                client.decomposition("application_0_0000")

    def test_decomposition_without_app_id(self, handle):
        with LiveClient(handle.host, handle.port) as client:
            response = client.request("decomposition")
        assert response["ok"] is False
        assert "app_id" in response["error"]

    def test_malformed_json_line(self, handle):
        with socket.create_connection(
            (handle.host, handle.port), timeout=5.0
        ) as raw:
            raw.sendall(b"this is not json\n")
            response = json.loads(raw.makefile("rb").readline())
        assert response["ok"] is False
        assert "malformed" in response["error"]

    def test_non_object_json_line(self, handle):
        with socket.create_connection(
            (handle.host, handle.port), timeout=5.0
        ) as raw:
            raw.sendall(b"[1, 2, 3]\n")
            response = json.loads(raw.makefile("rb").readline())
        assert response["ok"] is False

    def test_connection_survives_errors(self, handle):
        # One connection: error, then a good request still answers.
        with LiveClient(handle.host, handle.port) as client:
            assert client.request("nope")["ok"] is False
            assert client.apps()


class TestRequestCounting:
    """Every received request line counts — parseable or not."""

    def test_malformed_lines_count_as_queries(self, tmp_path):
        session = LiveSession(_golden_copy(tmp_path))
        server = serve_in_thread(session, poll_interval=0.01)
        try:
            with socket.create_connection(
                (server.host, server.port), timeout=5.0
            ) as raw:
                reader = raw.makefile("rb")
                raw.sendall(b"this is not json\n")
                json.loads(reader.readline())
                raw.sendall(b"[1, 2, 3]\n")
                json.loads(reader.readline())
                raw.sendall(b'{"op": "apps"}\n')
                json.loads(reader.readline())
        finally:
            server.stop()
        assert session.metrics.counter("repro_live_queries_total").value == 3
        assert (
            session.metrics.counter("repro_live_malformed_requests_total").value
            == 2
        )

    def test_well_formed_requests_are_not_malformed(self, handle):
        with LiveClient(handle.host, handle.port) as client:
            client.apps()
            text = client.metrics()
        assert "repro_live_malformed_requests_total 0" in text


class TestStartupFailure:
    def test_bind_failure_raises_the_original_error(self, tmp_path):
        import errno
        import time

        session = LiveSession(_golden_copy(tmp_path))
        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            taken_port = blocker.getsockname()[1]
            # The real OSError (address in use), immediately — not a
            # generic RuntimeError 30 seconds later.
            started = time.monotonic()
            with pytest.raises(OSError) as excinfo:
                serve_in_thread(session, port=taken_port)
            assert excinfo.value.errno == errno.EADDRINUSE
            assert time.monotonic() - started < 10.0
        finally:
            blocker.close()


class TestShardOps:
    def test_state_round_trips_through_the_miner(self, handle):
        from repro.live.router import report_from_state_payload

        with LiveClient(handle.host, handle.port) as client:
            state = client.state()
        assert state["final_apps"] == [APP_ID]
        report = report_from_state_payload(state)
        (app,) = report.apps
        assert app.app_id == APP_ID

    def test_drain_returns_a_drained_state(self, handle):
        with LiveClient(handle.host, handle.port) as client:
            state = client.drain()
        assert state["drained"] is True
        assert state["tail_lag_bytes"] == 0

    def test_metrics_state_is_mergeable(self, handle):
        from repro.live.metrics import merge_metric_states

        with LiveClient(handle.host, handle.port) as client:
            state = client.metrics_state()
            text = client.metrics()
        merged = merge_metric_states([state])
        # A single-shard merge renders what the server rendered, except
        # the two queries issued between the snapshots.
        assert "repro_live_ingest_lines_total" in merged.render()
        assert "repro_live_ingest_lines_total" in text


class _StalledWriter:
    """A StreamWriter stand-in whose drain() never completes."""

    def __init__(self):
        self.closed = False

    def write(self, data):
        pass

    async def drain(self):
        await asyncio.Event().wait()  # never set: the consumer is stuck

    def close(self):
        self.closed = True

    async def wait_closed(self):
        return None


class TestBackpressure:
    def test_slow_consumer_is_disconnected(self, tmp_path):
        """A consumer that never drains fills its bounded queue and is
        dropped, counted in the slow-consumer metric."""
        session = LiveSession(_golden_copy(tmp_path))
        session.poll()
        server = LiveServer(session, queue_depth=2, poll=False)

        async def scenario():
            reader = asyncio.StreamReader()
            # Queue depth 2 plus the response stuck inside the write
            # loop: the fourth pending response overflows.
            for _ in range(6):
                reader.feed_data(b'{"op": "apps"}\n')
            reader.feed_eof()
            writer = _StalledWriter()
            await asyncio.wait_for(
                server._handle_connection(reader, writer), timeout=5.0
            )
            return writer

        writer = asyncio.run(scenario())
        assert writer.closed
        assert (
            session.metrics.counter(
                "repro_live_slow_consumer_disconnects_total"
            ).value
            == 1
        )

    def test_fast_consumer_is_not_disconnected(self, tmp_path):
        session = LiveSession(_golden_copy(tmp_path))
        server = serve_in_thread(session, poll_interval=0.01, queue_depth=2)
        try:
            with LiveClient(server.host, server.port) as client:
                # Far more requests than the queue depth: fine, because
                # each one is drained before the next is sent.
                for _ in range(20):
                    client.apps()
            assert (
                session.metrics.counter(
                    "repro_live_slow_consumer_disconnects_total"
                ).value
                == 0
            )
        finally:
            server.stop()


class TestServedReportMatchesBatch:
    def test_decomposition_over_the_wire_equals_batch(self, tmp_path):
        from repro.core.checker import SDChecker

        logdir = _golden_copy(tmp_path)
        batch = SDChecker(jobs=1).analyze(logdir).to_dict()
        session = LiveSession(logdir)
        server = serve_in_thread(session, poll_interval=0.01)
        try:
            with LiveClient(server.host, server.port) as client:
                served = client.decomposition(APP_ID)
        finally:
            server.stop()
        (expected,) = batch["applications"]
        served.pop("status")
        # JSON round-trips floats exactly, so equality is exact.
        assert served == expected
