"""Tests for the JSON-lines query server, its client, and backpressure."""

from __future__ import annotations

import asyncio
import json
import logging
import socket
from pathlib import Path

import pytest

from repro.live import LiveClient, LiveSession, QueryError, serve_in_thread
from repro.live.server import MAX_LINE, LiveServer, _Connection

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


class _Transport(asyncio.Transport):
    """An in-memory transport that records what a connection writes."""

    def __init__(self, protocol):
        super().__init__()
        self.protocol = protocol
        self.written = []
        self.closes = self.aborts = 0
        self._closing = False
        protocol.connection_made(self)

    def feed(self, data: bytes) -> None:
        """Deliver ``data`` as one read."""
        buffer = self.protocol.get_buffer(-1)
        buffer[: len(data)] = data
        self.protocol.buffer_updated(len(data))

    def lines(self):
        return b"".join(self.written).splitlines()

    def write(self, data):
        self.written.append(bytes(data))

    def is_closing(self):
        return self._closing

    def close(self):
        self.closes += 1
        self._lose()

    def abort(self):
        self.aborts += 1
        self._lose()

    def pause_reading(self):
        pass

    def resume_reading(self):
        pass

    def _lose(self):
        if not self._closing:
            self._closing = True
            asyncio.get_running_loop().call_soon(
                self.protocol.connection_lost, None
            )


def _polled_server(tmp_path, **options) -> LiveServer:
    session = LiveSession(_golden_copy(tmp_path))
    session.poll()
    return LiveServer(session, poll=False, **options)


def _drive(server: LiveServer, *reads: bytes, peer_reads: bool = True):
    """Feed ``reads`` to one connection of ``server``; its transport."""

    async def scenario():
        transport = _Transport(_Connection(server))
        if not peer_reads:
            transport.protocol.pause_writing()
        for data in reads:
            transport.feed(data)
        await asyncio.sleep(0)  # let a dropped connection report lost
        return transport

    return asyncio.run(scenario())


def _counter(server: LiveServer, name: str) -> float:
    return server.metrics.counter(name).value


class TestBackpressure:
    def test_slow_consumer_is_disconnected(self, tmp_path):
        """A consumer that stops reading pauses its transport's writing;
        past queue_depth further responses it is dropped, counted in the
        slow-consumer metric."""
        server = _polled_server(tmp_path, queue_depth=2)
        transport = _drive(
            server, b'{"op": "apps"}\n' * 6, peer_reads=False
        )
        assert transport.aborts == 1 and transport.closes == 0
        # Two responses fit the depth; the third would overflow it.
        assert len(transport.lines()) == 2
        assert _counter(server, "repro_live_slow_consumer_disconnects_total") == 1
        assert _counter(server, "repro_live_queries_total") == 3
        assert server._connections == set()

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

    def test_a_pipelined_burst_is_answered_in_order(self, handle):
        """A burst sent in one write, read promptly, is answered in full:
        buffered requests are answered without yielding, and that alone
        must not count as a slow consumer."""
        requests = [
            {"op": "apps"}
            if i % 2 == 0
            else {"op": "decomposition", "app_id": f"application_0_{i:04d}"}
            for i in range(200)
        ]
        with socket.create_connection((handle.host, handle.port), timeout=5.0) as raw:
            raw.sendall(b"".join(json.dumps(r).encode() + b"\n" for r in requests))
            reader = raw.makefile("rb")
            responses = [json.loads(reader.readline()) for _ in requests]
            with LiveClient(handle.host, handle.port) as client:
                metrics = client.metrics()
        assert [r["op"] for r in responses] == [r["op"] for r in requests]
        for request, response in zip(requests, responses):
            if request["op"] == "apps":
                assert response["ok"] is True
            else:
                assert response["error"] == (
                    f"unknown application {request['app_id']!r}"
                )
        assert "repro_live_slow_consumer_disconnects_total 0" in metrics


class TestFraming:
    def test_a_request_split_across_two_reads_is_answered_once(self, tmp_path):
        server = _polled_server(tmp_path)
        transport = _drive(server, b'{"op": "ap', b'ps"}\n')
        (line,) = transport.lines()
        assert json.loads(line)["op"] == "apps"
        assert _counter(server, "repro_live_queries_total") == 1

    def test_two_requests_in_one_read_are_each_answered_once(self, tmp_path):
        server = _polled_server(tmp_path)
        transport = _drive(server, b'{"op": "apps"}\n{"op": "state"}\n')
        assert [json.loads(line)["op"] for line in transport.lines()] == [
            "apps",
            "state",
        ]
        assert _counter(server, "repro_live_queries_total") == 2

    def test_requests_pipelined_before_eof_are_answered_then_closed(
        self, handle
    ):
        with socket.create_connection((handle.host, handle.port), timeout=5.0) as raw:
            raw.sendall(b'{"op": "apps"}\n{"op": "diagnostics"}\n{"op": "apps"}\n')
            raw.shutdown(socket.SHUT_WR)
            lines = raw.makefile("rb").readlines()  # until the server closes
        assert [json.loads(line)["op"] for line in lines] == [
            "apps",
            "diagnostics",
            "apps",
        ]

    def test_a_tail_without_newline_at_eof_is_malformed(self, tmp_path):
        server = _polled_server(tmp_path)

        async def scenario():
            transport = _Transport(_Connection(server))
            transport.feed(b'{"op": "apps"}\n{"op": "apps"}')
            keep_open = transport.protocol.eof_received()
            return transport, keep_open

        transport, keep_open = asyncio.run(scenario())
        assert not keep_open
        first, second = (json.loads(line) for line in transport.lines())
        assert first["ok"] is True
        assert second == {
            "ok": False,
            "op": None,
            "error": "malformed request: expected one JSON object per line",
        }
        assert _counter(server, "repro_live_queries_total") == 2
        assert _counter(server, "repro_live_malformed_requests_total") == 1

    def test_an_over_long_line_is_counted_answered_and_closed(self, handle):
        with socket.create_connection((handle.host, handle.port), timeout=5.0) as raw:
            raw.sendall(b"x" * 100_000 + b"\n")
            lines = raw.makefile("rb").readlines()  # until the server closes
        assert [json.loads(line) for line in lines] == [
            {
                "ok": False,
                "op": None,
                "error": "malformed request: expected one JSON object per line",
            }
        ]
        with LiveClient(handle.host, handle.port) as client:
            text = client.metrics()
        # The over-long line and the metrics query itself.
        assert "repro_live_queries_total 2" in text
        assert "repro_live_malformed_requests_total 1" in text

    def test_a_line_at_the_limit_is_parsed(self, tmp_path):
        server = _polled_server(tmp_path)
        request = b'{"op": "apps"}'
        line = request + b" " * (MAX_LINE - len(request))
        transport = _drive(server, line[: len(line) // 2], line[len(line) // 2 :] + b"\n")
        (response,) = transport.lines()
        assert json.loads(response)["ok"] is True
        assert transport.closes == 0


class TestResponses:
    _OPS = [
        {"op": "apps"},
        {"op": "decomposition", "app_id": APP_ID},
        {"op": "decomposition", "app_id": "application_0_0000"},
        {"op": "diagnostics"},
        {"op": "metrics_state"},
        {"op": "state"},
        {"op": "frobnicate"},
    ]

    def test_each_line_is_the_json_encoding_of_its_envelope(self, tmp_path):
        server = _polled_server(tmp_path)
        session = server.session
        expected_results = {
            "apps": session.apps_payload(),
            "decomposition": session.decomposition_payload(APP_ID),
        }
        # Twice each: the second apps/decomposition lines come from the
        # encoding memo and must not differ from a fresh encoding.
        payload = b"".join(json.dumps(r).encode() + b"\n" for r in self._OPS * 2)
        transport = _drive(server, payload)
        lines = transport.lines()
        assert len(lines) == 2 * len(self._OPS)
        for raw in lines:
            envelope = json.loads(raw)
            assert raw + b"\n" == (json.dumps(envelope) + "\n").encode("utf-8")
            if envelope["ok"] and envelope["op"] in expected_results:
                assert envelope == {
                    "ok": True,
                    "op": envelope["op"],
                    "result": expected_results[envelope["op"]],
                }
        # The reused apps and decomposition lines repeat byte for byte.
        half = len(self._OPS)
        assert lines[:2] == lines[half : half + 2]

    def test_an_app_finalized_by_a_poll_shows_in_the_next_answer(self, tmp_path):
        logdir = _golden_copy(tmp_path)
        rm_log = logdir / "hadoop-resourcemanager.log"
        full = rm_log.read_bytes()
        lines = full.splitlines(keepends=True)
        cut = next(i for i, line in enumerate(lines) if b"to FINAL_SAVING" in line)
        rm_log.write_bytes(b"".join(lines[:cut]))
        session = LiveSession(logdir)
        session.poll()
        server = LiveServer(session, poll=False)
        apps = b'{"op": "apps"}'
        decomposition = json.dumps({"op": "decomposition", "app_id": APP_ID}).encode()

        def statuses():
            return [
                json.loads(server._respond(apps))["result"][0]["status"],
                json.loads(server._respond(decomposition))["result"]["status"],
            ]

        assert statuses() == ["provisional", "provisional"]
        assert statuses() == ["provisional", "provisional"]  # from the memo
        rm_log.write_bytes(full)
        session.poll()
        assert statuses() == ["final", "final"]

    def test_only_apps_and_decomposition_lines_are_reused(self, tmp_path):
        server = _polled_server(tmp_path)
        for op in ("state", "drain", "diagnostics", "metrics", "metrics_state"):
            first = server._respond(json.dumps({"op": op}).encode())
            assert first is not server._respond(json.dumps({"op": op}).encode())
        assert server._encoded == {}
        server._respond(b'{"op": "apps"}')
        server._respond(json.dumps({"op": "decomposition", "app_id": APP_ID}).encode())
        assert sorted(op for op, _app in server._encoded) == [
            "apps",
            "decomposition",
        ]
        again = server._respond(b'{"op": "apps"}')
        assert again is server._encoded[("apps", None)][1]

    def test_a_sync_answer_creates_no_task(self, tmp_path):
        server = _polled_server(tmp_path)

        async def scenario():
            await server.start()
            before = asyncio.all_tasks()
            reader, writer = await asyncio.open_connection(
                server.host, server.bound_port
            )
            writer.write(b'{"op": "apps"}\n{"op": "metrics"}\n')
            await writer.drain()
            answers = [await reader.readline(), await reader.readline()]
            after = asyncio.all_tasks()
            writer.close()
            await writer.wait_closed()
            server.request_shutdown()
            await server.serve_until_shutdown()
            return before, after, answers

        before, after, answers = asyncio.run(scenario())
        assert after == before
        assert [json.loads(a)["op"] for a in answers] == ["apps", "metrics"]

    def test_the_shutdown_answer_is_flushed_before_the_server_stops(
        self, tmp_path
    ):
        session = LiveSession(_golden_copy(tmp_path))
        handle = serve_in_thread(session, poll_interval=0.01)
        with socket.create_connection((handle.host, handle.port), timeout=5.0) as raw:
            raw.sendall(b'{"op": "apps"}\n{"op": "shutdown"}\n{"op": "apps"}\n')
            handle.wait(timeout=10.0)  # the server thread has exited
            lines = raw.makefile("rb").readlines()
        assert not handle._thread.is_alive()
        # Lines after the shutdown request are not answered.
        assert [json.loads(line)["op"] for line in lines] == ["apps", "shutdown"]
        assert json.loads(lines[1])["result"] == "shutting down"

    def test_a_list_app_id_is_an_unknown_application(self, handle):
        with LiveClient(handle.host, handle.port) as client:
            response = client.request("decomposition", app_id=[1])
            assert client.apps()  # the connection survives
        assert response == {
            "ok": False,
            "op": "decomposition",
            "error": "unknown application [1]",
        }


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
