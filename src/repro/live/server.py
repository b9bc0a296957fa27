"""An asyncio JSON-lines query/metrics server over a live session.

Wire protocol: one JSON object per line in each direction.  A request
is ``{"op": <name>}``, plus ``app_id`` for ``decomposition``; the
response carries ``ok`` (bool), the echoed ``op``, and either
``result`` or ``error``::

    {"op": "apps"}
    {"ok": true, "op": "apps", "result": [...]}

Operations: ``apps`` (status rows), ``decomposition`` (one app's full
breakdown, requires ``app_id``), ``diagnostics`` (mining ledger plus
tailer counters), ``metrics`` (Prometheus text exposition),
``metrics_state`` (the registry's mergeable state, for cross-shard
aggregation), ``state`` (the session's full miner state — what a
sharded front end unions), ``drain`` (flush held-back tails, then
return the drained state), and ``shutdown`` (stop the server after
responding).

The protocol lives once, in :class:`JsonLineServer`: framing,
backpressure, the op table (:data:`OPS`), request validation, every
protocol error and the response envelope.  The single server and the
sharded router (:mod:`repro.live.router`) differ only in how they
compute an op's result: each provides a ``metrics`` registry and an
async ``_dispatch(op, app_id)`` returning that result.  Both run on a
background thread through :func:`run_in_thread`.

**Backpressure**: responses are never written directly from the read
loop.  Each connection owns a bounded :class:`asyncio.Queue` drained by
a dedicated writer task; when a consumer reads slower than it queries
and the queue fills, the connection is *dropped* (and counted in
``repro_live_slow_consumer_disconnects_total``) rather than letting one
slow client grow unbounded buffers or stall the poll loop.

**Counting**: every received request line increments
``repro_live_queries_total`` — including ones that fail to parse, which
additionally increment ``repro_live_malformed_requests_total``.  A
flood of garbage is exactly the situation where an invisible-to-metrics
request stream is most misleading.

All session access happens on the event-loop thread — the poll loop,
the dispatchers, and the metrics reads are serialized by construction,
so :class:`~repro.live.incremental.LiveSession` needs no locks.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import threading
from typing import Any, Callable, Dict, Optional

from repro.live.client import OPS
from repro.live.incremental import LiveSession
from repro.live.metrics import MetricsRegistry

__all__ = [
    "OPS",
    "JsonLineServer",
    "LiveServer",
    "RequestError",
    "ServerHandle",
    "run_in_thread",
    "serve_in_thread",
]

#: Responses a connection may have in flight before it is considered a
#: slow consumer and disconnected.
DEFAULT_QUEUE_DEPTH = 64

#: Upper bound on waiting for a connection's response queue to drain.
#: If the writer task died (e.g. the peer reset the connection) with
#: items still queued, ``queue.join()`` would otherwise wait forever.
DRAIN_TIMEOUT = 5.0

#: Ops that read the session's mined data; after a failed poll or
#: drain they answer with its error instead of a stale or empty answer.
_DATA_OPS = ("apps", "decomposition", "diagnostics", "state", "drain")

_log = logging.getLogger("repro.live")


class RequestError(RuntimeError):
    """Raised by ``_dispatch``: answer ``ok: false`` with this message."""


def _error(op: Any, message: str) -> dict:
    return {"ok": False, "op": op, "error": message}


class JsonLineServer:
    """The JSON-lines protocol: framing, backpressure, ops and lifecycle.

    Subclasses must provide a ``metrics`` :class:`MetricsRegistry`
    (attribute or property) and implement :meth:`_dispatch`; they may
    hook :meth:`_on_start` / :meth:`_on_close` for background tasks.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
    ):
        self.host = host
        self.port = port
        self.queue_depth = queue_depth
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown: Optional[asyncio.Event] = None
        #: Open client connections and their handler tasks.
        self._connections: Dict[asyncio.StreamWriter, asyncio.Task] = {}
        #: The actually bound port (useful with ``port=0``).
        self.bound_port: Optional[int] = None

    #: Subclasses override (LiveServer exposes the session's registry).
    metrics: MetricsRegistry

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> "JsonLineServer":
        from repro.analysis import sanitizer

        if sanitizer.enabled():
            sanitizer.install_loop_monitor()
        self._shutdown = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.bound_port = self._server.sockets[0].getsockname()[1]
        await self._on_start()
        return self

    async def _on_start(self) -> None:
        """Post-bind hook: start background tasks here."""

    async def _on_close(self) -> None:
        """Pre-close hook: cancel background tasks here."""

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` op (or :meth:`request_shutdown`)."""
        assert self._shutdown is not None, "start() first"
        await self._shutdown.wait()
        await self._close()

    def request_shutdown(self) -> None:
        if self._shutdown is not None:
            self._shutdown.set()

    async def _close(self) -> None:
        await self._on_close()
        self._server.close()
        # Close open client connections so their handlers read EOF and
        # return.  A handler still parked in readline() when the loop
        # shuts down is cancelled instead, and asyncio's stream callback
        # logs that cancellation as an error.
        for writer in self._connections:
            writer.close()
        if self._connections:
            await asyncio.wait(
                list(self._connections.values()), timeout=DRAIN_TIMEOUT
            )
        await self._server.wait_closed()

    # -- connections -------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections[writer] = asyncio.current_task()
        queue: asyncio.Queue = asyncio.Queue(maxsize=self.queue_depth)
        writer_task = asyncio.create_task(self._write_loop(queue, writer))
        dropped = False
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                response = await self._dispatch_line(line)
                try:
                    queue.put_nowait(response)
                except asyncio.QueueFull:
                    # Slow consumer: drop the connection rather than
                    # buffer without bound.
                    self.metrics.counter(
                        "repro_live_slow_consumer_disconnects_total"
                    ).inc()
                    dropped = True
                    break
                if response.get("op") == "shutdown" and response.get("ok"):
                    # Let the response flush, then stop the server.
                    with contextlib.suppress(asyncio.TimeoutError):
                        await asyncio.wait_for(
                            queue.join(), timeout=DRAIN_TIMEOUT
                        )
                    self.request_shutdown()
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            # CancelledError included: at loop teardown the handler task
            # is cancelled mid-cleanup, and an escaping cancellation here
            # shows up as spurious "exception was never retrieved" noise.
            if not dropped:
                with contextlib.suppress(Exception, asyncio.CancelledError):
                    await asyncio.wait_for(queue.join(), timeout=DRAIN_TIMEOUT)
            writer_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await writer_task
            writer.close()
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()
            self._connections.pop(writer, None)

    async def _write_loop(
        self, queue: asyncio.Queue, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            response = await queue.get()
            try:
                writer.write(json.dumps(response).encode("utf-8") + b"\n")
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                return
            finally:
                queue.task_done()

    # -- dispatch ----------------------------------------------------------
    async def _dispatch_line(self, raw: bytes) -> dict:
        # Counted before parsing: the counter answers "how many request
        # lines arrived", not "how many parsed".
        self.metrics.counter("repro_live_queries_total").inc()
        try:
            request = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            self.metrics.counter("repro_live_malformed_requests_total").inc()
            return _error(
                None, "malformed request: expected one JSON object per line"
            )
        if not isinstance(request, dict):
            self.metrics.counter("repro_live_malformed_requests_total").inc()
            return _error(None, "malformed request: expected a JSON object")
        op = request.get("op")
        if op not in OPS:
            return _error(op, f"unknown op {op!r} (expected {', '.join(OPS)})")
        app_id = request.get("app_id")
        if op == "decomposition" and not app_id:
            return _error(op, "decomposition requires an app_id")
        try:
            result = await self._dispatch(op, app_id)
        except RequestError as exc:
            return _error(op, str(exc))
        if op == "decomposition" and result is None:
            return _error(op, f"unknown application {app_id!r}")
        return {"ok": True, "op": op, "result": result}

    async def _dispatch(self, op: str, app_id: Any) -> Any:
        """The result of one op from :data:`OPS`.

        ``app_id`` is the request's (set for ``decomposition``); a
        ``decomposition`` result of ``None`` means the app is unknown.
        Raise :class:`RequestError` to answer with an error instead.
        """
        raise NotImplementedError


class LiveServer(JsonLineServer):
    """Serves one :class:`LiveSession` over JSON lines, polling as it goes."""

    def __init__(
        self,
        session: LiveSession,
        host: str = "127.0.0.1",
        port: int = 0,
        poll_interval: float = 0.25,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        poll: bool = True,
    ):
        super().__init__(host=host, port=port, queue_depth=queue_depth)
        self.session = session
        self.poll_interval = poll_interval
        self._poll_enabled = poll
        self._poll_task: Optional[asyncio.Task] = None
        #: What the poll or drain that stopped serving data raised, if
        #: one did.
        self._poll_error: Optional[Exception] = None

    @property
    def metrics(self) -> MetricsRegistry:
        return self.session.metrics

    # -- lifecycle ---------------------------------------------------------
    async def _on_start(self) -> None:
        if self._poll_enabled:
            self._poll_task = asyncio.create_task(self._poll_loop())

    async def _on_close(self) -> None:
        if self._poll_task is not None:
            self._poll_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._poll_task

    def _stop_serving_data(self, exc: Exception) -> None:
        """A poll or drain raised: its chunks may be half ingested.

        Serving on would answer wrong data, so every later data query
        answers with the error instead, and the poll loop stops.
        """
        self._poll_error = exc
        _log.error("poll failed, serving no data: %s", exc, exc_info=exc)

    async def _poll_loop(self) -> None:
        while not self._shutdown.is_set() and self._poll_error is None:
            try:
                self.session.poll()
            except Exception as exc:  # noqa: BLE001 - answered to data queries
                self._stop_serving_data(exc)
                return
            try:
                await asyncio.wait_for(
                    self._shutdown.wait(), timeout=self.poll_interval
                )
            except asyncio.TimeoutError:
                continue

    # -- dispatch ----------------------------------------------------------
    async def _dispatch(self, op: str, app_id: Any) -> Any:
        if self._poll_error is not None and op in _DATA_OPS:
            raise RequestError(f"poll failed: {self._poll_error}")
        if op == "apps":
            return self.session.apps_payload()
        if op == "decomposition":
            return self.session.decomposition_payload(app_id)
        if op == "diagnostics":
            return self.session.diagnostics_payload()
        # metrics go through the session wrappers so deferred
        # component-delay observations are flushed before rendering.
        if op == "metrics":
            return self.session.metrics_text()
        if op == "metrics_state":
            return self.session.metrics_state()
        if op == "state":
            return self.session.state_payload()
        if op == "drain":
            try:
                self.session.drain()
            except Exception as exc:  # noqa: BLE001 - answered to data queries
                self._stop_serving_data(exc)
                raise RequestError(f"poll failed: {exc}") from exc
            return self.session.state_payload()
        # shutdown: the connection handler stops the server once this
        # answer has flushed.
        return "shutting down"


class ServerHandle:
    """A server running on a background thread: address, ``wait``, ``stop``."""

    def __init__(self, server: JsonLineServer, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread):
        self._server = server
        self._loop = loop
        self._thread = thread

    @property
    def host(self) -> str:
        return self._server.host

    @property
    def port(self) -> int:
        assert self._server.bound_port is not None
        return self._server.bound_port

    def wait(self, timeout: Optional[float] = None) -> None:
        """Block until the server stops (a client's ``shutdown`` op)."""
        self._thread.join(timeout=timeout)

    def stop(self, timeout: float = 10.0) -> None:
        try:
            self._loop.call_soon_threadsafe(self._server.request_shutdown)
        except RuntimeError:
            pass  # loop already closed (a client's shutdown op won)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def run_in_thread(
    make_server: Callable[[], JsonLineServer], name: str
) -> ServerHandle:
    """Build and serve ``make_server()`` on its own event loop and thread.

    The one way every server here runs: embedded in tests and
    benchmarks, behind the CLI, in a shard worker process and as the
    sharded router.  The caller keeps its thread; ``make_server`` runs
    on the new one, so the server and everything it builds live on the
    server's loop.  A startup failure (say, the port is already bound)
    re-raises the *original* exception here instead of a generic
    timeout 30 seconds later.
    """
    started = threading.Event()
    holder: dict = {}

    async def _main() -> None:
        server = make_server()
        await server.start()
        holder["server"] = server
        holder["loop"] = asyncio.get_running_loop()
        started.set()
        await server.serve_until_shutdown()

    def _run() -> None:
        try:
            asyncio.run(_main())
        except BaseException as exc:  # noqa: BLE001 - relayed to caller
            holder.setdefault("error", exc)
        finally:
            started.set()

    thread = threading.Thread(target=_run, name=name, daemon=True)
    thread.start()
    if not started.wait(timeout=30.0):
        raise RuntimeError(f"{name} failed to start within 30s")
    error = holder.get("error")
    if error is not None:
        raise error
    if "server" not in holder:
        raise RuntimeError(f"{name} exited before binding")
    return ServerHandle(holder["server"], holder["loop"], thread)


def serve_in_thread(
    session: LiveSession,
    host: str = "127.0.0.1",
    port: int = 0,
    poll_interval: float = 0.05,
    queue_depth: int = DEFAULT_QUEUE_DEPTH,
    poll: bool = True,
) -> ServerHandle:
    """Run a :class:`LiveServer` over ``session`` with :func:`run_in_thread`.

    The embedding entry point (tests, benchmarks, notebooks): the
    session lives entirely on the server's event loop.
    """
    return run_in_thread(
        lambda: LiveServer(
            session,
            host=host,
            port=port,
            poll_interval=poll_interval,
            queue_depth=queue_depth,
            poll=poll,
        ),
        "repro-live-server",
    )
