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
compute an op's result: each provides a ``metrics`` registry and a
``_dispatch(op, app_id)`` returning that result.  ``LiveServer``
answers synchronously; the router's ``_dispatch`` is a coroutine (its
shard fan-out).  Both run on a background thread through
:func:`run_in_thread`.

**Connections**: each is one :class:`asyncio.BufferedProtocol`.  It
reads into one reused buffer, frames request lines, answers each one
from the read callback and writes the response straight to the
transport; no connection owns a queue, a stream or a long-lived task.
An awaitable answer (the router's) runs as a task that holds back the
connection's later lines, with reading paused, until it resolves, so
every connection is answered in request order.  A request line is at most
:data:`MAX_LINE` bytes: a longer one is answered as malformed and
closes the connection, and bytes left without a newline when the
client closes its side are answered as malformed too.  The response
line of an ``apps`` or ``decomposition`` answer is encoded once and
reused for as long as ``_dispatch`` returns the same object, which a
session does until its next change.

**Backpressure**: when a consumer stops reading, its transport pauses
writing; a connection that would then write more than ``queue_depth``
further responses is *dropped* (and counted in
``repro_live_slow_consumer_disconnects_total``) rather than letting one
slow client grow unbounded buffers.

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
import inspect
import json
import logging
import threading
from typing import Any, Awaitable, Callable, Dict, Optional, Set, Tuple, Union

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

#: Responses a connection may still write once its transport has paused
#: writing (the peer is not reading) before it is dropped as a slow
#: consumer.
DEFAULT_QUEUE_DEPTH = 64

#: Upper bound on waiting, at close, for connections to flush what was
#: written to them; a peer that stopped reading would hold it forever.
DRAIN_TIMEOUT = 5.0

#: Longest request line, newline excluded: asyncio streams' default
#: ``readline`` limit, which bounded a request line before.
MAX_LINE = 1 << 16

#: Bytes each connection reads at a time, into one buffer it reuses.
READ_SIZE = 1 << 16

#: Ops whose result a session builds once per revision, so their
#: encoded response line is reused while the result object is.
_REUSED_OPS = ("apps", "decomposition")

#: Ops that read the session's mined data; after a failed poll or
#: drain they answer with its error instead of a stale or empty answer.
_DATA_OPS = ("apps", "decomposition", "diagnostics", "state", "drain")

_NOT_ONE_JSON_OBJECT = "malformed request: expected one JSON object per line"

_log = logging.getLogger("repro.live")


class RequestError(RuntimeError):
    """Raised by ``_dispatch``: answer ``ok: false`` with this message."""


def _line(envelope: dict) -> bytes:
    return json.dumps(envelope).encode("utf-8") + b"\n"


def _error(op: Any, message: str) -> bytes:
    return _line({"ok": False, "op": op, "error": message})


class _Connection(asyncio.BufferedProtocol):
    """One client connection: frames request lines and answers each inline."""

    def __init__(self, server: "JsonLineServer"):
        self._server = server
        self._buffer = bytearray(READ_SIZE)
        self._view = memoryview(self._buffer)
        #: Bytes read after the last complete line.
        self._pending = bytearray()
        self._transport: Optional[asyncio.Transport] = None
        #: The awaitable answer in flight; later lines wait behind it.
        self._held: Optional[asyncio.Future] = None
        #: Responses written since the transport paused writing; None
        #: while it writes.
        self._backlog: Optional[int] = None
        #: Resolved once the transport has closed.
        self.closed: Optional[asyncio.Future] = None

    # -- transport callbacks -----------------------------------------------
    def connection_made(self, transport: asyncio.Transport) -> None:
        self._transport = transport
        self.closed = asyncio.get_running_loop().create_future()
        self._server._connections.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._server._connections.discard(self)
        self.closed.set_result(None)

    def get_buffer(self, sizehint: int) -> bytearray:
        return self._buffer

    def buffer_updated(self, nbytes: int) -> None:
        self._pending += self._view[:nbytes]
        self._answer_lines()

    def eof_received(self) -> bool:
        # Reading pauses while an answer is held, so every complete line
        # has been answered by now.
        if self._pending:
            self._write(self._server._reject())
        return False  # close once the answers have flushed

    def pause_writing(self) -> None:
        self._backlog = 0

    def resume_writing(self) -> None:
        self._backlog = None

    # -- answering ---------------------------------------------------------
    def _answer_lines(self) -> None:
        """Answer every complete buffered line in order, until one is held."""
        pending = self._pending
        transport = self._transport
        start = 0
        while self._held is None and not transport.is_closing():
            end = pending.find(b"\n", start)
            if end < 0:
                if len(pending) - start > MAX_LINE:
                    self._reject_long_line()
                break
            if end - start > MAX_LINE:
                self._reject_long_line()
                break
            response = self._server._respond(pending[start:end])
            start = end + 1
            if isinstance(response, bytes):
                self._write(response)
            else:
                self._hold(response)
        del pending[:start]

    def _reject_long_line(self) -> None:
        self._write(self._server._reject())
        self._transport.close()

    def _hold(self, response: Awaitable[bytes]) -> None:
        self._held = held = asyncio.ensure_future(response)
        self._transport.pause_reading()
        held.add_done_callback(self._release)

    def _release(self, held: asyncio.Future) -> None:
        self._held = None
        if held.cancelled():  # the loop is shutting down
            return
        exc = held.exception()
        if exc is not None:
            asyncio.get_running_loop().call_exception_handler(
                {
                    "message": "answering a request failed",
                    "exception": exc,
                    "protocol": self,
                    "transport": self._transport,
                }
            )
            self._transport.abort()
            return
        if self._transport.is_closing():
            return
        self._write(held.result())
        self._transport.resume_reading()
        self._answer_lines()

    def _write(self, line: bytes) -> None:
        server = self._server
        if self._backlog is not None:
            self._backlog += 1
            if self._backlog > server.queue_depth:
                # Slow consumer: drop the connection rather than buffer
                # without bound.
                server.metrics.counter(
                    "repro_live_slow_consumer_disconnects_total"
                ).inc()
                self._transport.abort()
                return
        self._transport.write(line)
        if server.stopping:
            self._transport.close()
            server.request_shutdown()

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        self._transport.close()

    def abort(self) -> None:
        self._transport.abort()


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
        #: Set by a ``shutdown`` answer; the connection that writes it
        #: then closes and stops the server.
        self.stopping = False
        #: Open client connections.
        self._connections: Set[_Connection] = set()
        #: (op, app_id) -> (result, its response line), for the
        #: :data:`_REUSED_OPS`; one revision's answers at a time.
        self._encoded: Dict[Tuple[str, Any], Tuple[Any, bytes]] = {}
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
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port
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
        self.stopping = True
        if self._shutdown is not None:
            self._shutdown.set()

    async def _close(self) -> None:
        await self._on_close()
        self._server.close()
        # Closing a connection flushes what was written to it (a
        # ``shutdown`` answer included) before its transport closes.
        closing = list(self._connections)
        for connection in closing:
            connection.close()
        if closing:
            await asyncio.wait(
                [connection.closed for connection in closing],
                timeout=DRAIN_TIMEOUT,
            )
        for connection in list(self._connections):
            connection.abort()  # its peer stopped reading
        await self._server.wait_closed()

    # -- answering ---------------------------------------------------------
    def _respond(self, raw: bytearray) -> Union[bytes, Awaitable[bytes]]:
        """The response line to one request line, or an awaitable of it."""
        # Counted before parsing: the counter answers "how many request
        # lines arrived", not "how many parsed".
        self.metrics.counter("repro_live_queries_total").inc()
        try:
            request = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return self._malformed(_NOT_ONE_JSON_OBJECT)
        if not isinstance(request, dict):
            return self._malformed("malformed request: expected a JSON object")
        op = request.get("op")
        if op not in OPS:
            return _error(op, f"unknown op {op!r} (expected {', '.join(OPS)})")
        app_id = request.get("app_id")
        if op == "decomposition":
            if not app_id:
                return _error(op, "decomposition requires an app_id")
            if isinstance(app_id, (list, dict)):  # no app has this id
                return _error(op, f"unknown application {app_id!r}")
        try:
            result = self._dispatch(op, app_id)
        except RequestError as exc:
            return _error(op, str(exc))
        if inspect.isawaitable(result):
            return self._respond_later(op, app_id, result)
        return self._answer(op, app_id, result)

    async def _respond_later(
        self, op: str, app_id: Any, pending: Awaitable[Any]
    ) -> bytes:
        try:
            result = await pending
        except RequestError as exc:
            return _error(op, str(exc))
        return self._answer(op, app_id, result)

    def _malformed(self, message: str) -> bytes:
        self.metrics.counter("repro_live_malformed_requests_total").inc()
        return _error(None, message)

    def _reject(self) -> bytes:
        """The answer to bytes that frame no request line.

        A line longer than :data:`MAX_LINE`, or a tail without a newline
        when the client closes its side: counted as a query and as a
        malformed one.
        """
        self.metrics.counter("repro_live_queries_total").inc()
        return self._malformed(_NOT_ONE_JSON_OBJECT)

    def _answer(self, op: str, app_id: Any, result: Any) -> bytes:
        """The response line of an op's result."""
        if op == "decomposition" and result is None:
            return _error(op, f"unknown application {app_id!r}")
        if op == "shutdown":
            self.stopping = True
        if op not in _REUSED_OPS:
            return _line({"ok": True, "op": op, "result": result})
        key = (op, app_id if op == "decomposition" else None)
        cached = self._encoded.get(key)
        if cached is not None:
            if cached[0] is result:
                return cached[1]
            # A new object: the session has changed, so every line held
            # here answers an older revision.
            self._encoded.clear()
        line = _line({"ok": True, "op": op, "result": result})
        self._encoded[key] = (result, line)
        return line

    def _dispatch(self, op: str, app_id: Any) -> Any:
        """The result of one op from :data:`OPS`, or an awaitable of it.

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
    def _dispatch(self, op: str, app_id: Any) -> Any:
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
        # shutdown: the connection that writes this answer stops the
        # server, which flushes it before closing.
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
