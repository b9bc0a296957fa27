"""Supervisor for a sharded live deployment: N workers + one router.

``python -m repro.live serve DIR... --shards N`` builds one of these.
The supervisor:

1. partitions the log directories round-robin across ``min(N, dirs)``
   worker *processes* — each worker owns a full
   :class:`~repro.live.incremental.LiveSession` (its own tailer, miner,
   metrics registry) on its own event loop, so ingest parallelism is
   real OS-level parallelism, not cooperative scheduling;
2. starts a :class:`~repro.live.router.RouterServer` on a background
   thread of the supervisor process, speaking the same JSON-lines
   protocol as a single server — existing clients and the ``query``
   CLI work unchanged;
3. optionally serves ``GET /metrics`` over plain stdlib HTTP,
   rendering the *aggregated* (all shards + router) Prometheus text —
   the scrape endpoint a fleet deployment points its collector at.

Workers report their bound port back over a multiprocessing queue; a
worker that fails to bind reports the error instead, and
:meth:`ShardedLiveService.start` re-raises it immediately rather than
hanging (the process-level analogue of the ``run_in_thread`` startup
contract).  Shutdown flows through the wire protocol: a ``shutdown``
op at the router fans out to every shard, so the whole deployment
stops from one client request — or from :meth:`stop`.

The worker entry point is a top-level function and every argument it
takes is a plain picklable value, so the supervisor works under both
``fork`` (used where available) and ``spawn`` (SD5xx process-boundary
rules).
"""

from __future__ import annotations

import http.server
import json
import multiprocessing
import threading
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.live.client import LiveClient
from repro.live.incremental import LiveSession
from repro.live.router import RouterServer, report_from_state_payload
from repro.live.server import LiveServer, ServerHandle, run_in_thread

__all__ = ["ShardedLiveService", "partition_directories"]

#: Seconds the supervisor waits for each worker to report its port.
WORKER_START_TIMEOUT = 30.0


def partition_directories(
    directories: Sequence[Union[str, Path]], shards: int
) -> List[List[str]]:
    """Round-robin the directories across at most ``shards`` workers.

    Deterministic (assignment depends only on input order), never
    produces an empty shard: with fewer directories than requested
    shards, the extra shards simply do not exist.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    paths = [str(path) for path in directories]
    if not paths:
        raise ValueError("at least one directory is required")
    count = min(shards, len(paths))
    return [paths[index::count] for index in range(count)]


def _worker_main(
    index: int,
    directories: List[str],
    host: str,
    port_queue,
    poll_interval: float,
    evict_after_polls: Optional[int],
    poll: bool,
) -> None:
    """One shard: a LiveSession + LiveServer, served until shutdown.

    Top-level (picklable) by design; reports ``("ok", index, port)`` or
    ``("error", index, message)`` exactly once, before serving.
    """
    def make_server() -> LiveServer:
        session = LiveSession(directories, evict_after_polls=evict_after_polls)
        return LiveServer(
            session, host=host, port=0, poll_interval=poll_interval, poll=poll
        )

    try:
        handle = run_in_thread(make_server, f"repro-live-shard-{index}")
    except Exception as exc:  # noqa: BLE001 - relayed to supervisor
        port_queue.put(("error", index, f"{type(exc).__name__}: {exc}"))
        return
    port_queue.put(("ok", index, handle.port))
    handle.wait()


class _MetricsHTTPHandler(http.server.BaseHTTPRequestHandler):
    """``GET /metrics`` → the deployment's aggregated Prometheus text."""

    server_version = "repro-live-metrics/1"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path.split("?", 1)[0] not in ("/metrics", "/"):
            self.send_error(404, "try /metrics")
            return
        try:
            with LiveClient(
                self.server.router_host, self.server.router_port
            ) as client:
                body = client.metrics().encode("utf-8")
        except Exception as exc:  # noqa: BLE001 - surfaced as HTTP 503
            self.send_error(503, f"router unavailable: {exc}")
            return
        self.send_response(200)
        self.send_header(
            "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
        )
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:
        """Scrapes are periodic; stderr noise helps nobody."""


class _MetricsHTTPServer(http.server.ThreadingHTTPServer):
    daemon_threads = True
    router_host: str = ""
    router_port: int = 0


class ShardedLiveService:
    """The full deployment: worker processes, router, HTTP metrics."""

    def __init__(
        self,
        directories: Sequence[Union[str, Path]],
        shards: int,
        host: str = "127.0.0.1",
        router_port: int = 0,
        http_port: Optional[int] = None,
        poll_interval: float = 0.25,
        evict_after_polls: Optional[int] = None,
        poll: bool = True,
    ):
        self.partitions = partition_directories(directories, shards)
        self.host = host
        self.router_port = router_port
        self.http_port = http_port
        self.poll_interval = poll_interval
        self.evict_after_polls = evict_after_polls
        self.poll = poll
        methods = multiprocessing.get_all_start_methods()
        self._mp = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._workers: List = []
        self.shard_addresses: List[Tuple[str, int]] = []
        self._router: Optional[ServerHandle] = None
        self._http: Optional[_MetricsHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None
        self._stopped = False

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "ShardedLiveService":
        port_queue = self._mp.Queue()
        for index, directories in enumerate(self.partitions):
            process = self._mp.Process(
                target=_worker_main,
                args=(
                    index,
                    directories,
                    self.host,
                    port_queue,
                    self.poll_interval,
                    self.evict_after_polls,
                    self.poll,
                ),
                name=f"repro-live-shard-{index}",
                daemon=True,
            )
            process.start()
            self._workers.append(process)
        ports: dict = {}
        try:
            for _ in self.partitions:
                status, index, value = port_queue.get(
                    timeout=WORKER_START_TIMEOUT
                )
                if status != "ok":
                    raise RuntimeError(f"shard {index} failed to start: {value}")
                ports[index] = value
        except Exception:
            self._terminate_workers()
            raise
        self.shard_addresses = [
            (self.host, ports[index]) for index in range(len(self.partitions))
        ]
        try:
            self._router = run_in_thread(
                lambda: RouterServer(
                    self.shard_addresses, host=self.host, port=self.router_port
                ),
                "repro-live-router",
            )
            if self.http_port is not None:
                self._start_http()
        except Exception:
            self.stop()
            raise
        return self

    def _start_http(self) -> None:
        server = _MetricsHTTPServer(
            (self.host, self.http_port), _MetricsHTTPHandler
        )
        server.router_host = self.router_host
        server.router_port = self.router_address[1]
        thread = threading.Thread(
            target=server.serve_forever,
            name="repro-live-metrics-http",
            daemon=True,
        )
        thread.start()
        self._http = server
        self._http_thread = thread

    # -- addresses ---------------------------------------------------------
    @property
    def router_host(self) -> str:
        return self.host

    @property
    def router_address(self) -> Tuple[str, int]:
        assert self._router is not None, "start() first"
        return (self._router.host, self._router.port)

    @property
    def http_address(self) -> Optional[Tuple[str, int]]:
        if self._http is None:
            return None
        return self._http.server_address[:2]

    def client(self, timeout: float = 10.0) -> LiveClient:
        """A blocking client connected to the router."""
        host, port = self.router_address
        return LiveClient(host, port, timeout=timeout)

    # -- teardown ----------------------------------------------------------
    def wait(self, timeout: Optional[float] = None) -> None:
        """Block until the router stops (e.g. a client sent shutdown)."""
        assert self._router is not None, "start() first"
        self._router.wait(timeout=timeout)

    def stop(self, timeout: float = 10.0) -> None:
        """Shut the whole deployment down: router, shards, HTTP."""
        if self._stopped:
            return
        self._stopped = True
        if self._router is not None:
            # One shutdown op at the router fans out to every shard.
            try:
                with self.client(timeout=timeout) as client:
                    client.shutdown()
            except Exception:
                pass  # router already gone; fall through to hard stop
            self._router.stop(timeout=timeout)
        if self._http is not None:
            self._http.shutdown()
            self._http.server_close()
            if self._http_thread is not None:
                self._http_thread.join(timeout=timeout)
        for process in self._workers:
            process.join(timeout=timeout)
        self._terminate_workers()

    def _terminate_workers(self) -> None:
        for process in self._workers:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)

    def __enter__(self) -> "ShardedLiveService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- convenience -------------------------------------------------------
    def drained_report_dict(self) -> dict:
        """Drain every shard and return the merged report as a dict.

        The byte-identity entry point: equal to batch ``SDChecker``
        ``report.to_dict(include_diagnostics=True)`` over the union of
        directories (JSON-compared) for any shard assignment, provided
        no shard evicted.
        """
        with self.client() as client:
            merged_state = client.drain()
        report = report_from_state_payload(merged_state)
        return json.loads(
            json.dumps(report.to_dict(include_diagnostics=True))
        )
