"""End-to-end tests for the sharded live deployment.

Covers the three layers separately and together: the pure partition /
merge helpers, a :class:`~repro.live.router.RouterServer` fanning out
to in-thread shard servers (fast, no processes), and the full
:class:`~repro.live.sharded.ShardedLiveService` with real worker
processes plus the HTTP metrics endpoint.  The headline assertion at
every layer is the sharded byte-identity contract: drained deployment,
merged state, rebuilt report == batch ``SDChecker`` over the union.
"""

from __future__ import annotations

import contextlib
import json
import socket
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.core.checker import SDChecker
from repro.live import (
    LiveClient,
    LiveSession,
    QueryError,
    partition_directories,
    report_from_state_payload,
    serve_in_thread,
)
from repro.live.router import RouterServer
from repro.live.server import run_in_thread
from repro.live.sharded import ShardedLiveService
from repro.logsys.record import LogRecord

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden"
APP_ID = "application_1515715200000_0001"


def _split_golden(tmp_path, shards):
    """Round-robin the golden files into ``shards`` directories."""
    shard_dirs = []
    for index in range(shards):
        shard_dir = tmp_path / f"shard{index}"
        shard_dir.mkdir()
        shard_dirs.append(shard_dir)
    files = sorted(p for p in GOLDEN.iterdir() if p.is_file())
    for index, path in enumerate(files):
        (shard_dirs[index % shards] / path.name).write_bytes(
            path.read_bytes()
        )
    return shard_dirs


def _union_batch_dict(shard_dirs, tmp_path):
    union = tmp_path / "union"
    union.mkdir()
    for shard_dir in shard_dirs:
        for path in shard_dir.iterdir():
            (union / path.name).write_bytes(path.read_bytes())
    report = SDChecker(jobs=1).analyze(union)
    return report.to_dict(include_diagnostics=True)


class TestPartition:
    def test_round_robin_is_deterministic(self):
        parts = partition_directories(["a", "b", "c", "d", "e"], 2)
        assert parts == [["a", "c", "e"], ["b", "d"]]
        assert parts == partition_directories(["a", "b", "c", "d", "e"], 2)

    def test_never_produces_an_empty_shard(self):
        parts = partition_directories(["a", "b"], 5)
        assert parts == [["a"], ["b"]]

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            partition_directories(["a"], 0)

    def test_no_directories_rejected(self):
        with pytest.raises(ValueError, match="directory"):
            partition_directories([], 2)


@contextlib.contextmanager
def _router_over(shard_dirs):
    """In-thread shard servers over ``shard_dirs`` behind a router."""
    sessions = [LiveSession(shard_dir) for shard_dir in shard_dirs]
    shard_handles = [
        serve_in_thread(session, poll_interval=0.01) for session in sessions
    ]
    router = run_in_thread(
        lambda: RouterServer(
            [(handle.host, handle.port) for handle in shard_handles]
        ),
        "repro-live-router",
    )
    try:
        yield router, shard_handles, sessions
    finally:
        router.stop()
        for handle in shard_handles:
            handle.stop()


@pytest.fixture()
def router_over_threads(tmp_path):
    """Two in-thread shard servers behind a router; no processes."""
    shard_dirs = _split_golden(tmp_path, 2)
    with _router_over(shard_dirs) as (router, shard_handles, sessions):
        yield router, shard_handles, shard_dirs, sessions


def _raw_response(handle, line: bytes) -> dict:
    with socket.create_connection((handle.host, handle.port), timeout=5.0) as raw:
        raw.sendall(line)
        return json.loads(raw.makefile("rb").readline())


@pytest.fixture(scope="module")
def one_shard_and_its_router(tmp_path_factory):
    """A server over the golden directory, and a router over just it."""
    (shard_dir,) = _split_golden(tmp_path_factory.mktemp("one_shard"), 1)
    with _router_over([shard_dir]) as (router, (shard,), _sessions):
        yield shard, router


_REQUESTS = {
    "apps": {"op": "apps"},
    "decomposition": {"op": "decomposition", "app_id": APP_ID},
    "decomposition-unknown-app": {
        "op": "decomposition",
        "app_id": "application_0_0000",
    },
    "decomposition-without-app-id": {"op": "decomposition"},
    "diagnostics": {"op": "diagnostics"},
    "state": {"op": "state"},
    "unknown-op": {"op": "frobnicate"},
}
_LINES = {name: json.dumps(req).encode() + b"\n" for name, req in _REQUESTS.items()}
_LINES["non-json"] = b"this is not json\n"
_LINES["non-object"] = b"[1, 2, 3]\n"


class TestRouterAnswersLikeOneServer:
    """One shard behind a router answers exactly as that shard does."""

    @pytest.mark.parametrize("line", list(_LINES.values()), ids=list(_LINES))
    def test_same_response(self, one_shard_and_its_router, line):
        shard, router = one_shard_and_its_router
        direct = _raw_response(shard, line)
        routed = _raw_response(router, line)
        if direct["op"] == "diagnostics":
            assert routed["result"].pop("shards") == 1
        assert routed == direct

    def test_pipelined_answers_keep_request_order(self, one_shard_and_its_router):
        # The router answers an op through its shards (a coroutine) but a
        # request check's error at once; a later line must still wait
        # for the answer to an earlier one.
        shard, router = one_shard_and_its_router
        names = [
            "apps",
            "unknown-op",
            "decomposition",
            "non-json",
            "decomposition-without-app-id",
            "state",
            "decomposition-unknown-app",
            "non-object",
        ]
        expected = [_raw_response(shard, _LINES[name]) for name in names]
        with socket.create_connection((router.host, router.port), timeout=5.0) as raw:
            raw.sendall(b"".join(_LINES[name] for name in names))
            reader = raw.makefile("rb")
            routed = [json.loads(reader.readline()) for _ in names]
        assert routed == expected


class TestRouterErrors:
    def test_a_daemon_on_two_shards_fails_the_merge(self, tmp_path):
        rm_log = GOLDEN / "hadoop-resourcemanager.log"
        shard_dirs = [tmp_path / "shard0", tmp_path / "shard1"]
        for shard_dir in shard_dirs:
            shard_dir.mkdir()
            (shard_dir / rm_log.name).write_bytes(rm_log.read_bytes())
        with _router_over(shard_dirs) as (router, shard_handles, _sessions):
            with LiveClient(shard_handles[0].host, shard_handles[0].port) as client:
                (daemon,) = client.state()["miner"]
            with LiveClient(router.host, router.port) as client:
                response = client.request("apps")
        assert response == {
            "ok": False,
            "op": "apps",
            "error": (
                f"merge failed: daemon {daemon!r} appears on shard 0 and "
                "shard 1; shard directories must have disjoint stream names"
            ),
        }

    def test_a_stopped_shard_closed_the_connection(self, router_over_threads):
        router, shard_handles, _dirs, _sessions = router_over_threads
        stopped = shard_handles[1]
        with LiveClient(router.host, router.port) as client:
            # Once a query is answered the router holds an open
            # connection to every shard.
            assert client.request("apps")["ok"] is True
            stopped.stop()
            response = client.request("apps")
        assert response == {
            "ok": False,
            "op": "apps",
            "error": (
                f"shard 1 ({stopped.host}:{stopped.port}) closed the "
                "connection"
            ),
        }


class TestRouterMerging:
    def test_apps_merge_sorted(self, router_over_threads):
        router, _shards, _dirs, _sessions = router_over_threads
        with LiveClient(router.host, router.port) as client:
            apps = client.apps()
        assert [app["app_id"] for app in apps] == [APP_ID]
        assert apps[0]["status"] == "final"
        assert apps[0]["containers"] == 5

    def test_decomposition_routes_to_the_owning_shard(
        self, router_over_threads
    ):
        router, _shards, _dirs, _sessions = router_over_threads
        with LiveClient(router.host, router.port) as client:
            decomposition = client.decomposition(APP_ID)
        assert decomposition["app_id"] == APP_ID
        assert len(decomposition["containers"]) == 5

    def test_unknown_app_is_unknown_on_every_shard(self, router_over_threads):
        router, _shards, _dirs, _sessions = router_over_threads
        with LiveClient(router.host, router.port) as client:
            with pytest.raises(QueryError, match="unknown application"):
                client.decomposition("application_0_0000")

    def test_diagnostics_union_the_ledgers(self, router_over_threads):
        router, _shards, shard_dirs, _sessions = router_over_threads
        total_streams = sum(
            len(list(shard_dir.iterdir())) for shard_dir in shard_dirs
        )
        with LiveClient(router.host, router.port) as client:
            diagnostics = client.diagnostics()
        assert len(diagnostics["streams"]) == total_streams
        assert diagnostics["shards"] == 2
        assert diagnostics["degraded"] is False

    def test_metrics_aggregate_across_shards(self, router_over_threads):
        router, _shards, _dirs, sessions = router_over_threads
        with LiveClient(router.host, router.port) as client:
            text = client.metrics()
        expected_lines = int(
            sum(
                session.metrics.counter("repro_live_ingest_lines_total").value
                for session in sessions
            )
        )
        assert f"repro_live_ingest_lines_total {expected_lines}" in text
        # The router's own request counter is folded into the same scrape.
        assert "repro_live_queries_total" in text

    def test_drained_merge_is_byte_identical_to_batch(
        self, router_over_threads, tmp_path
    ):
        router, _shards, shard_dirs, _sessions = router_over_threads
        with LiveClient(router.host, router.port) as client:
            merged_state = client.drain()
        report = report_from_state_payload(merged_state)
        live = json.loads(
            json.dumps(report.to_dict(include_diagnostics=True))
        )
        assert live == json.loads(
            json.dumps(_union_batch_dict(shard_dirs, tmp_path))
        )

    def test_malformed_requests_counted_at_the_router(
        self, router_over_threads
    ):
        router, _shards, _dirs, _sessions = router_over_threads
        with socket.create_connection(
            (router.host, router.port), timeout=5.0
        ) as raw:
            reader = raw.makefile("rb")
            raw.sendall(b"not json\n")
            assert json.loads(reader.readline())["ok"] is False
            raw.sendall(b'{"op": "metrics"}\n')
            response = json.loads(reader.readline())
        assert "repro_live_malformed_requests_total 1" in response["result"]

    def test_shutdown_propagates_to_shards(self, router_over_threads):
        router, shard_handles, _dirs, _sessions = router_over_threads
        with LiveClient(router.host, router.port) as client:
            assert client.shutdown() == "shutting down"
        router.stop()
        for handle in shard_handles:
            handle.stop()
            with pytest.raises(OSError):
                socket.create_connection(
                    (handle.host, handle.port), timeout=1.0
                )


class TestShardedServiceProcesses:
    """The full supervisor: worker processes, router, HTTP metrics."""

    def test_two_shard_deployment_end_to_end(self, tmp_path):
        shard_dirs = _split_golden(tmp_path, 2)
        batch = _union_batch_dict(shard_dirs, tmp_path)
        service = ShardedLiveService(
            shard_dirs, shards=2, poll_interval=0.02, http_port=0
        )
        with service:
            assert len(service.partitions) == 2
            with service.client() as client:
                (app,) = client.apps()
                assert app["app_id"] == APP_ID
            host, port = service.http_address
            body = urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=10.0
            )
            assert body.status == 200
            text = body.read().decode("utf-8")
            assert "repro_live_ingest_lines_total" in text
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    f"http://{host}:{port}/nope", timeout=10.0
                )
            merged = service.drained_report_dict()
        assert merged == json.loads(json.dumps(batch))

    def test_worker_startup_failure_is_reported(self, tmp_path):
        logdir = tmp_path / "logs"
        logdir.mkdir()
        # evict_after_polls=0 fails LiveSession validation inside the
        # worker process; the supervisor must relay that, not hang.
        service = ShardedLiveService([logdir], shards=1, evict_after_polls=0)
        with pytest.raises(RuntimeError, match="shard 0 failed to start"):
            service.start()
        service.stop()

    def test_stop_is_idempotent(self, tmp_path):
        shard_dirs = _split_golden(tmp_path, 2)
        service = ShardedLiveService(shard_dirs, shards=2, poll_interval=0.02)
        service.start()
        service.stop()
        service.stop()


class TestEvictionBoundsResidentState:
    """A rolling stream of finished apps must not grow resident state."""

    @staticmethod
    def _append(path, timestamp, cls, message):
        with path.open("a", encoding="utf-8") as handle:
            handle.write(LogRecord(timestamp, cls, message).render() + "\n")

    def test_rolling_finished_apps_stay_bounded(self, tmp_path):
        rm = tmp_path / "hadoop-resourcemanager.log"
        rm.touch()
        session = LiveSession(tmp_path, evict_after_polls=2)
        clock = [0.0]  # LogRecord timestamps are simulated seconds
        stream_high_water = 0
        total_apps = 12
        for i in range(1, total_apps + 1):
            clock[0] += 1.0
            app = f"application_1515715200000_{i:04d}"
            cid = f"container_1515715200000_{i:04d}_01_000001"
            self._append(
                rm, clock[0], "x.RMAppImpl",
                f"{app} State change from NEW to SUBMITTED on event = START",
            )
            self._append(
                rm, clock[0] + 0.1, "x.RMContainerImpl",
                f"{cid} Container Transitioned from NEW to ALLOCATED",
            )
            container_log = tmp_path / f"{cid}.log"
            self._append(
                container_log, clock[0] + 0.2,
                "org.apache.spark.executor.CoarseGrainedExecutorBackend",
                f"Started daemon with process name: 1@node01 for {cid}",
            )
            self._append(
                rm, clock[0] + 0.3, "x.RMAppImpl",
                f"{app} State change from RUNNING to FINISHED on event = X",
            )
            session.poll()
            stream_high_water = max(
                stream_high_water, len(session.miner.streams)
            )
        # Streams: the shared RM stream plus at most the containers of
        # the few apps still inside the eviction TTL — not one per app.
        assert stream_high_water <= 1 + 3
        assert len(session.evicted_apps) >= total_apps - 3
        # Evicted apps are gone from the served views for good.
        served = {app["app_id"] for app in session.apps_payload()}
        assert served.isdisjoint(set(session.evicted_apps))

    def test_evicted_streams_are_not_retailed(self, tmp_path):
        rm = tmp_path / "hadoop-resourcemanager.log"
        rm.touch()
        session = LiveSession(tmp_path, evict_after_polls=1)
        app = "application_1515715200000_0001"
        cid = "container_1515715200000_0001_01_000001"
        self._append(
            rm, 1.0, "x.RMAppImpl",
            f"{app} State change from RUNNING to FINISHED on event = X",
        )
        container_log = tmp_path / f"{cid}.log"
        self._append(
            container_log, 1.2,
            "org.apache.spark.executor.CoarseGrainedExecutorBackend",
            f"Started daemon with process name: 1@node01 for {cid}",
        )
        session.poll()
        session.poll()  # TTL expires: the app is evicted
        assert session.evicted_apps == [app]
        before = session.tailers[0].streams.keys()
        assert cid not in before
        session.poll()  # the file is still on disk; it must stay dead
        assert cid not in session.tailers[0].streams
        assert cid not in session.miner.streams
