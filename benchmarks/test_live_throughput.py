"""Live-mining throughput and query latency under concurrent load.

Feeds the synthetic multi-application corpus (shared with the miner
benchmark) through a :class:`~repro.live.incremental.LiveSession` in
poll-sized increments, measuring sustained ingest lines/s, then serves
the session and hammers it from concurrent client threads to measure
p99 query latency.  The numbers only feed the bars below; perfbench's
``live-serve`` workload records ingest and query latency.

Bars (all modes, including the ``REPRO_BENCH_SMOKE=1`` CI job):

* the drained live report must equal the batch report — the replay
  equivalence contract, re-checked at benchmark scale;
* sustained ingest must clear a conservative floor (the live path
  shares the batch fast path's scanner, so it must not be orders of
  magnitude slower);
* p99 query latency under concurrent load must stay interactive.
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import time
from pathlib import Path

import numpy as np

from benchmarks.test_miner_throughput import build_corpus
from repro.core.checker import SDChecker
from repro.live import (
    LiveClient,
    LiveSession,
    ShardedLiveService,
    report_from_state_payload,
    serve_in_thread,
)

#: Ingest increments: the corpus arrives over this many poll rounds.
_POLL_ROUNDS = 16
#: Concurrent query clients and requests per client.
_CLIENTS = {"smoke": 2, "small": 4, "paper": 8}
_REQUESTS_PER_CLIENT = {"smoke": 25, "small": 100, "paper": 300}

#: Worker processes in the sharded ingest comparison.
_SHARDS = 4
#: Drains timed per side of that comparison, alternating sides.  A
#: smoke-corpus drain takes 8-40 ms, so one drain per side measures
#: process and connection noise; the bar compares medians.
_DRAINS_PER_SIDE = 5

#: Conservative floors/ceilings — regression tripwires, not records.
#: The smoke corpus is so small that fixed per-poll overhead (directory
#: stats, report rebuilds) dominates, so its floor is far below the
#: steady-state number (~310k lines/s at the 159k-line ``small`` scale
#: on 2 vCPUs).
_MIN_INGEST_LPS = {"smoke": 3_000, "small": 30_000, "paper": 30_000}
_MAX_QUERY_P99_S = 0.5


def _grow_in_rounds(src_dir: Path, live_dir: Path, rounds: int):
    """Yield after each round of appending 1/rounds of every file."""
    blobs = {
        path.name: path.read_bytes() for path in sorted(src_dir.iterdir())
    }
    for name in blobs:
        (live_dir / name).write_bytes(b"")
    for i in range(1, rounds + 1):
        for name, blob in blobs.items():
            start = len(blob) * (i - 1) // rounds
            end = len(blob) * i // rounds
            if end > start:
                with (live_dir / name).open("ab") as handle:
                    handle.write(blob[start:end])
        yield i


def test_live_throughput(scale, tmp_path):
    mode = "smoke" if os.environ.get("REPRO_BENCH_SMOKE") else scale
    store = build_corpus(mode)
    lines = len(store)
    src_dir = tmp_path / "finished"
    store.dump(src_dir)

    # -- sustained ingest: the corpus arrives over _POLL_ROUNDS polls --
    # Best-of-2 over fresh directories, for the same reason the miner
    # benchmark times best-of-3: a single pass on a shared runner flaps
    # by tens of percent, and the floor below is a regression tripwire,
    # not a lottery.
    session = live_report = None
    ingest_seconds = float("inf")
    for attempt in range(2):
        live_dir = tmp_path / f"growing-{attempt}"
        live_dir.mkdir()
        candidate = LiveSession(live_dir)
        elapsed = 0.0
        for _ in _grow_in_rounds(src_dir, live_dir, _POLL_ROUNDS):
            start = time.perf_counter()
            candidate.poll()
            elapsed += time.perf_counter() - start
        start = time.perf_counter()
        report = candidate.drain()
        elapsed += time.perf_counter() - start
        if elapsed < ingest_seconds:
            ingest_seconds = elapsed
            session, live_report = candidate, report
    ingest_lps = lines / ingest_seconds if ingest_seconds > 0 else float("inf")

    # -- equivalence at benchmark scale ---------------------------------
    batch_report = SDChecker(jobs=1).analyze(src_dir)
    assert live_report.to_dict(include_diagnostics=True) == batch_report.to_dict(
        include_diagnostics=True
    )

    # -- p99 query latency under concurrent load ------------------------
    clients = _CLIENTS[mode]
    requests = _REQUESTS_PER_CLIENT[mode]
    app_ids = [app.app_id for app in live_report.apps]
    handle = serve_in_thread(session, poll_interval=0.05)
    latencies: list = [None] * clients
    try:

        def worker(slot: int) -> None:
            mine = []
            with LiveClient(handle.host, handle.port, timeout=30.0) as client:
                for i in range(requests):
                    started = time.perf_counter()
                    if i % 3 == 2:
                        client.decomposition(app_ids[i % len(app_ids)])
                    else:
                        client.apps()
                    mine.append(time.perf_counter() - started)
            latencies[slot] = mine

        threads = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        handle.stop()
    flat = np.array([sample for batch in latencies for sample in batch])
    p99_s = float(np.percentile(flat, 99))

    # The smoke-mode bars CI enforces on every push.
    floor = _MIN_INGEST_LPS[mode]
    assert ingest_lps >= floor, (
        f"live ingest {ingest_lps:.0f} lines/s below the {floor} floor"
    )
    assert p99_s <= _MAX_QUERY_P99_S, (
        f"query p99 {p99_s * 1000:.1f}ms above the "
        f"{_MAX_QUERY_P99_S * 1000:.0f}ms ceiling"
    )


def _partition_files(src_dir: Path, dest_root: Path, shards: int):
    """Round-robin the corpus files into ``shards`` directories."""
    shard_dirs = [dest_root / f"shard{index}" for index in range(shards)]
    for shard_dir in shard_dirs:
        shard_dir.mkdir()
    for index, path in enumerate(sorted(src_dir.iterdir())):
        (shard_dirs[index % shards] / path.name).write_bytes(
            path.read_bytes()
        )
    return shard_dirs


def _timed_sharded_drain(shard_dirs, shards: int):
    """Drain a fresh deployment; returns (merged state, seconds).

    The workers start with polling disabled so the whole corpus is
    ingested inside the timed ``drain`` round trip — process spawn and
    socket setup stay outside the measurement.
    """
    service = ShardedLiveService(shard_dirs, shards=shards, poll=False)
    with service:
        with service.client(timeout=600.0) as client:
            start = time.perf_counter()
            state = client.drain()
            elapsed = time.perf_counter() - start
    return state, elapsed


def test_sharded_ingest_scaling(scale, tmp_path):
    """Sharded drain throughput vs a single worker, same methodology.

    Compares sharded ingest lines/s with the single-process number and
    re-checks the sharded byte-identity contract at benchmark scale.
    Each side's number is the median of ``_DRAINS_PER_SIDE`` drains,
    timed alternately.  The speedup assertions are gated on the runner's
    CPU count: shard processes can only overlap where cores exist to
    run them.
    """
    mode = "smoke" if os.environ.get("REPRO_BENCH_SMOKE") else scale
    store = build_corpus(mode)
    lines = len(store)
    src_dir = tmp_path / "finished"
    store.dump(src_dir)
    shard_dirs = _partition_files(src_dir, tmp_path, _SHARDS)

    single_runs, sharded_runs = [], []
    for _ in range(_DRAINS_PER_SIDE):
        single_runs.append(_timed_sharded_drain(shard_dirs, 1)[1])
        merged_state, seconds = _timed_sharded_drain(shard_dirs, _SHARDS)
        sharded_runs.append(seconds)
    single_seconds = statistics.median(single_runs)
    sharded_seconds = statistics.median(sharded_runs)
    single_lps = lines / single_seconds if single_seconds > 0 else float("inf")
    sharded_lps = (
        lines / sharded_seconds if sharded_seconds > 0 else float("inf")
    )

    # -- the sharded byte-identity contract at benchmark scale ----------
    batch_report = SDChecker(jobs=1).analyze(src_dir)
    merged = report_from_state_payload(merged_state)
    assert json.loads(
        json.dumps(merged.to_dict(include_diagnostics=True))
    ) == json.loads(
        json.dumps(batch_report.to_dict(include_diagnostics=True))
    )

    cpus = os.cpu_count() or 1
    if cpus >= 2:
        # Never slower than one process (5% allowance for timer noise).
        assert sharded_lps >= single_lps * 0.95, (
            f"sharded ingest {sharded_lps:.0f} lines/s slower than a "
            f"single process at {single_lps:.0f} lines/s on {cpus} CPUs "
            f"(medians of {_DRAINS_PER_SIDE} drains per side)"
        )
    if cpus >= 4 and mode != "smoke":
        # The smoke corpus is too small for spawn/merge overhead to
        # amortize; at real scales four workers must halve the time.
        assert sharded_lps >= single_lps * 2, (
            f"sharded ingest {sharded_lps:.0f} lines/s is not 2x the "
            f"single-process {single_lps:.0f} lines/s on {cpus} CPUs"
        )
