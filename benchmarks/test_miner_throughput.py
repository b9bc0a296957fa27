"""Miner throughput: the in-memory store lane vs the byte directory lane.

Generates a synthetic multi-application log corpus (RM + NM + one
stream per container, with realistic executor chatter as noise),
measures lines/sec for

* the **store** lane (``LogMiner().mine(store)``: the in-memory record
  scan, folded through the same accumulator as every other source);
* the **fast directory** path (bulk chunk classification, chunk
  partitioning), serial and at ``jobs=4``;

asserts they all agree event-for-event, timestamps and diagnostics
ledger included, and appends a trajectory point to
``benchmarks/results/BENCH_miner.json``.

Corpus size: ~500k lines under ``REPRO_SCALE=paper`` (the acceptance
corpus), ~160k under the default ``small`` scale, and 182 when
``REPRO_BENCH_SMOKE=1`` (the CI smoke job, which checks equivalence).
Both timed scales sit above
:data:`~repro.core.parser.AUTO_SERIAL_THRESHOLD_LINES`, so ``jobs=4``
is timed only where ``--jobs auto`` would also pick a worker pool.
The parallel-speedup assertion only runs with at least two usable
CPUs — on a single-CPU runner a worker pool cannot beat serial and the
recorded number simply documents that honestly.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.core.parser import LogMiner, available_cpus
from repro.logsys.store import LogStore

RESULTS_DIR = Path(__file__).parent / "results"
BENCH_FILE = RESULTS_DIR / "BENCH_miner.json"

_EXECUTORS_PER_APP = 4
#: Noise lines per executor stream — the corpus knob.  Application logs
#: dominate real collections, so throughput is decided by how fast the
#: miner rejects chatter lines.  ``small`` (159,285 lines) is sized
#: past ``AUTO_SERIAL_THRESHOLD_LINES``.
_NOISE_LINES = {"smoke": 8, "small": 900, "paper": 600}

_EXEC_CHATTER = (
    "Starting executor heartbeat thread",
    "Finished task 3.0 in stage 1.0 (TID 7) in 23 ms on node02 (1/4)",
    "Running task 1.0 in stage 2.0 (TID 11)",
    "Block broadcast_3_piece0 stored as bytes in memory",
    "Told master about block broadcast_3_piece0",
    "Reading broadcast variable 3 took 2 ms",
    # Near misses: share a literal prefix with a real message but fail
    # its body, so the alternation (not just the gate) gets exercised.
    "Got assigned task slot on host node02",
    "Task attempt finished cleanly",
)


def corpus_apps(mode: str) -> int:
    return {"smoke": 2, "small": 35, "paper": 165}[mode]


def build_corpus(mode: str) -> LogStore:
    """A deterministic multi-app log collection of the requested scale."""
    store = LogStore()
    noise = _NOISE_LINES[mode]
    clock = [0.0]

    def tick() -> float:
        clock[0] += 0.001
        return clock[0]

    def emit(daemon: str, cls: str, message: str) -> None:
        store.logger(daemon, tick).info(cls, message)

    for i in range(1, corpus_apps(mode) + 1):
        app = f"application_1515715200000_{i:04d}"
        containers = [
            f"container_1515715200000_{i:04d}_01_{c:06d}"
            for c in range(1, _EXECUTORS_PER_APP + 2)
        ]
        am, executors = containers[0], containers[1:]
        rm = "hadoop-resourcemanager"
        emit(rm, "x.RMAppImpl", f"{app} State change from NEW to SUBMITTED on event = START")
        emit(rm, "x.RMAppImpl", f"{app} State change from SUBMITTED to ACCEPTED on event = APP_ACCEPTED")
        for c_idx, cid in enumerate(containers):
            emit(rm, "x.RMContainerImpl", f"{cid} Container Transitioned from NEW to ALLOCATED")
            emit(rm, "x.RMContainerImpl", f"{cid} Container Transitioned from ALLOCATED to ACQUIRED")
            emit(rm, "x.ClientRMService", f"Allocated new applicationId: {i}")
            nm = f"hadoop-nodemanager-node{(i + c_idx) % 7 + 1:02d}"
            emit(nm, "x.ContainerImpl", f"Container {cid} transitioned from NEW to LOCALIZING")
            emit(nm, "x.ContainerImpl", f"Container {cid} transitioned from LOCALIZING to SCHEDULED")
            emit(nm, "x.ContainerImpl", f"Container {cid} transitioned from SCHEDULED to RUNNING")
            emit(nm, "x.ContainersMonitorImpl", f"Memory usage of ProcessTree for {cid}: 180MB")
        emit(rm, "x.RMAppImpl", f"{app} State change from ACCEPTED to RUNNING on event = ATTEMPT_REGISTERED")
        emit(am, "org.apache.spark.deploy.yarn.ApplicationMaster", "Preparing Local resources")
        emit(am, "org.apache.spark.deploy.yarn.ApplicationMaster", f"Registered ApplicationMaster for {app}")
        emit(am, "org.apache.spark.deploy.yarn.YarnAllocator", f"SDCHECKER START_ALLO Will request {_EXECUTORS_PER_APP} executor container(s) for {app}")
        emit(am, "org.apache.spark.deploy.yarn.YarnAllocator", f"SDCHECKER END_ALLO All requested containers allocated for {app} ({_EXECUTORS_PER_APP} granted)")
        for j, cid in enumerate(executors):
            cls = "org.apache.spark.executor.CoarseGrainedExecutorBackend"
            emit(cid, cls, f"Started daemon with process name: {j + 2}@node02 for container {cid}")
            for k in range(noise):
                emit(cid, "org.apache.spark.executor.Executor", _EXEC_CHATTER[k % len(_EXEC_CHATTER)])
            emit(cid, "org.apache.spark.executor.Executor", f"Got assigned task {j}")
            for k in range(noise // 4):
                emit(cid, "org.apache.spark.executor.Executor", _EXEC_CHATTER[k % len(_EXEC_CHATTER)])
        emit(rm, "x.RMAppImpl", f"{app} State change from RUNNING to FINISHED on event = ATTEMPT_FINISHED")
    return store


def _time(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _time_best(fn, *args, rounds: int = 3):
    """Best-of-N timing: damps scheduler and page-cache flake in CI."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        result, elapsed = _time(fn, *args)
        best = min(best, elapsed)
    return result, best


def _record_point(point: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    history = []
    if BENCH_FILE.exists():
        history = json.loads(BENCH_FILE.read_text(encoding="utf-8"))
    history.append(point)
    BENCH_FILE.write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")


def test_miner_throughput(benchmark, scale, tmp_path):
    mode = "smoke" if os.environ.get("REPRO_BENCH_SMOKE") else scale
    store = build_corpus(mode)
    lines = len(store)
    logdir = tmp_path / "corpus"
    store.dump(logdir)

    miner = LogMiner()
    (store_events, store_diag), store_s = _time_best(miner.mine, store)
    (fast_serial_events, fast_serial_diag), fast_serial_s = _time_best(
        miner.mine, str(logdir)
    )
    (fast_parallel_events, fast_parallel_diag), fast_parallel_s = _time_best(
        miner.mine, str(logdir), 4
    )
    benchmark.pedantic(miner.mine, args=(str(logdir),), rounds=1, iterations=1)

    # Equivalence: one lane, so the store and its dumped directory mine
    # to the same events and ledger, serially and in parallel.
    assert store_events
    assert fast_serial_events == store_events
    assert fast_parallel_events == store_events
    ledgers = [
        {d: stream.to_dict() for d, stream in diag.streams.items()}
        for diag in (store_diag, fast_serial_diag, fast_parallel_diag)
    ]
    assert ledgers[1] == ledgers[0] and ledgers[2] == ledgers[0]

    cpus = available_cpus()
    parallel_ratio = (
        fast_serial_s / fast_parallel_s if fast_parallel_s > 0 else float("inf")
    )
    point = {
        "mode": mode,
        "corpus_lines": lines,
        "apps": corpus_apps(mode),
        "cpus": cpus,
        "serial_store_lps": round(lines / store_s),
        "fast_serial_dir_lps": round(lines / fast_serial_s),
        "fast_parallel_dir_lps": round(lines / fast_parallel_s),
        "parallel_jobs": 4,
        "fast_parallel_ratio": round(parallel_ratio, 2),
    }
    _record_point(point)
    print()
    print(json.dumps(point))

    assert lines / store_s > 0 and lines / fast_serial_s > 0
    if mode != "smoke" and cpus >= 2:
        # Chunk parallelism must win outright wherever there is a
        # second CPU to scale onto; on a single-CPU runner the pool can
        # only lose, and the recorded point documents that honestly
        # instead.  Workers return their scan tuples, which
        # Executor.map pickles back to the parent.
        assert parallel_ratio > 1.0, (
            f"--jobs 4 only {parallel_ratio:.2f}x over the serial fast path"
        )
    if mode == "paper" and cpus >= 4:
        # With all four workers backed by real cores, demand real
        # scaling, not just a win.
        assert parallel_ratio >= 1.8, (
            f"--jobs 4 only {parallel_ratio:.2f}x over the serial fast path"
        )
