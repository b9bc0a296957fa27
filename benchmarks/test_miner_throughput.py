"""Miner throughput: the in-memory store lane vs the byte directory lane.

Generates a synthetic multi-application log corpus (RM + NM + one
stream per container, with realistic executor chatter as noise),
times

* the **store** lane (``LogMiner().mine(store)``: the in-memory record
  scan, folded through the same accumulator as every other source);
* the **fast directory** path (bulk chunk classification, chunk
  partitioning), serial and at ``jobs=4``;

and asserts they all agree event-for-event, timestamps and diagnostics
ledger included.  Timings only feed the bars below; perfbench
(``BENCHMARK.json``) records throughput.

Corpus size: ~500k lines under ``REPRO_SCALE=paper`` (the acceptance
corpus), ~160k under the default ``small`` scale, and 182 when
``REPRO_BENCH_SMOKE=1`` (the CI smoke job, which checks equivalence).
Both timed scales sit above
:data:`~repro.core.parser.AUTO_SERIAL_THRESHOLD_LINES`, so ``jobs=4``
is timed only where ``--jobs auto`` would also pick a worker pool.
The parallel-speedup assertion only runs with at least two usable
CPUs — on a single-CPU runner a worker pool cannot beat serial.
"""

from __future__ import annotations

import os
import time

from repro.core.parser import LogMiner, available_cpus
from repro.logsys.store import LogStore

from benchmarks.corpus_large import EXEC_CHATTER, EXECUTORS_PER_APP

#: Applications per mode.
_APPS = {"smoke": 2, "small": 35, "paper": 165}
#: Noise lines per executor stream — the corpus knob.  Application logs
#: dominate real collections, so throughput is decided by how fast the
#: miner rejects chatter lines.  ``small`` (159,285 lines) is sized
#: past ``AUTO_SERIAL_THRESHOLD_LINES``.
_NOISE_LINES = {"smoke": 8, "small": 900, "paper": 600}


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

    for i in range(1, _APPS[mode] + 1):
        app = f"application_1515715200000_{i:04d}"
        containers = [
            f"container_1515715200000_{i:04d}_01_{c:06d}"
            for c in range(1, EXECUTORS_PER_APP + 2)
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
        emit(am, "org.apache.spark.deploy.yarn.YarnAllocator", f"SDCHECKER START_ALLO Will request {EXECUTORS_PER_APP} executor container(s) for {app}")
        emit(am, "org.apache.spark.deploy.yarn.YarnAllocator", f"SDCHECKER END_ALLO All requested containers allocated for {app} ({EXECUTORS_PER_APP} granted)")
        for j, cid in enumerate(executors):
            cls = "org.apache.spark.executor.CoarseGrainedExecutorBackend"
            emit(cid, cls, f"Started daemon with process name: {j + 2}@node02 for container {cid}")
            for k in range(noise):
                emit(cid, "org.apache.spark.executor.Executor", EXEC_CHATTER[k % len(EXEC_CHATTER)])
            emit(cid, "org.apache.spark.executor.Executor", f"Got assigned task {j}")
            for k in range(noise // 4):
                emit(cid, "org.apache.spark.executor.Executor", EXEC_CHATTER[k % len(EXEC_CHATTER)])
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


def test_miner_throughput(scale, tmp_path):
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

    assert lines / store_s > 0 and lines / fast_serial_s > 0
    if mode != "smoke" and cpus >= 2:
        # Chunk parallelism must win outright wherever there is a
        # second CPU to scale onto; on a single-CPU runner the pool can
        # only lose.  Workers return their scan tuples, which
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
