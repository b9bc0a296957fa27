"""Seeded multi-GB log corpus, generated straight to disk.

``benchmarks/test_miner_throughput.py`` builds its corpus in a
:class:`~repro.logsys.store.LogStore` and dumps it — fine at ~500k
lines, impossible at multi-GB scale, where a corpus cannot be
materialized in memory first and the kernel page cache and copy volume
decide what serial and parallel mining cost.

:func:`generate_large_corpus` therefore renders log4j text directly
into ``<daemon>.log`` files, reusing the exact line shapes of the
throughput corpus (RM app/container state changes, NM container
transitions, AM SDCHECKER allocation markers, executor task lines
drowned in chatter) so the mined event structure is the familiar one —
just at whatever byte size the caller asks for.

Determinism: the generator is fully seeded (`random.Random(seed)`)
and clocked by a counter, so a ``(target_bytes, seed)`` pair always
produces byte-identical files — the large benchmark's serial/parallel
equivalence check compares runs over one fixed corpus, and re-runs are
reproducible across machines.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Dict, List, TextIO, Tuple

from repro.logsys.record import format_timestamp

__all__ = ["generate_large_corpus", "DEFAULT_SEED", "EXECUTORS_PER_APP", "EXEC_CHATTER"]

DEFAULT_SEED = 20180112

EXECUTORS_PER_APP = 4
_NM_HOSTS = 7

#: Executor chatter — the noise floor real throughput is decided by.
#: The throughput corpus (``test_miner_throughput.py``) draws from this
#: table too.  The last two are near misses: they share a literal
#: prefix with a real message but fail its body, so the miner's
#: alternation (not just its gate) gets exercised.
EXEC_CHATTER = (
    "Starting executor heartbeat thread",
    "Finished task 3.0 in stage 1.0 (TID 7) in 23 ms on node02 (1/4)",
    "Running task 1.0 in stage 2.0 (TID 11)",
    "Block broadcast_3_piece0 stored as bytes in memory",
    "Told master about block broadcast_3_piece0",
    "Reading broadcast variable 3 took 2 ms",
    "Got assigned task slot on host node02",
    "Task attempt finished cleanly",
)

#: Noise lines per executor stream.  ~100 B/line puts one app (4
#: executors + AM + RM/NM bookkeeping) at roughly 1 MiB, so app count
#: scales linearly with the byte target.
_NOISE_PER_EXECUTOR = 2400


class _Clock:
    """1 ms-per-line monotone clock with a cached per-second prefix.

    ``format_timestamp`` is an f-string cascade; calling it per line is
    the difference between a generator that takes seconds and one that
    takes minutes at multi-GB scale.  The date+time part only changes
    once a second (= every 1000 lines), so cache it.
    """

    __slots__ = ("millis", "_sec", "_prefix")

    def __init__(self) -> None:
        self.millis = 0
        self._sec = -1
        self._prefix = ""

    def stamp(self) -> str:
        self.millis += 1
        sec, ms = divmod(self.millis, 1000)
        if sec != self._sec:
            self._sec = sec
            # "yyyy-MM-dd HH:mm:ss,SSS" minus the three millis digits.
            self._prefix = format_timestamp(float(sec))[:-3]
        return f"{self._prefix}{ms:03d}"


def generate_large_corpus(
    directory: str | Path,
    target_bytes: int,
    seed: int = DEFAULT_SEED,
) -> Tuple[int, int]:
    """Write a corpus of at least ``target_bytes`` of log text.

    Returns ``(total_bytes, total_lines)`` actually written.  Apps are
    emitted whole, so the corpus overshoots the target by at most one
    app's worth (~1 MiB).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    clock = _Clock()
    written = 0
    lines = 0

    def open_stream(daemon: str) -> TextIO:
        return open(directory / f"{daemon}.log", "w", encoding="utf-8", newline="")

    rm = open_stream("hadoop-resourcemanager")
    nms = [open_stream(f"hadoop-nodemanager-node{n:02d}") for n in range(1, _NM_HOSTS + 1)]
    handles: List[TextIO] = [rm, *nms]

    def emit(handle: TextIO, cls: str, message: str) -> None:
        nonlocal written, lines
        line = f"{clock.stamp()} INFO {cls}: {message}\n"
        handle.write(line)
        written += len(line)  # every shape here is pure ASCII
        lines += 1

    def emit_stream(daemon: str, records: List[Tuple[str, str]]) -> None:
        """One container stream, built in memory and written once."""
        nonlocal written, lines
        parts = [
            f"{clock.stamp()} INFO {cls}: {message}\n" for cls, message in records
        ]
        text = "".join(parts)
        with open_stream(daemon) as handle:
            handle.write(text)
        written += len(text)
        lines += len(parts)

    try:
        app_index = 0
        while written < target_bytes:
            app_index += 1
            i = app_index
            app = f"application_1515715200000_{i:04d}"
            containers = [
                f"container_1515715200000_{i:04d}_01_{c:06d}"
                for c in range(1, EXECUTORS_PER_APP + 2)
            ]
            am, executors = containers[0], containers[1:]
            emit(rm, "x.RMAppImpl", f"{app} State change from NEW to SUBMITTED on event = START")
            emit(rm, "x.RMAppImpl", f"{app} State change from SUBMITTED to ACCEPTED on event = APP_ACCEPTED")
            for c_idx, cid in enumerate(containers):
                emit(rm, "x.RMContainerImpl", f"{cid} Container Transitioned from NEW to ALLOCATED")
                emit(rm, "x.RMContainerImpl", f"{cid} Container Transitioned from ALLOCATED to ACQUIRED")
                nm = nms[(i + c_idx) % _NM_HOSTS]
                emit(nm, "x.ContainerImpl", f"Container {cid} transitioned from NEW to LOCALIZING")
                emit(nm, "x.ContainerImpl", f"Container {cid} transitioned from LOCALIZING to SCHEDULED")
                emit(nm, "x.ContainerImpl", f"Container {cid} transitioned from SCHEDULED to RUNNING")
                emit(nm, "x.ContainersMonitorImpl", f"Memory usage of ProcessTree for {cid}: 180MB")
            emit(rm, "x.RMAppImpl", f"{app} State change from ACCEPTED to RUNNING on event = ATTEMPT_REGISTERED")

            emit_stream(am, [
                ("org.apache.spark.deploy.yarn.ApplicationMaster", "Preparing Local resources"),
                ("org.apache.spark.deploy.yarn.ApplicationMaster", f"Registered ApplicationMaster for {app}"),
                ("org.apache.spark.deploy.yarn.YarnAllocator", f"SDCHECKER START_ALLO Will request {EXECUTORS_PER_APP} executor container(s) for {app}"),
                ("org.apache.spark.deploy.yarn.YarnAllocator", f"SDCHECKER END_ALLO All requested containers allocated for {app} ({EXECUTORS_PER_APP} granted)"),
            ])
            for j, cid in enumerate(executors):
                records: List[Tuple[str, str]] = [(
                    "org.apache.spark.executor.CoarseGrainedExecutorBackend",
                    f"Started daemon with process name: {j + 2}@node02 for container {cid}",
                )]
                chatter = "org.apache.spark.executor.Executor"
                # Seeded draw: the chatter mix (and hence the byte
                # layout) varies across executors but never across runs.
                task_at = rng.randrange(_NOISE_PER_EXECUTOR // 2, _NOISE_PER_EXECUTOR)
                for k in range(_NOISE_PER_EXECUTOR):
                    if k == task_at:
                        records.append((chatter, f"Got assigned task {j}"))
                    records.append((chatter, rng.choice(EXEC_CHATTER)))
                emit_stream(cid, records)
            emit(rm, "x.RMAppImpl", f"{app} State change from RUNNING to FINISHED on event = ATTEMPT_FINISHED")
    finally:
        for handle in handles:
            handle.close()
    return written, lines
