"""Open-loop load: actions fire on a fixed schedule, whatever the server does.

Every latency is timed from the moment its request was *due*, not from
when it was sent, so a stall that delays later sends is charged to the
requests it delayed.  How late each action actually started is recorded
too, so a run whose generator fell behind reads as such.
"""

from __future__ import annotations

import json
import random
import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional

from perfbench.speed import work_slice

__all__ = ["Schedule", "QueryResult", "QueryLoad", "grow_files", "run_schedule"]

#: Seconds before a due time from which the query sender stops blocking;
#: a blocked thread wakes 0.2-0.5 ms late on a 2-vCPU virtual machine.
SPIN_S = 0.001


@dataclass(frozen=True)
class Schedule:
    """``count`` actions, ``interval`` seconds apart, from ``start``."""

    start: float
    interval: float
    count: int

    def due(self, index: int) -> float:
        return self.start + index * self.interval


def run_schedule(
    schedule: Schedule,
    action: Callable[[int], None],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> List[float]:
    """Run ``action(i)`` at each due time; returns each start's lateness (s).

    An action that starts late does not shift the ones after it: those
    stay on their own due times.
    """
    late: List[float] = []
    for index in range(schedule.count):
        due = schedule.due(index)
        wait = due - clock()
        if wait > 0:
            sleep(wait)
        late.append(max(0.0, clock() - due))
        action(index)
    return late


def grow_files(source: Path, target: Path, rounds: int) -> Callable[[int], int]:
    """An action appending the ``i``-th of ``rounds`` slices of every source file.

    Slices cut at byte offsets, so lines arrive split across appends, as
    they do from a real log writer.  Returns the bytes appended.
    """
    blobs = {path.name: path.read_bytes() for path in sorted(source.iterdir())}

    def append(index: int) -> int:
        written = 0
        for name, blob in blobs.items():
            lo = len(blob) * index // rounds
            hi = len(blob) * (index + 1) // rounds
            if hi > lo:
                with (target / name).open("ab") as handle:
                    handle.write(blob[lo:hi])
                written += hi - lo
        return written

    return append


@dataclass
class QueryResult:
    index: int
    op: str
    due: float
    sent: float
    done: Optional[float] = None
    ok: bool = False
    error: Optional[str] = None

    @property
    def latency(self) -> Optional[float]:
        """Seconds from due time to response; None if none arrived."""
        return None if self.done is None else self.done - self.due

    @property
    def late(self) -> float:
        return max(0.0, self.sent - self.due)


@dataclass
class QueryLoad:
    """One connection sending a fixed-rate ``apps``/``decomposition`` mix.

    Requests are pipelined: each goes out at its due time whether or not
    earlier ones were answered (the server answers a connection's
    requests in order).  Every third request is a ``decomposition`` of an
    app drawn by a seeded RNG from the latest ``apps`` answer; until one
    has arrived, ``apps`` is sent instead.

    The sender polls its socket without blocking while a response is
    outstanding and from :data:`SPIN_S` before each due time.  On a
    virtual machine, waking an idle vCPU from a timer or a socket costs
    a few hundred microseconds that vary with the host's load; a
    blocking sender would pay that twice per query and charge it to the
    server.  Between those windows it blocks, so it uses about a fifth
    of one CPU at 100 queries/s.  While it waits for a due time
    with no response outstanding, so while the server has no query to
    answer, it runs the host speed probe's slices and records their
    times in :attr:`slices` (see :mod:`perfbench.speed`).
    """

    host: str
    port: int
    schedule: Schedule
    seed: int
    #: A request unanswered this long after its due time has failed.
    timeout: float = 10.0
    clock: Callable[[], float] = time.perf_counter
    results: List[QueryResult] = field(default_factory=list)
    #: Seconds each probe slice took.
    slices: List[float] = field(default_factory=list)

    def run(self) -> List[QueryResult]:
        rng = random.Random(self.seed)
        known: List[str] = []
        pending: Deque[QueryResult] = deque()
        buffer = b""
        sent = 0
        # select(2) takes a microsecond timeout; epoll's is whole
        # milliseconds, which could wake the sender after a due time.
        with socket.create_connection((self.host, self.port), timeout=self.timeout) as sock, \
                selectors.SelectSelector() as selector:
            # Small pipelined requests must not wait for the previous one's ACK.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            selector.register(sock, selectors.EVENT_READ)
            while sent < self.schedule.count or pending:
                now = self.clock()
                if sent < self.schedule.count and now >= self.schedule.due(sent):
                    draw = rng.randrange(1 << 30)
                    op = "decomposition" if sent % 3 == 2 and known else "apps"
                    request: Dict[str, object] = {"op": op}
                    if op == "decomposition":
                        request["app_id"] = known[draw % len(known)]
                    payload = json.dumps(request).encode("utf-8") + b"\n"
                    query = QueryResult(sent, op, self.schedule.due(sent), self.clock())
                    sock.sendall(payload)
                    self.results.append(query)
                    pending.append(query)
                    sent += 1
                    continue
                if pending and now > pending[0].due + self.timeout:
                    for query in pending:
                        query.error = "timed out"
                    break
                wait = 0.0
                if not pending:
                    # With nothing pending the loop runs only while sends remain.
                    next_due = self.schedule.due(sent)
                    if next_due - now > SPIN_S:
                        wait = next_due - SPIN_S - now
                    else:
                        start = self.clock()
                        work_slice(len(self.slices))
                        self.slices.append(self.clock() - start)
                if not selector.select(timeout=wait):
                    continue
                data = sock.recv(1 << 16)
                if not data:
                    for query in pending:
                        query.error = "connection closed"
                    break
                buffer += data
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    query = pending.popleft()
                    query.done = self.clock()
                    response = json.loads(line)
                    query.ok = bool(response.get("ok"))
                    if not query.ok:
                        query.error = str(response.get("error"))
                    elif query.op == "apps":
                        known = sorted(row["app_id"] for row in response["result"])
        return self.results
