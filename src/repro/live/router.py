"""The merging front end of a sharded live deployment.

A :class:`RouterServer` speaks the same JSON-lines protocol as a
single-shard :class:`~repro.live.server.LiveServer` — the same op table
and the same answer builders, so clients cannot tell the difference —
but behind it sit N worker servers, each tailing its own slice of the
log directories.  Every query fans out to all shards concurrently and
the answers merge deterministically:

* ``apps`` / ``decomposition`` — answered from the *merged* miner
  state, not by concatenating per-shard rows: an application whose
  streams span shards (its containers on one worker, the RM daemon on
  another) exists as a partial row on each, and only the union of the
  underlying accumulator states reproduces the single-session answer;
* ``diagnostics`` — also from the merged state: a shard holding an
  app's containers but not its ResourceManager stream would count its
  own events as orphans, so summing per-shard ledgers reports a
  degraded deployment that the union view knows is healthy.  Only the
  tailer-level counters (lag, resyncs, rotations) sum, because tailing
  really is per-shard work;
* ``metrics`` / ``metrics_state`` — the shards' registry states merge
  through :func:`~repro.live.metrics.merge_metric_states` together
  with the router's own registry (which holds the front-end request
  counters), then render once;
* ``state`` / ``drain`` — the shards' miner states union into a
  payload of the *same shape* a single session produces, so a router
  composes: it can itself stand in for a shard.

The merge functions are module-level and pure so tests (and the
byte-identity contract) can exercise them without sockets: a drained
deployment's :func:`report_from_state_payload` result is byte-identical
to batch ``SDChecker`` over the union of the shards' directories, for
any shard assignment — the sharded extension of the replay-equivalence
contract.  The identity holds because the merged payload is rebuilt
into one :class:`~repro.live.incremental.LiveMiner` and pushed through
:func:`~repro.core.checker.analyze_events`, the same tail batch runs;
merging is a union of disjoint per-stream states, not arithmetic on
derived numbers.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.checker import analyze_events
from repro.core.report import AnalysisReport
from repro.live.incremental import (
    LiveMiner,
    app_rows,
    decomposition_entries,
    diagnostics_dict,
)
from repro.live.metrics import build_live_registry, merge_metric_states
from repro.live.server import JsonLineServer, RequestError

__all__ = [
    "RouterServer",
    "ShardError",
    "merge_state_payloads",
    "report_from_state_payload",
]


class ShardError(RequestError):
    """A shard was unreachable or answered ``ok: false``."""


#: StreamReader buffer limit for shard responses.  A drained shard's
#: ``state`` line carries its full miner state — far past asyncio's
#: 64 KiB default readline limit at real corpus sizes.  The buffer is
#: allocated lazily, so a generous cap costs nothing on small answers.
SHARD_RESPONSE_LIMIT = 1 << 28


# -- pure merge functions ----------------------------------------------------

def merge_state_payloads(payloads: Sequence[dict]) -> dict:
    """Union per-shard ``state`` payloads into one session-shaped payload.

    Miner stream states union keyed by daemon name; a daemon appearing
    on two shards is the sharded analogue of the single-session
    collision and raises :class:`ValueError` rather than silently
    interleaving two byte streams.  Finality and eviction sets union,
    tailer counters sum, ``drained`` is true only when every shard has
    drained.
    """
    miner_state: Dict[str, dict] = {}
    owner: Dict[str, int] = {}
    final_apps: set = set()
    evicted_apps: set = set()
    tail_lag = resyncs = rotations = 0
    drained = True
    for index, payload in enumerate(payloads):
        for daemon, stream_state in payload["miner"].items():
            held = owner.get(daemon)
            if held is not None:
                raise ValueError(
                    f"daemon {daemon!r} appears on shard {held} and shard "
                    f"{index}; shard directories must have disjoint "
                    "stream names"
                )
            owner[daemon] = index
            miner_state[daemon] = stream_state
        final_apps.update(payload.get("final_apps", ()))
        evicted_apps.update(payload.get("evicted_apps", ()))
        tail_lag += payload.get("tail_lag_bytes", 0)
        resyncs += payload.get("resyncs", 0)
        rotations += payload.get("rotations", 0)
        drained = drained and bool(payload.get("drained"))
    return {
        "miner": {daemon: miner_state[daemon] for daemon in sorted(miner_state)},
        "final_apps": sorted(final_apps),
        "evicted_apps": sorted(evicted_apps),
        "tail_lag_bytes": tail_lag,
        "resyncs": resyncs,
        "rotations": rotations,
        "drained": drained,
    }


def report_from_state_payload(payload: dict) -> AnalysisReport:
    """Rebuild the canonical analysis from a (merged) state payload.

    This is the byte-identity path: the same accumulator rehydration
    and the same :func:`analyze_events` tail a live session (and, via
    the replay contract, a batch run) uses.
    """
    miner = LiveMiner.from_state(payload["miner"])
    events = miner.events()
    evicted = set(payload.get("evicted_apps", ()))
    if evicted:
        events = [event for event in events if event.app_id not in evicted]
    return analyze_events(events, miner.diagnostics())


# -- shard plumbing ----------------------------------------------------------

class ShardConnection:
    """One persistent JSON-lines connection from the router to a shard.

    Requests are serialized per shard with a lock: concurrent router
    connections fanning out to the same shard must not interleave their
    request lines (responses come back in request order).
    """

    def __init__(self, host: str, port: int, index: int):
        self.host = host
        self.port = port
        self.index = index
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._lock = asyncio.Lock()

    async def request(self, op: str) -> dict:
        payload = {"op": op}
        async with self._lock:
            try:
                if self._writer is None:
                    self._reader, self._writer = await asyncio.open_connection(
                        self.host, self.port, limit=SHARD_RESPONSE_LIMIT
                    )
                self._writer.write(
                    json.dumps(payload).encode("utf-8") + b"\n"
                )
                await self._writer.drain()
                line = await self._reader.readline()
            except OSError as exc:
                await self.close()
                raise ShardError(
                    f"shard {self.index} ({self.host}:{self.port}) "
                    f"unreachable: {exc}"
                ) from exc
            if not line:
                await self.close()
                raise ShardError(
                    f"shard {self.index} ({self.host}:{self.port}) closed "
                    "the connection"
                )
            return json.loads(line.decode("utf-8"))

    async def result(self, op: str):
        response = await self.request(op)
        if not response.get("ok"):
            raise ShardError(
                f"shard {self.index} failed {op!r}: "
                f"{response.get('error', 'unknown error')}"
            )
        return response["result"]

    async def close(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()


class RouterServer(JsonLineServer):
    """Fan-out/merge front end over N shard servers."""

    def __init__(
        self,
        shards: Iterable[Tuple[str, int]],
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        super().__init__(host=host, port=port)
        self.shards = [
            ShardConnection(shard_host, shard_port, index)
            for index, (shard_host, shard_port) in enumerate(shards)
        ]
        if not self.shards:
            raise ValueError("RouterServer needs at least one shard")
        #: The router's own registry: front-end request counters.  The
        #: ``metrics`` op merges it with every shard's state so one
        #: scrape sees the whole deployment.
        self.metrics = build_live_registry()

    async def _on_close(self) -> None:
        for shard in self.shards:
            await shard.close()

    async def _fan_out(self, op: str) -> List:
        """Run one op on every shard concurrently; results in shard order."""
        return list(
            await asyncio.gather(*(shard.result(op) for shard in self.shards))
        )

    # -- dispatch ----------------------------------------------------------
    async def _dispatch(self, op: str, app_id: Any) -> Any:
        try:
            if op in ("apps", "decomposition", "diagnostics"):
                state = merge_state_payloads(await self._fan_out("state"))
                report = report_from_state_payload(state)
                final = set(state["final_apps"])
                if op == "apps":
                    return app_rows(report, final)
                if op == "decomposition":
                    return decomposition_entries(report, final).get(app_id)
                return {
                    **diagnostics_dict(report, state),
                    "shards": len(self.shards),
                }
            if op in ("metrics", "metrics_state"):
                states = await self._fan_out("metrics_state")
                registry = merge_metric_states(
                    states + [self.metrics.to_state()]
                )
                if op == "metrics":
                    return registry.render()
                return registry.to_state()
            if op in ("state", "drain"):
                return merge_state_payloads(await self._fan_out(op))
        except ValueError as exc:
            raise RequestError(f"merge failed: {exc}") from exc
        # shutdown, best effort: a dead shard must not block the rest
        # of the deployment from stopping.
        await asyncio.gather(
            *(shard.request("shutdown") for shard in self.shards),
            return_exceptions=True,
        )
        return "shutting down"
