"""A blocking JSON-lines client for the live query server.

Deliberately synchronous (plain sockets, no asyncio): the client runs
in whatever thread the caller already has — a test, the ``query`` CLI,
a benchmark worker — and one request/response round trip is the whole
interaction model.
"""

from __future__ import annotations

import json
import socket
from typing import List, Optional

__all__ = ["OPS", "LiveClient", "QueryError"]

#: Every op the protocol answers, in the order the unknown-op error
#: lists them.
OPS = (
    "apps",
    "decomposition",
    "diagnostics",
    "metrics",
    "metrics_state",
    "state",
    "drain",
    "shutdown",
)


class QueryError(RuntimeError):
    """The server answered, but with ``ok: false``."""


class LiveClient:
    """One connection to a :class:`~repro.live.server.LiveServer`."""

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._sock.makefile("rb")

    # -- plumbing ----------------------------------------------------------
    def request(self, op: str, **params) -> dict:
        """One raw round trip; the full response envelope."""
        payload = {"op": op, **params}
        self._sock.sendall(json.dumps(payload).encode("utf-8") + b"\n")
        line = self._reader.readline()
        if not line:
            raise ConnectionError(
                "server closed the connection (slow-consumer drop or shutdown)"
            )
        return json.loads(line.decode("utf-8"))

    def _result(self, op: str, **params):
        response = self.request(op, **params)
        if not response.get("ok"):
            raise QueryError(response.get("error", "query failed"))
        return response["result"]

    # -- operations --------------------------------------------------------
    def apps(self) -> List[dict]:
        """Status rows: app_id, provisional/final, headline delays."""
        return self._result("apps")

    def decomposition(self, app_id: str) -> dict:
        """One application's full per-component breakdown."""
        return self._result("decomposition", app_id=app_id)

    def diagnostics(self) -> dict:
        """The mining ledger plus tailer counters."""
        return self._result("diagnostics")

    def metrics(self) -> str:
        """The registry in Prometheus text exposition format."""
        return self._result("metrics")

    def metrics_state(self) -> dict:
        """The registry's mergeable state (cross-shard aggregation)."""
        return self._result("metrics_state")

    def state(self) -> dict:
        """The session's full miner state (what a router unions)."""
        return self._result("state")

    def drain(self) -> dict:
        """Flush held-back tails; the drained state payload."""
        return self._result("drain")

    def shutdown(self) -> str:
        """Ask the server to stop (after answering)."""
        return self._result("shutdown")

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "LiveClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
