"""The live-serve workload's server process: one LiveSession behind serve_in_thread.

The server runs in its own process so the load generator never competes
with it for the interpreter lock; clients of a real deployment are
other processes too.  Protocol, one JSON line each way:

* on start it prints ``{"host": ..., "port": ...}`` to stdout;
* it serves until a line arrives on stdin, then stops the server and
  writes ``--out``: the final report's canonical bytes, the spans
  recorded with ``--trace``, and the session's ingested-line count.

Usage: ``python3 perfbench/live_server.py --logdir DIR --out FILE [--trace]``
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Any, List

ROOT = Path(__file__).resolve().parent.parent
#: The server's poll interval (serve_in_thread's default).
POLL_S = 0.05


def instrument_session(session: Any, tracer: Any, stack: contextlib.ExitStack) -> None:
    """Shadow the session's public methods the server calls with traced ones."""
    ingested = session.metrics.counter("repro_live_ingest_lines_total")
    poll = session.poll

    def counted_poll() -> int:
        before = ingested.value
        try:
            return poll()
        finally:
            span = tracer.current()
            if span is not None:
                span.counts["lines"] = ingested.value - before

    session.poll = counted_poll
    last: List[Any] = [None]

    def rebuilt(span: Any, report: Any, args: tuple, kwargs: dict) -> None:
        span.counts["rebuild"] = int(report is not last[0])
        last[0] = report

    for owner, attr, name, on_result in (
        (session, "poll", "live.poll", None),
        (session.miner, "feed", "live.fold", None),
        (session, "report", "live.report", rebuilt),
        (session, "apps_payload", "live.query.apps", None),
        (session, "decomposition_payload", "live.query.decomposition", None),
        *[(tailer, "poll", "live.tail", None) for tailer in session.tailers],
    ):
        stack.enter_context(tracer.patch(owner, attr, name, on_result))


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--logdir", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from repro.live import LiveSession, serve_in_thread

    from perfbench.checks import report_bytes
    from perfbench.spans import Tracer

    tracer = Tracer()
    session = LiveSession(args.logdir)
    with contextlib.ExitStack() as stack:
        if args.trace:
            from perfbench.workloads import instrument

            stack.enter_context(instrument(tracer))
            instrument_session(session, tracer, stack)
        handle = serve_in_thread(session, poll_interval=POLL_S)
        try:
            print(json.dumps({"host": handle.host, "port": handle.port}), flush=True)
            sys.stdin.readline()
        finally:
            handle.stop()
        report = report_bytes(session.report()).decode("utf-8")
    payload = {
        "report": report,
        "lines": session.metrics.counter("repro_live_ingest_lines_total").value,
        "spans": [asdict(span) for span in tracer.spans],
    }
    args.out.write_text(json.dumps(payload), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
