"""Command-line interface: ``python -m repro.live {watch,serve,query}``.

* ``watch``  — tail a growing log directory in the foreground, report
  progress as applications arrive, and emit the final (batch-identical)
  analysis once the directory goes quiet.
* ``serve``  — same tailing, plus the JSON-lines query/metrics server.
  With ``--shards N`` the directories are partitioned across N worker
  processes behind a merging router (same wire protocol), and
  ``--metrics-http-port`` adds a ``GET /metrics`` HTTP endpoint
  exposing the aggregated Prometheus text.
* ``query``  — one request against a running server, result to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import TYPE_CHECKING, List, Optional

from repro.live.client import OPS, LiveClient, QueryError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.live.incremental import LiveSession

__all__ = ["main", "build_arg_parser"]


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.live",
        description=(
            "Incrementally mine scheduling delay from a growing log "
            "directory, and serve the running decomposition."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    watch = sub.add_parser(
        "watch", help="tail a directory until it goes quiet, then report"
    )
    watch.add_argument("logdir", help="directory of growing <daemon>.log files")
    watch.add_argument(
        "--poll-interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="delay between directory polls (default 0.5)",
    )
    watch.add_argument(
        "--idle-polls",
        type=int,
        default=3,
        metavar="N",
        help=(
            "drain after N consecutive polls with no new events and no "
            "tail lag (default 3)"
        ),
    )
    watch.add_argument(
        "--max-polls",
        type=int,
        default=0,
        metavar="N",
        help="hard stop after N polls; 0 means no limit (default)",
    )
    watch.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="persist cursors + mining state to PATH after every poll",
    )
    watch.add_argument(
        "--resume",
        metavar="PATH",
        help="restore a previous session from a checkpoint file",
    )
    watch.add_argument(
        "--checkpoint-every-polls",
        type=int,
        default=8,
        metavar="N",
        help=(
            "write the checkpoint every N polls instead of every poll; "
            "a crash loses at most N-1 polls of cursor progress "
            "(default 8)"
        ),
    )
    watch.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    serve = sub.add_parser(
        "serve", help="tail directories and serve queries over JSON lines"
    )
    serve.add_argument(
        "logdir",
        nargs="+",
        help=(
            "one or more directories of growing <daemon>.log files "
            "(daemon names must be disjoint across directories)"
        ),
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7461)
    serve.add_argument(
        "--poll-interval", type=float, default=0.25, metavar="SECONDS"
    )
    serve.add_argument("--checkpoint", metavar="PATH")
    serve.add_argument("--resume", metavar="PATH")
    serve.add_argument(
        "--checkpoint-every-polls", type=int, default=8, metavar="N"
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help=(
            "partition the directories across N worker processes behind "
            "a merging router (default 1: a single in-process server)"
        ),
    )
    serve.add_argument(
        "--metrics-http-port",
        type=int,
        metavar="PORT",
        help=(
            "also serve GET /metrics over HTTP with the deployment's "
            "aggregated Prometheus metrics (sharded mode only)"
        ),
    )
    serve.add_argument(
        "--evict-after-polls",
        type=int,
        metavar="N",
        help=(
            "evict an application N polls after it finishes, keeping "
            "resident state bounded (default: keep everything)"
        ),
    )

    query = sub.add_parser("query", help="one request against a running server")
    query.add_argument("op", choices=OPS)
    query.add_argument(
        "app_id", nargs="?", help="application ID (decomposition only)"
    )
    query.add_argument("--host", default="127.0.0.1")
    query.add_argument("--port", type=int, default=7461)
    query.add_argument("--timeout", type=float, default=10.0)
    return parser


def _build_session(args: argparse.Namespace) -> "LiveSession":
    # Imported here, as the server is in ``serve``: ``query`` needs
    # neither, and they pull in the miner, repro.core and numpy.
    from repro.live.incremental import LiveSession

    evict = getattr(args, "evict_after_polls", None)
    every = getattr(args, "checkpoint_every_polls", 1)
    if every < 1:
        raise SystemExit("error: --checkpoint-every-polls must be >= 1")
    if args.resume:
        return LiveSession.from_checkpoint(
            args.resume,
            directory=args.logdir,
            checkpoint_path=args.checkpoint or args.resume,
            evict_after_polls=evict,
            checkpoint_every_polls=every,
        )
    return LiveSession(
        args.logdir,
        checkpoint_path=args.checkpoint,
        evict_after_polls=evict,
        checkpoint_every_polls=every,
    )


def _run_watch(args: argparse.Namespace) -> int:
    session = _build_session(args)
    idle = 0
    polls = 0
    while True:
        new_events = session.poll()
        polls += 1
        if new_events:
            idle = 0
            report = session.report()
            final = sum(
                1 for app in report.apps if session.app_status(app.app_id) == "final"
            )
            print(
                f"poll {polls}: +{new_events} events, "
                f"{len(report.apps)} apps ({final} final), "
                f"lag {session.tail_lag_bytes}B",
                file=sys.stderr,
            )
        elif session.tail_lag_bytes == 0:
            idle += 1
        if idle >= args.idle_polls:
            break
        if args.max_polls and polls >= args.max_polls:
            break
        time.sleep(args.poll_interval)
    report = session.drain()
    if args.json:
        json.dump(report.to_dict(include_diagnostics=True), sys.stdout, indent=2)
        print()
    else:
        print(report.summary())
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    if args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    if args.shards > 1 or args.metrics_http_port is not None:
        return _run_serve_sharded(args)
    from repro.live.server import LiveServer, run_in_thread

    session = _build_session(args)
    handle = run_in_thread(
        lambda: LiveServer(
            session,
            host=args.host,
            port=args.port,
            poll_interval=args.poll_interval,
        ),
        "repro-live-server",
    )
    print(
        f"repro.live serving {', '.join(args.logdir)} on "
        f"{handle.host}:{handle.port}",
        file=sys.stderr,
    )
    try:
        handle.wait()
    except KeyboardInterrupt:
        handle.stop()
    return 0


def _run_serve_sharded(args: argparse.Namespace) -> int:
    from repro.live.sharded import ShardedLiveService

    if args.checkpoint or args.resume:
        print(
            "error: --checkpoint/--resume are not supported in sharded "
            "mode yet",
            file=sys.stderr,
        )
        return 2
    service = ShardedLiveService(
        args.logdir,
        shards=args.shards,
        host=args.host,
        router_port=args.port,
        http_port=args.metrics_http_port,
        poll_interval=args.poll_interval,
        evict_after_polls=args.evict_after_polls,
    )
    try:
        with service:
            host, port = service.router_address
            print(
                f"repro.live serving {', '.join(args.logdir)} on "
                f"{host}:{port} across {len(service.partitions)} shard(s)",
                file=sys.stderr,
            )
            if service.http_address is not None:
                http_host, http_port = service.http_address
                print(
                    f"aggregated metrics at "
                    f"http://{http_host}:{http_port}/metrics",
                    file=sys.stderr,
                )
            service.wait()
    except KeyboardInterrupt:
        pass
    return 0


def _run_query(args: argparse.Namespace) -> int:
    if args.op == "decomposition" and not args.app_id:
        print("error: decomposition requires an app_id", file=sys.stderr)
        return 2
    try:
        with LiveClient(args.host, args.port, timeout=args.timeout) as client:
            if args.op == "decomposition":
                result = client.decomposition(args.app_id)
            else:
                result = getattr(client, args.op)()
    except (ConnectionError, OSError) as exc:
        print(f"error: cannot reach {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1
    except QueryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # Written outside the socket's ``try``: a closed stdout is not an
    # unreachable server.
    text = result if args.op == "metrics" else json.dumps(result, indent=2) + "\n"
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone (``query ... | head -1``), which is not an
        # error.  Point stdout at devnull so the flush at exit does not
        # fail again (the Python docs' note on SIGPIPE), and exit 0.
        _discard_stdout()
    return 0


def _discard_stdout() -> None:
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):
        return  # no descriptor behind it: nothing is flushed at exit
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    if args.command == "watch":
        return _run_watch(args)
    if args.command == "serve":
        return _run_serve(args)
    return _run_query(args)
