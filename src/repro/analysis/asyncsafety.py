"""Pass 4 — async-safety lint (rules SD401-SD403).

The :mod:`repro.live` server put an asyncio event loop in front of the
miner, and the ROADMAP's sharded live service will widen that surface.
Three hazards matter for a single-threaded loop that promises bounded
poll-to-answer latency:

* **SD401 blocking-in-async** — a blocking call (``time.sleep``, sync
  file/socket I/O, ``subprocess.run``, the miner entry points that do
  file I/O) *reachable* from an ``async def`` body, or from an asyncio
  protocol callback (:data:`LOOP_CALLBACKS` on a ``BaseProtocol``
  subclass, which the loop runs inline), through any chain of
  synchronous project calls.  One stalled callback stalls every
  connected client; the finding names the shortest call chain so the
  offending path is obvious five frames down.
* **SD402 unawaited-coroutine** — a bare expression statement calling a
  coroutine function (the call builds a coroutine object and drops it;
  the body never runs), or discarding the task handle returned by
  ``asyncio.create_task``/``ensure_future`` (the task is never joined
  or cancelled, so its exceptions vanish and shutdown cannot drain it).
* **SD403 unbounded-queue** — ``asyncio.Queue()`` constructed without a
  positive ``maxsize`` (no backpressure: a slow consumer grows the
  queue without bound), and ``await queue.join()`` outside
  ``asyncio.wait_for`` (if the consumer task died with items queued,
  ``join()`` waits forever — the classic shutdown hang).

All three are whole-program queries answered by
:class:`repro.analysis.callgraph.CallGraph`; per the resolver's
contract they under-approximate, so an unresolvable receiver produces
silence, not noise.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.callgraph import (
    CallGraph,
    FunctionInfo,
    ProjectIndex,
    walk_own_body,
)
from repro.analysis.findings import Finding, make_finding, sort_findings

__all__ = ["BLOCKING_CALLS", "LOOP_CALLBACKS", "TASK_SPAWNERS", "analyze"]

#: Canonical dotted names whose call blocks the calling thread.  The
#: bare names (``open``) are how the resolver reports unshadowed
#: builtins.
BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "open",
        "io.open",
        "input",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "socket.create_connection",
        "socket.getaddrinfo",
        "socket.gethostbyname",
        "urllib.request.urlopen",
        "os.open",
        "os.read",
        "os.pread",
        "os.scandir",
        "os.listdir",
        "os.walk",
        "os.stat",
        "os.replace",
        "os.rename",
        "shutil.copy",
        "shutil.copyfile",
        "shutil.copytree",
        "shutil.rmtree",
    }
)

#: Protocol methods the event loop calls on its own thread.
LOOP_CALLBACKS = frozenset(
    {
        "connection_made",
        "get_buffer",
        "buffer_updated",
        "data_received",
        "eof_received",
        "connection_lost",
        "pause_writing",
        "resume_writing",
    }
)

_PROTOCOL_BASES = frozenset(
    f"{module}.{name}"
    for module in ("asyncio", "asyncio.protocols")
    for name in (
        "BaseProtocol",
        "Protocol",
        "BufferedProtocol",
        "DatagramProtocol",
        "SubprocessProtocol",
    )
)

#: Calls whose *return value* is a task handle that must be retained.
TASK_SPAWNERS = frozenset({"asyncio.create_task", "asyncio.ensure_future"})

_QUEUE_CONSTRUCTORS = frozenset({"asyncio.Queue", "asyncio.PriorityQueue",
                                 "asyncio.LifoQueue"})


def _short(graph: CallGraph, qualname: str) -> str:
    func = graph.index.functions.get(qualname)
    return func.short_name if func is not None else qualname.rsplit(".", 1)[-1]


# -- SD401 ----------------------------------------------------------------

def _loop_root(index: ProjectIndex, func: FunctionInfo) -> Optional[str]:
    """How ``func`` runs on the event loop, or None if it need not."""
    if func.is_async:
        return "async def"
    if func.cls is None or func.node.name not in LOOP_CALLBACKS:
        return None
    for cls_info in index.mro(func.cls):
        if any(base in _PROTOCOL_BASES for base in cls_info.bases):
            return "event-loop callback"
    return None


def _blocking_findings(
    graph: CallGraph, start: FunctionInfo, root: str
) -> List[Finding]:
    parents = graph.reachable(start.qualname, through_async=False)
    #: blocking name -> (chain length, chain, holder qualname, anchor line)
    best: Dict[str, Tuple[int, List[str], str, int]] = {}
    for qualname in sorted(parents):
        func = graph.index.functions.get(qualname)
        if func is None:
            continue
        for external, lineno in func.external_calls:
            if external not in BLOCKING_CALLS:
                continue
            chain = graph.chain(parents, qualname)
            if qualname == start.qualname:
                anchor = lineno
            else:
                # Anchor at the call site inside the async body that
                # begins the chain.
                anchor = parents[chain[1]][1]
            candidate = (len(chain), chain, qualname, anchor)
            incumbent = best.get(external)
            if incumbent is None or candidate[:2] < incumbent[:2]:
                best[external] = candidate
    findings: List[Finding] = []
    for external in sorted(best):
        _length, chain, holder, anchor = best[external]
        if holder == start.qualname:
            message = (
                f"blocking call {external}() inside {root} "
                f"{start.short_name} stalls the event loop; move it to an "
                f"executor or use the asyncio equivalent"
            )
        else:
            via = " -> ".join(_short(graph, q) for q in chain[1:])
            message = (
                f"blocking call {external}() is reachable from {root} "
                f"{start.short_name} via {via}; it stalls the event loop "
                f"for every connected client"
            )
        findings.append(make_finding("SD401", start.path, anchor, message))
    return findings


# -- SD402 ----------------------------------------------------------------

def _unawaited_findings(graph: CallGraph, func: FunctionInfo) -> List[Finding]:
    findings: List[Finding] = []
    local_types = graph.local_types(func)
    for node in walk_own_body(func.node):
        if not isinstance(node, ast.Expr) or not isinstance(node.value, ast.Call):
            continue
        target = graph.resolve_callee(func, node.value.func, local_types)
        if target is None:
            continue
        kind, name = target
        if kind == "project":
            callee = graph.index.functions[name]
            if callee.is_async:
                findings.append(
                    make_finding(
                        "SD402",
                        func.path,
                        node.lineno,
                        f"coroutine {callee.short_name}() is called but "
                        f"never awaited; the call builds a coroutine object "
                        f"and discards it without running the body",
                    )
                )
        elif kind == "external" and name in TASK_SPAWNERS:
            findings.append(
                make_finding(
                    "SD402",
                    func.path,
                    node.lineno,
                    f"{name}() result is discarded; a fire-and-forget task "
                    f"can never be cancelled or joined on shutdown and its "
                    f"exceptions are silently dropped",
                )
            )
    return findings


# -- SD403 ----------------------------------------------------------------

def _is_unbounded_queue_call(call: ast.Call) -> bool:
    """True when a queue constructor call has no positive ``maxsize``."""
    bound: Optional[ast.expr] = None
    if call.args:
        bound = call.args[0]
    for keyword in call.keywords:
        if keyword.arg == "maxsize":
            bound = keyword.value
    if bound is None:
        return True
    if isinstance(bound, ast.Constant) and isinstance(bound.value, int):
        return bound.value <= 0
    return False  # a computed bound: assume the caller knows


def _queue_findings(index: ProjectIndex, func: FunctionInfo) -> List[Finding]:
    findings: List[Finding] = []
    info = index.modules[func.module]
    queue_vars: Set[str] = set()

    # Parameters annotated as queues count too (the shutdown-path
    # helpers receive the connection queue as an argument).
    args = func.node.args
    for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
        if index.canonical(info, arg.annotation) in _QUEUE_CONSTRUCTORS:
            queue_vars.add(arg.arg)

    # First sweep: constructions (flag unbounded ones) and annotations.
    for node in walk_own_body(func.node):
        call: Optional[ast.Call] = None
        names: List[str] = []
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            call = node.value
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if index.canonical(info, node.annotation) in _QUEUE_CONSTRUCTORS:
                queue_vars.add(node.target.id)
            if isinstance(node.value, ast.Call):
                call = node.value
                names = [node.target.id]
        elif isinstance(node, ast.Call):
            call = node
        if call is None:
            continue
        resolved = index.canonical(info, call.func)
        if resolved not in _QUEUE_CONSTRUCTORS:
            continue
        queue_vars.update(names)
        if _is_unbounded_queue_call(call):
            findings.append(
                make_finding(
                    "SD403",
                    func.path,
                    call.lineno,
                    f"{resolved}() constructed without a positive maxsize "
                    f"in {func.short_name}; an unbounded queue gives a slow "
                    f"consumer no backpressure",
                )
            )
    # Second sweep: ``await q.join()`` with no timeout guard.  When the
    # join is wrapped in ``asyncio.wait_for`` the Await's direct value
    # is the wait_for call, so the pattern below does not match.
    for node in walk_own_body(func.node):
        if not isinstance(node, ast.Await) or not isinstance(node.value, ast.Call):
            continue
        target = node.value.func
        if (
            isinstance(target, ast.Attribute)
            and target.attr == "join"
            and isinstance(target.value, ast.Name)
            and target.value.id in queue_vars
        ):
            findings.append(
                make_finding(
                    "SD403",
                    func.path,
                    node.lineno,
                    f"await {target.value.id}.join() in {func.short_name} "
                    f"has no timeout; if the consumer task died with items "
                    f"queued, shutdown hangs forever — wrap it in "
                    f"asyncio.wait_for",
                )
            )
    return findings


# -- entry points ----------------------------------------------------------

def analyze(index: ProjectIndex) -> List[Finding]:
    """All SD4xx findings over the index's call graph."""
    graph = index.call_graph
    findings: List[Finding] = []
    seen: Set[str] = set()
    for qualname in sorted(index.functions):
        func = index.functions[qualname]
        root = _loop_root(index, func)
        if root is not None:
            findings.extend(_blocking_findings(graph, func, root))
        findings.extend(_unawaited_findings(graph, func))
        findings.extend(_queue_findings(index, func))
    unique = [f for f in findings if f.key not in seen and not seen.add(f.key)]
    return sort_findings(unique)
