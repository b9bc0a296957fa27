"""Pass 3 — determinism lint (rules SD301-SD304).

The simulator's reproducibility guarantee is that one (seed, scenario)
pair always yields byte-identical logs, and the miner's parallel paths
promise byte-identical reports.  Four source patterns break them:

* **SD301 unseeded-random** — calls into ``random`` or
  ``numpy.random`` that bypass the named, seeded substreams of
  :class:`repro.simul.distributions.RandomSource` (the one sanctioned
  wrapper, which is itself exempt);
* **SD302 wall-clock** — ``time.time()``/``datetime.now()`` and
  friends (including the ``localtime``/``gmtime``/``ctime`` family):
  simulated time must come from the engine clock, never the host, and
  the :mod:`repro.live` session must order and stamp nothing by host
  time — its reports must replay byte-identically, so only log-derived
  timestamps and monotonic-free counters are allowed (``time.sleep``
  and ``asyncio.sleep`` pace polling without *reading* a clock and stay
  sanctioned);
* **SD303 unordered-iteration** — ``for`` loops (or comprehensions)
  driven directly by a ``set``/``frozenset`` expression, whose
  iteration order varies across processes when elements are
  hash-randomized — enough to reorder event scheduling;
* **SD304 completion-order-merge** —
  ``concurrent.futures.as_completed`` (or ``Executor.map`` results
  re-sorted by arrival): consuming worker results in *completion* order
  makes the merge depend on scheduling jitter.  The sanctioned pattern
  is ``Executor.map``, which yields results in submission order — the
  property the fast-path chunk merge in ``repro.core.parser`` relies on
  for its byte-identity guarantee.

Everything is a pure AST walk over the shared
:class:`~repro.analysis.callgraph.ProjectIndex`; nothing is imported or
executed.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.callgraph import ModuleInfo, ProjectIndex
from repro.analysis.findings import Finding, make_finding

__all__ = [
    "ALLOWED_PATHS",
    "ALLOWED_WALL_CLOCK_PATHS",
    "analyze",
]

#: Files exempt from SD301: the sanctioned RNG wrapper itself.
ALLOWED_PATHS = frozenset({"repro/simul/distributions.py"})

#: Files exempt from SD302: the runtime sanitizer *measures the host*
#: on purpose (loop-stall timing), so its ``perf_counter`` is the point.
ALLOWED_WALL_CLOCK_PATHS = frozenset({"repro/analysis/sanitizer.py"})

#: Canonical dotted names that read the host clock.
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.thread_time",
        "time.thread_time_ns",
        "time.clock_gettime",
        "time.clock_gettime_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "os.times",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: ``fromtimestamp`` converters: fine when fed an explicit, log-derived
#: value, but flagged when the source argument is missing or is itself
#: a call — then the "timestamp" is being manufactured on the spot.
_FROM_TIMESTAMP_CALLS = frozenset(
    {
        "datetime.datetime.fromtimestamp",
        "datetime.datetime.utcfromtimestamp",
        "datetime.date.fromtimestamp",
    }
)

#: Canonical dotted names that yield worker results in completion order.
_COMPLETION_ORDER_CALLS = frozenset(
    {
        "concurrent.futures.as_completed",
        "asyncio.as_completed",
    }
)


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"set", "frozenset"}
    )


def analyze(index: ProjectIndex) -> List[Finding]:
    """All SD3xx findings over every module of the index.

    Call targets canonicalize through :meth:`ProjectIndex.canonical`,
    so a function-local import is seen, and aliases chained across
    modules (relative-import re-exports included) resolve back to the
    stdlib names the ban lists speak.
    """
    findings: List[Finding] = []
    for _path, info in sorted(index.modules_by_path.items()):
        findings.extend(_scan_module(index, info))
    return findings


def _scan_module(index: ProjectIndex, info: ModuleInfo) -> List[Finding]:
    path = info.path
    findings: List[Finding] = []
    for node in ast.walk(info.tree):
        if isinstance(node, ast.Call):
            canonical = index.canonical(info, node.func)
            if canonical is None:
                continue
            if canonical in _FROM_TIMESTAMP_CALLS:
                source_arg = node.args[0] if node.args else None
                if source_arg is None or isinstance(source_arg, ast.Call):
                    findings.append(
                        make_finding(
                            "SD302",
                            path,
                            node.lineno,
                            f"call to {canonical}() without an explicit "
                            f"log-derived source value manufactures a "
                            f"timestamp; pass a mined value instead",
                        )
                    )
                continue
            if (
                canonical.startswith("random.")
                or canonical.startswith("numpy.random.")
            ) and path not in ALLOWED_PATHS:
                findings.append(
                    make_finding(
                        "SD301",
                        path,
                        node.lineno,
                        f"call to {canonical}() bypasses the seeded "
                        f"repro.simul.distributions.RandomSource streams",
                    )
                )
            elif (
                canonical in _WALL_CLOCK_CALLS
                and path not in ALLOWED_WALL_CLOCK_PATHS
            ):
                findings.append(
                    make_finding(
                        "SD302",
                        path,
                        node.lineno,
                        f"call to {canonical}() reads the host wall clock; "
                        f"use the simulation clock instead",
                    )
                )
            elif canonical in _COMPLETION_ORDER_CALLS:
                findings.append(
                    make_finding(
                        "SD304",
                        path,
                        node.lineno,
                        f"call to {canonical}() consumes worker results in "
                        f"completion order; use Executor.map, which yields "
                        f"in submission order",
                    )
                )
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if _is_set_expr(node.iter):
                findings.append(
                    make_finding(
                        "SD303",
                        path,
                        node.lineno,
                        "iteration over an unordered set expression; sort "
                        "it to keep event ordering deterministic",
                    )
                )
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for generator in node.generators:
                if _is_set_expr(generator.iter):
                    findings.append(
                        make_finding(
                            "SD303",
                            path,
                            node.lineno,
                            "comprehension over an unordered set expression; "
                            "sort it to keep event ordering deterministic",
                        )
                    )
    return findings
