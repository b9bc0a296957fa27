"""Pass 5 — process-boundary lint (rules SD501-SD503).

The miner's parallel fast path fans chunks out over a
:class:`~concurrent.futures.ProcessPoolExecutor` and promises
byte-identical reports.  That guarantee survives the process boundary
only if three contracts hold:

* **SD501 worker-state-divergence** — a function submitted to the pool
  must not (transitively) mutate module globals.  Workers are forked or
  respawned copies: a mutation lands in the *worker's* module, diverges
  from the parent, persists across task reuse inside one worker, and
  makes results depend on which worker ran which chunk.  Lambdas and
  nested functions are flagged too — they cannot be pickled to a worker
  at all.
* **SD502 slots-without-pickle-contract** — classes crossing the
  worker→parent boundary (named in a submitted function's return
  annotation) that define ``__slots__`` must carry an explicit pickle
  round-trip contract: either ``@dataclass`` (field-driven state, which
  is what the byte-identity suites compare) or
  ``__getstate__``/``__setstate__``/``__reduce__``.  A bare slotted
  class silently drops state added outside ``__slots__`` and breaks
  round-trip equality checks.
* **SD503 shared-random-source** — a
  :class:`repro.simul.distributions.RandomSource` visible to both
  parent and worker code without a ``.child()`` substream split.  Each
  side draws from the *same* stream position independently, so draw
  sequences overlap and the (seed, scenario) -> log mapping stops being
  a function.  The sanctioned pattern is one ``.child(name)`` per
  worker shard.  Detected two ways: a module-level RandomSource
  singleton read by worker-reachable code, and a RandomSource-typed
  local passed as a submission argument without coming from
  ``.child()``.

Submission sites are recognized in three shapes: ``pool.submit(fn,
...)``, ``pool.map(fn, ...)``, and the project's own wrapper form
``helper(pool, fn, ...)`` where ``helper`` is a project function and
the first argument is executor-typed (this is how the sanitizer hook
``repro.core.parser._pool_map`` routes submissions).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.analysis.callgraph import (
    MUTATING_METHODS,
    CallGraph,
    FunctionInfo,
    ProjectIndex,
    walk_own_body,
)
from repro.analysis.findings import Finding, make_finding, sort_findings

__all__ = ["EXECUTOR_TYPES", "analyze"]

#: Canonical constructors that create *process* pools.  Thread pools
#: share memory and need different (GIL-mediated) reasoning, so they
#: are deliberately out of scope here.
EXECUTOR_TYPES = frozenset({"concurrent.futures.ProcessPoolExecutor"})

_RANDOM_SOURCE = "RandomSource"


@dataclass
class _Site:
    """One executor submission: where, what, and the extra arguments."""

    submitter: FunctionInfo
    lineno: int
    #: Resolved submitted project function, None for lambdas.
    target: Optional[str]
    is_lambda: bool
    #: Argument expressions shipped to the worker alongside the task.
    payload_args: List[ast.expr]


def _root_name(expr: ast.expr) -> Optional[str]:
    """The base ``Name`` of an attribute/subscript chain, if any."""
    node = expr
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_random_source(qualname: Optional[str]) -> bool:
    return qualname is not None and qualname.split(".")[-1] == _RANDOM_SOURCE


# -- submission-site discovery --------------------------------------------

def _executor_vars(graph: CallGraph, func: FunctionInfo) -> Set[str]:
    """Local names bound to a freshly-constructed process pool."""
    names: Set[str] = set()
    info = graph.index.modules[func.module]
    for node in walk_own_body(func.node):
        target: Optional[str] = None
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            if isinstance(node.targets[0], ast.Name):
                target, value = node.targets[0].id, node.value
        elif isinstance(node, ast.withitem) and isinstance(
            node.optional_vars, ast.Name
        ):
            target, value = node.optional_vars.id, node.context_expr
        if target is None or not isinstance(value, ast.Call):
            continue
        if graph.index.canonical(info, value.func) in EXECUTOR_TYPES:
            names.add(target)
    return names


def _sites_in(graph: CallGraph, func: FunctionInfo) -> List[_Site]:
    pools = _executor_vars(graph, func)
    if not pools:
        return []
    local_types = graph.local_types(func)
    sites: List[_Site] = []
    nested = {
        node.name: f"{func.qualname}.<locals>.{node.name}"
        for node in walk_own_body(func.node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }

    def resolve_target(expr: ast.expr) -> Tuple[Optional[str], bool]:
        if isinstance(expr, ast.Lambda):
            return None, True
        # A nested def's name is a *local* binding, so the generic
        # resolver skips it; submitting one is exactly the SD501 case.
        if (
            isinstance(expr, ast.Name)
            and expr.id in nested
            and nested[expr.id] in graph.index.functions
        ):
            return nested[expr.id], False
        resolved = graph.resolve_callee(func, expr, local_types)
        if resolved is not None and resolved[0] == "project":
            return resolved[1], False
        return None, False

    for node in walk_own_body(func.node):
        if not isinstance(node, ast.Call):
            continue
        fn_expr: Optional[ast.expr] = None
        payload: List[ast.expr] = []
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in {"submit", "map"}
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in pools
            and node.args
        ):
            fn_expr, payload = node.args[0], list(node.args[1:])
        else:
            # Wrapper form: helper(pool, fn, ...) with a project helper.
            resolved = graph.resolve_callee(func, node.func, local_types)
            if (
                resolved is not None
                and resolved[0] == "project"
                and len(node.args) >= 2
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id in pools
            ):
                fn_expr, payload = node.args[1], list(node.args[2:])
        if fn_expr is None:
            continue
        target, is_lambda = resolve_target(fn_expr)
        if target is None and not is_lambda:
            continue
        sites.append(_Site(func, node.lineno, target, is_lambda, payload))
    return sites


# -- SD501 ----------------------------------------------------------------

def _global_mutations(
    graph: CallGraph, func: FunctionInfo
) -> List[Tuple[str, int]]:
    """``(global name, lineno)`` pairs this function's body mutates."""
    info = graph.index.modules[func.module]
    bound = func.bound
    declared_global: Set[str] = set()
    for node in walk_own_body(func.node):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
    mutations: List[Tuple[str, int]] = []
    for node in walk_own_body(func.node):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        elif isinstance(node, ast.Call):
            callee = node.func
            if (
                isinstance(callee, ast.Attribute)
                and callee.attr in MUTATING_METHODS
            ):
                root = _root_name(callee.value)
                if (
                    root is not None
                    and root not in bound
                    and root in info.global_names
                ):
                    mutations.append((root, node.lineno))
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                if target.id in declared_global:
                    mutations.append((target.id, node.lineno))
            elif isinstance(target, (ast.Attribute, ast.Subscript)):
                root = _root_name(target)
                if (
                    root is not None
                    and root != "self"
                    and root not in bound
                    and root in info.global_names
                ):
                    mutations.append((root, node.lineno))
    return mutations


# -- SD503 helpers ---------------------------------------------------------

def _module_random_globals(graph: CallGraph, module: str) -> Set[str]:
    info = graph.index.modules.get(module)
    if info is None:
        return set()
    return {
        name
        for name, ctor in info.global_instances.items()
        if _is_random_source(ctor)
    }


def _child_derived(func: FunctionInfo) -> Set[str]:
    """Locals assigned from a ``.child(...)`` call — the sanctioned split."""
    out: Set[str] = set()
    for node in walk_own_body(func.node):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr == "child"
        ):
            out.add(node.targets[0].id)
    return out


# -- the pass --------------------------------------------------------------

def analyze(index: ProjectIndex) -> List[Finding]:
    """All SD5xx findings over the index's call graph."""
    graph = index.call_graph
    findings: List[Finding] = []
    seen: Set[str] = set()

    def emit(finding: Finding) -> None:
        if finding.key not in seen:
            seen.add(finding.key)
            findings.append(finding)

    sites: List[_Site] = []
    for qualname in sorted(index.functions):
        sites.extend(_sites_in(graph, index.functions[qualname]))

    for site in sites:
        submitter = site.submitter
        if site.is_lambda:
            emit(
                make_finding(
                    "SD501",
                    submitter.path,
                    site.lineno,
                    f"lambda submitted to a ProcessPoolExecutor in "
                    f"{submitter.short_name}; lambdas cannot be pickled to "
                    f"worker processes",
                )
            )
            continue
        assert site.target is not None
        target = index.functions[site.target]
        if "<locals>" in site.target:
            emit(
                make_finding(
                    "SD501",
                    submitter.path,
                    site.lineno,
                    f"nested function {target.short_name}() submitted to a "
                    f"ProcessPoolExecutor in {submitter.short_name}; only "
                    f"module-level functions can be pickled to workers",
                )
            )
            continue

        reach = graph.reachable(site.target, through_async=False)

        # SD501: transitive module-global mutation.
        for qualname in sorted(reach):
            func = index.functions.get(qualname)
            if func is None:
                continue
            for name, lineno in _global_mutations(graph, func):
                emit(
                    make_finding(
                        "SD501",
                        func.path,
                        lineno,
                        f"{func.short_name}() mutates module global "
                        f"'{name}' and is reachable from "
                        f"{target.short_name}(), which runs in "
                        f"ProcessPoolExecutor workers; worker-side state "
                        f"diverges from the parent and across task reuse",
                    )
                )

        # SD502: return-annotation classes crossing worker -> parent.
        owner = index.modules.get(target.module)
        if owner is not None:
            for cls_qual in index.annotation_classes(
                owner, target.node.returns
            ):
                mro = index.mro(cls_qual)
                if not mro:
                    continue
                has_slots = any(c.defines_slots for c in mro)
                has_contract = any(
                    c.is_dataclass or c.has_pickle_protocol for c in mro
                )
                if has_slots and not has_contract:
                    cls = mro[0]
                    emit(
                        make_finding(
                            "SD502",
                            cls.path,
                            cls.node.lineno,
                            f"{cls.short_name} crosses the worker->parent "
                            f"boundary (returned by {target.short_name}()) "
                            f"and defines __slots__ without a pickle "
                            f"round-trip contract; make it a dataclass or "
                            f"define __getstate__/__setstate__",
                        )
                    )

        # SD503a: module-level RandomSource singletons read worker-side.
        for qualname in sorted(reach):
            func = index.functions.get(qualname)
            if func is None:
                continue
            shared = _module_random_globals(graph, func.module)
            if not shared:
                continue
            for node in walk_own_body(func.node):
                if (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id in shared
                    and node.id not in func.bound
                ):
                    emit(
                        make_finding(
                            "SD503",
                            func.path,
                            node.lineno,
                            f"module-level RandomSource '{node.id}' is read "
                            f"by {func.short_name}(), which runs in "
                            f"ProcessPoolExecutor workers via "
                            f"{target.short_name}(); the parent shares the "
                            f"same stream — derive a .child() substream per "
                            f"worker instead",
                        )
                    )

        # SD503b: RandomSource-typed payload arguments without .child().
        local_types = graph.local_types(submitter)
        sanctioned = _child_derived(submitter)
        for arg in site.payload_args:
            if (
                isinstance(arg, ast.Name)
                and _is_random_source(local_types.get(arg.id))
                and arg.id not in sanctioned
            ):
                emit(
                    make_finding(
                        "SD503",
                        submitter.path,
                        arg.lineno,
                        f"RandomSource '{arg.id}' is shipped to "
                        f"ProcessPoolExecutor workers by "
                        f"{submitter.short_name}() without a .child() "
                        f"substream split; parent and workers draw from "
                        f"the same stream",
                    )
                )

    return sort_findings(findings)
