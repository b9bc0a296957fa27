"""The project index and call graph that every sdlint pass reads.

Catalog coverage and syntactic determinism hazards are per-file
questions, but whether a blocking call is reachable from an
``async def`` body, or whether a function submitted to a
:class:`~concurrent.futures.ProcessPoolExecutor` mutates module globals
three calls down, is a *whole-program* question.  One sdlint run
answers all of them from one index, built statically in two layers:

* :class:`ProjectIndex` — every module under the scan root parsed once,
  with every import it makes (module-level, function-local and
  ``TYPE_CHECKING`` ones, relative imports included) recorded as an
  alias.  :meth:`ProjectIndex.canonical` is the one way an expression
  becomes a canonical dotted name: it canonicalizes across chained
  aliases, so ``repro.pkg.compat.now`` follows ``compat``'s own
  ``from time import time as now`` back to ``time.time``, and
  in-package re-exports cannot hide banned calls.
* :class:`CallGraph` — function-level call edges on top of the index,
  with best-effort *type* resolution for the receiver patterns the
  codebase actually uses: ``self.method()``, ``self.attr.method()``
  where the attribute type is pinned by an ``__init__`` annotation or
  constructor call, locals assigned from known constructors or from
  calls with annotated return types, and ``with Cls() as name`` blocks.
  A call that resolves to an abstract method (its body only raises
  ``NotImplementedError``) also reaches every project override of it.
  :meth:`CallGraph.reachable` returns shortest-path parent pointers, so
  a finding can *name the path* from an async body to the ``open()``
  five frames down.  :attr:`ProjectIndex.call_graph` builds it once per
  index.

Everything is a pure AST analysis; nothing is imported or executed.
Resolution is deliberately best-effort and *under*-approximate: an
unresolvable receiver contributes no edge, so the passes built on top
err toward silence, never toward noise — the same stance the SD3xx
lint takes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.analysis.extract import StateMachineSpec, extract_state_machines

__all__ = [
    "CallGraph",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectIndex",
    "module_name_of",
]

_FuncNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Method names whose call on a module-level object mutates it in place
#: (the SD501 detector's "writes through a global" set).
MUTATING_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "update",
        "__setitem__",
    }
)


def module_name_of(path: str) -> str:
    """Dotted module name of a project-relative POSIX path.

    ``repro/live/server.py`` -> ``repro.live.server``;
    ``repro/live/__init__.py`` -> ``repro.live``.
    """
    parts = path.split("/")
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def resolve_relative_import(
    module: str, is_package: bool, level: int, target: Optional[str]
) -> Optional[str]:
    """Absolute module named by a ``from <dots><target> import ...``.

    ``module`` is the importing module's dotted name, ``is_package``
    whether it is a package ``__init__``.  Returns ``None`` when the
    import climbs above the project root.
    """
    parts = module.split(".") if module else []
    if not is_package:
        parts = parts[:-1]  # the containing package
    climb = level - 1
    if climb > len(parts):
        return None
    if climb:
        parts = parts[:-climb]
    if target:
        parts = parts + target.split(".")
    return ".".join(parts) if parts else None


@dataclass
class FunctionInfo:
    """One function or method definition, with its resolved call sites."""

    qualname: str
    module: str
    path: str
    node: _FuncNode
    #: Owning class qualname, None for module-level functions.
    cls: Optional[str]
    is_async: bool
    #: Resolved project-internal callees: (callee qualname, call lineno).
    calls: List[Tuple[str, int]] = field(default_factory=list)
    #: Resolved external callees: (canonical dotted name, call lineno).
    external_calls: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def short_name(self) -> str:
        """``LiveSession.poll`` / ``read_chunk`` — human-sized label."""
        parts = self.qualname.split(".")
        if self.cls is not None:
            return ".".join(parts[-2:])
        return parts[-1]

    @cached_property
    def bound(self) -> Set[str]:
        """Every name the body binds (see :func:`local_bindings`)."""
        return local_bindings(self.node)

    @cached_property
    def is_abstract(self) -> bool:
        """True for a method whose body, docstring aside, only raises
        ``NotImplementedError``: a subclass provides the real one."""
        body = self.node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            body = body[1:]
        if self.cls is None or len(body) != 1:
            return False
        if not isinstance(body[0], ast.Raise):
            return False
        raised = body[0].exc
        if isinstance(raised, ast.Call):
            raised = raised.func
        return isinstance(raised, ast.Name) and raised.id == "NotImplementedError"


@dataclass
class ClassInfo:
    """One class definition with the pickling-relevant structure."""

    qualname: str
    module: str
    path: str
    node: ast.ClassDef
    #: Base names as written, resolved to dotted names where possible.
    bases: List[str]
    #: method name -> function qualname.
    methods: Dict[str, str] = field(default_factory=dict)
    #: instance attribute -> class qualname (project classes only).
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: container-valued attribute -> *element* class qualname, from
    #: annotations like ``List[DirectoryTailer]`` — what a ``for`` loop
    #: over the attribute binds.
    attr_elem_types: Dict[str, str] = field(default_factory=dict)
    defines_slots: bool = False
    is_dataclass: bool = False
    has_pickle_protocol: bool = False

    @property
    def short_name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


@dataclass
class ModuleInfo:
    """One parsed module: its tree, aliases, and top-level bindings."""

    name: str
    path: str
    tree: ast.Module
    is_package: bool
    #: local alias -> canonical dotted target (modules and names both),
    #: for every import anywhere in the module.
    aliases: Dict[str, str] = field(default_factory=dict)
    #: Top-level assigned names (the SD501 global-mutation universe).
    global_names: Set[str] = field(default_factory=set)
    #: top-level name -> dotted constructor of its assigned value, for
    #: module-level singletons (``_SOURCE = RandomSource(7)``).
    global_instances: Dict[str, str] = field(default_factory=dict)


class ProjectIndex:
    """Every module under the root, parsed once, symbols resolved."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.modules_by_path: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}

    # -- construction ------------------------------------------------------
    @classmethod
    def build(cls, root: Path) -> "ProjectIndex":
        """Parse every ``*.py`` file under ``root/repro`` (or ``root``)."""
        root = Path(root)
        base = root / "repro" if (root / "repro").is_dir() else root
        sources: Dict[str, str] = {}
        for path in filter(Path.is_file, base.rglob("*.py")):
            try:
                rel = path.resolve().relative_to(root.resolve()).as_posix()
            except ValueError:
                rel = path.as_posix()
            sources[rel] = path.read_text()
        return cls.from_sources(sources)

    @classmethod
    def from_sources(cls, sources: Dict[str, str]) -> "ProjectIndex":
        """Build from a ``{project-relative path: source}`` mapping.

        A file that does not parse is left out of the index.
        """
        index = cls()
        for path in sorted(sources):
            try:
                tree = ast.parse(sources[path], filename=path)
            except SyntaxError:
                continue
            index._add_module(path, tree)
        for info in index.modules.values():
            index._collect_definitions(info)
        for info in sorted(index.classes.values(), key=lambda c: c.qualname):
            index._infer_attr_types(info)
        return index

    @cached_property
    def call_graph(self) -> "CallGraph":
        """The call graph over this index, built on first use."""
        return CallGraph(self)

    @cached_property
    def state_machines(self) -> List[StateMachineSpec]:
        """Every ``TRANSITIONS``-table machine, extracted on first use."""
        return extract_state_machines(self)

    def _add_module(self, path: str, tree: ast.Module) -> None:
        name = module_name_of(path)
        info = ModuleInfo(
            name=name,
            path=path,
            tree=tree,
            is_package=path.endswith("__init__.py"),
        )
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        info.aliases[alias.asname] = alias.name
                    else:
                        # ``import a.b`` binds ``a``; the dotted tail is
                        # spelled at the call site.
                        top = alias.name.split(".")[0]
                        info.aliases[top] = top
            elif isinstance(node, ast.ImportFrom):
                base = (
                    resolve_relative_import(
                        name, info.is_package, node.level, node.module
                    )
                    if node.level
                    else node.module
                )
                if base is None:
                    continue
                for alias in node.names:
                    info.aliases[alias.asname or alias.name] = (
                        f"{base}.{alias.name}"
                    )
        for node in tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        info.global_names.add(target.id)
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name):
                    info.global_names.add(node.target.id)
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                info.global_names.add(node.name)
        self.modules[name] = info
        self.modules_by_path[path] = info

    def _collect_definitions(self, info: ModuleInfo) -> None:
        for node in info.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(info, node, cls=None)
            elif isinstance(node, ast.ClassDef):
                self._add_class(info, node)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                if isinstance(target, ast.Name) and isinstance(value, ast.Call):
                    resolved = self.canonical(info, value.func)
                    if resolved is not None:
                        info.global_instances[target.id] = resolved

    def _add_function(
        self, info: ModuleInfo, node: _FuncNode, cls: Optional[str]
    ) -> None:
        owner = cls if cls is not None else info.name
        qualname = f"{owner}.{node.name}"
        self.functions[qualname] = FunctionInfo(
            qualname=qualname,
            module=info.name,
            path=info.path,
            node=node,
            cls=cls,
            is_async=isinstance(node, ast.AsyncFunctionDef),
        )
        # Nested defs become their own roots (``async def _serve`` inside
        # a sync CLI runner must still get the SD401 treatment); their
        # bodies are excluded from the enclosing function's call sites.
        for stmt in ast.walk(node):
            if stmt is node or not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            nested_qual = f"{qualname}.<locals>.{stmt.name}"
            if nested_qual not in self.functions:
                self.functions[nested_qual] = FunctionInfo(
                    qualname=nested_qual,
                    module=info.name,
                    path=info.path,
                    node=stmt,
                    cls=cls,
                    is_async=isinstance(stmt, ast.AsyncFunctionDef),
                )

    def _add_class(self, info: ModuleInfo, node: ast.ClassDef) -> None:
        qualname = f"{info.name}.{node.name}"
        bases: List[str] = []
        for base in node.bases:
            dotted = _dotted_of(base)
            if dotted is not None:
                bases.append(self.canonical(info, base) or dotted)
        is_dataclass = any(
            (_dotted_of(dec) or _dotted_of(getattr(dec, "func", None) or dec) or "")
            .split(".")[-1]
            == "dataclass"
            for dec in node.decorator_list
        )
        cls_info = ClassInfo(
            qualname=qualname,
            module=info.name,
            path=info.path,
            node=node,
            bases=bases,
            is_dataclass=is_dataclass,
        )
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(info, stmt, cls=qualname)
                cls_info.methods[stmt.name] = f"{qualname}.{stmt.name}"
                if stmt.name in ("__getstate__", "__setstate__", "__reduce__",
                                 "__reduce_ex__"):
                    cls_info.has_pickle_protocol = True
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and target.id == "__slots__":
                        cls_info.defines_slots = True
            elif isinstance(stmt, ast.AnnAssign):
                if (
                    isinstance(stmt.target, ast.Name)
                    and stmt.target.id == "__slots__"
                ):
                    cls_info.defines_slots = True
        self.classes[qualname] = cls_info

    # -- dotted-name canonicalization --------------------------------------
    def resolve_dotted(self, dotted: str, _depth: int = 0) -> str:
        """Follow chained project aliases to the canonical dotted name.

        ``repro.pkg.compat.now`` -> (compat: ``from time import time as
        now``) -> ``time.time``.  Names that never leave the project (or
        are already external) come back unchanged-or-canonicalized;
        resolution is bounded to keep alias cycles finite.
        """
        if _depth > 8:
            return dotted
        parts = dotted.split(".")
        # Longest module prefix first, so submodule symbols win over
        # same-named attributes of parent packages.
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            info = self.modules.get(prefix)
            if info is None:
                continue
            head = parts[cut]
            target = info.aliases.get(head)
            if target is None:
                return dotted  # a real definition (or unknown attr) here
            rest = parts[cut + 1 :]
            resolved = ".".join([target] + rest)
            return self.resolve_dotted(resolved, _depth + 1)
        return dotted

    def canonical(
        self, info: ModuleInfo, expr: Optional[ast.AST]
    ) -> Optional[str]:
        """Canonical dotted name of a name/attribute chain in ``info``.

        The chain's root is looked up among the module's imports, then
        among its top-level definitions, and the result is followed
        across chained project aliases (:meth:`resolve_dotted`).  None
        for any other expression, or when the module binds the root by
        neither an import nor a top-level definition.
        """
        dotted = _dotted_of(expr)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        target = info.aliases.get(head)
        if target is None:
            if head not in info.global_names:
                return None
            target = f"{info.name}.{head}"
        return self.resolve_dotted(f"{target}.{rest}" if rest else target)

    def resolve_annotation(
        self, info: ModuleInfo, annotation: Optional[ast.expr]
    ) -> Optional[str]:
        """Project class qualname named by a simple annotation.

        Handles ``Cls``, ``mod.Cls``, string annotations, and one
        ``Optional[...]`` / ``X | None`` unwrap — the shapes the
        codebase uses for attributes the passes care about.
        """
        annotation = _annotation_expr(annotation)
        if isinstance(annotation, ast.Subscript):
            head = _dotted_of(annotation.value)
            if head is not None and head.split(".")[-1] == "Optional":
                return self.resolve_annotation(info, annotation.slice)
            return None
        if isinstance(annotation, ast.BinOp) and isinstance(
            annotation.op, ast.BitOr
        ):
            for side in (annotation.left, annotation.right):
                resolved = self.resolve_annotation(info, side)
                if resolved is not None:
                    return resolved
            return None
        resolved = self.canonical(info, annotation)
        if resolved is not None and resolved in self.classes:
            return resolved
        return None

    #: Generic heads whose subscript names what iteration yields.
    _CONTAINER_HEADS = frozenset(
        {
            "List", "Sequence", "MutableSequence", "Tuple", "Set",
            "FrozenSet", "Iterable", "Iterator", "Deque",
            "list", "tuple", "set", "frozenset", "deque",
        }
    )

    def resolve_element_annotation(
        self, info: ModuleInfo, annotation: Optional[ast.expr]
    ) -> Optional[str]:
        """Project class a ``for`` loop over this annotation would bind.

        ``List[Cls]`` → ``Cls`` (ditto the other uniform containers),
        through an ``Optional`` wrapper; ``Tuple[A, ...]`` takes the
        first resolvable element.  Anything else is None — a plain
        class annotation says nothing about its iteration elements.
        """
        annotation = _annotation_expr(annotation)
        if not isinstance(annotation, ast.Subscript):
            return None
        head = _dotted_of(annotation.value)
        tail = head.split(".")[-1] if head is not None else None
        if tail == "Optional":
            return self.resolve_element_annotation(info, annotation.slice)
        if tail not in self._CONTAINER_HEADS:
            return None
        inner = annotation.slice
        if isinstance(inner, ast.Tuple):
            for elt in inner.elts:
                resolved = self.resolve_annotation(info, elt)
                if resolved is not None:
                    return resolved
            return None
        return self.resolve_annotation(info, inner)

    def annotation_classes(
        self, info: ModuleInfo, annotation: Optional[ast.expr]
    ) -> List[str]:
        """Every project class named anywhere inside an annotation.

        ``Tuple[List[SchedulingEvent], StreamDiagnostics]`` yields both
        classes — the worker->parent payload universe SD502 audits.
        """
        annotation = _annotation_expr(annotation)
        if annotation is None:
            return []
        found: List[str] = []
        for node in ast.walk(annotation):
            resolved = self.canonical(info, node)
            if resolved is not None and resolved in self.classes:
                if resolved not in found:
                    found.append(resolved)
        return found

    # -- class structure ---------------------------------------------------
    def mro(self, qualname: str) -> List[ClassInfo]:
        """The class plus its project-resolvable bases, depth-first."""
        out: List[ClassInfo] = []
        seen: Set[str] = set()

        def visit(name: str) -> None:
            if name in seen:
                return
            seen.add(name)
            info = self.classes.get(name)
            if info is None:
                return
            out.append(info)
            for base in info.bases:
                visit(base)

        visit(qualname)
        return out

    def lookup_method(self, cls: str, name: str) -> Optional[str]:
        for info in self.mro(cls):
            if name in info.methods:
                return info.methods[name]
        return None

    def overrides(self, method: str) -> List[str]:
        """Every project method that overrides ``method``, sorted."""
        func = self.functions.get(method)
        if func is None or func.cls is None:
            return []
        name = func.node.name
        found: List[str] = []
        for cls_info in self.classes.values():
            if cls_info.qualname == func.cls or name not in cls_info.methods:
                continue
            bases = self.mro(cls_info.qualname)
            if any(base.qualname == func.cls for base in bases):
                found.append(cls_info.methods[name])
        return sorted(found)

    def lookup_attr_type(self, cls: str, name: str) -> Optional[str]:
        for info in self.mro(cls):
            if name in info.attr_types:
                return info.attr_types[name]
        return None

    def lookup_attr_elem_type(self, cls: str, name: str) -> Optional[str]:
        for info in self.mro(cls):
            if name in info.attr_elem_types:
                return info.attr_elem_types[name]
        return None

    def _infer_attr_types(self, cls_info: ClassInfo) -> None:
        """Instance attribute types from class-body annotations and
        ``__init__`` assignments (run after every class is registered)."""
        info = self.modules[cls_info.module]
        for stmt in cls_info.node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ) and stmt.target.id != "__slots__":
                typed = self.resolve_annotation(info, stmt.annotation)
                if typed is not None:
                    cls_info.attr_types[stmt.target.id] = typed
                elem = self.resolve_element_annotation(info, stmt.annotation)
                if elem is not None:
                    cls_info.attr_elem_types[stmt.target.id] = elem
        init_qual = cls_info.methods.get("__init__")
        if init_qual is None:
            return
        init = self.functions[init_qual]
        param_types: Dict[str, str] = {}
        args = init.node.args
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            typed = self.resolve_annotation(info, arg.annotation)
            if typed is not None:
                param_types[arg.arg] = typed
        for stmt in walk_own_body(init.node):
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            annotation: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value, annotation = stmt.target, stmt.value, stmt.annotation
            if (
                not isinstance(target, ast.Attribute)
                or not isinstance(target.value, ast.Name)
                or target.value.id != "self"
            ):
                continue
            attr = target.attr
            typed = self.resolve_annotation(info, annotation)
            if typed is None and value is not None:
                typed = self._value_type(info, value, param_types)
            if typed is not None and attr not in cls_info.attr_types:
                cls_info.attr_types[attr] = typed
            elem = self.resolve_element_annotation(info, annotation)
            if elem is not None and attr not in cls_info.attr_elem_types:
                cls_info.attr_elem_types[attr] = elem

    def _value_type(
        self,
        info: ModuleInfo,
        value: ast.expr,
        local_types: Dict[str, str],
    ) -> Optional[str]:
        """Best-effort project-class type of an expression."""
        if isinstance(value, ast.Name):
            return local_types.get(value.id)
        if isinstance(value, ast.IfExp):
            return self._value_type(
                info, value.body, local_types
            ) or self._value_type(info, value.orelse, local_types)
        if isinstance(value, ast.Call):
            resolved = self.canonical(info, value.func)
            if resolved is None:
                return None
            if resolved in self.classes:
                return resolved
            func = self.functions.get(resolved)
            if func is not None:
                owner = self.modules.get(func.module)
                if owner is not None:
                    return self.resolve_annotation(owner, func.node.returns)
        return None


def _dotted_of(node: Optional[ast.AST]) -> Optional[str]:
    """``a.b.c`` of a Name/Attribute chain, None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    return ".".join(parts)


def _annotation_expr(annotation: Optional[ast.expr]) -> Optional[ast.expr]:
    """The annotation, with a string annotation parsed (None if it fails)."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            return ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    return annotation


def walk_own_body(func_node: _FuncNode):
    """``ast.walk`` over a function body, *excluding* nested defs.

    Nested functions are separate :class:`FunctionInfo` roots; walking
    into them here would attribute their call sites to the enclosing
    function.
    """
    stack: List[ast.AST] = list(ast.iter_child_nodes(func_node))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def local_bindings(func_node: _FuncNode) -> Set[str]:
    """Every name bound inside the function: params, assignments,
    loop/with/except targets, comprehension variables, nested defs.

    Used to keep local variables from masquerading as module or builtin
    calls during resolution.  Names bound by a function-local import are
    left out: the module's aliases resolve them.
    """
    bound: Set[str] = set()
    args = func_node.args
    for arg in (
        list(args.posonlyargs)
        + list(args.args)
        + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        bound.add(arg.arg)
    for node in walk_own_body(func_node):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bound.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, ast.comprehension):
            for target in ast.walk(node.target):
                if isinstance(target, ast.Name):
                    bound.add(target.id)
    return bound


class CallGraph:
    """Function-level call edges over a :class:`ProjectIndex`.

    Build it through :attr:`ProjectIndex.call_graph`, which keeps one
    per index: construction appends each function's edges to its
    :class:`FunctionInfo`.
    """

    def __init__(self, index: ProjectIndex):
        self.index = index
        self._local_types: Dict[str, Dict[str, str]] = {}
        for qualname in sorted(index.functions):
            self._resolve_function(index.functions[qualname])

    # -- per-function resolution -------------------------------------------
    def local_types(self, func: FunctionInfo) -> Dict[str, str]:
        """Parameter/local variable -> project class qualname."""
        types = self._local_types.get(func.qualname)
        if types is None:
            types = self._local_types[func.qualname] = self._infer_types(func)
        return types

    def _infer_types(self, func: FunctionInfo) -> Dict[str, str]:
        index = self.index
        info = index.modules[func.module]
        types: Dict[str, str] = {}
        args = func.node.args
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            typed = index.resolve_annotation(info, arg.annotation)
            if typed is not None:
                types[arg.arg] = typed
        for node in walk_own_body(func.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                if isinstance(target, ast.Name):
                    typed = self._expr_type(func, value, types)
                    if typed is not None:
                        types[target.id] = typed
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                typed = index.resolve_annotation(info, node.annotation)
                if typed is not None:
                    types[node.target.id] = typed
            elif isinstance(node, ast.withitem) and node.optional_vars is not None:
                if isinstance(node.optional_vars, ast.Name):
                    typed = self._expr_type(func, node.context_expr, types)
                    if typed is not None:
                        types[node.optional_vars.id] = typed
            elif isinstance(node, (ast.For, ast.AsyncFor)) and isinstance(
                node.target, ast.Name
            ):
                typed = self._elem_type(func, node.iter, types)
                if typed is not None:
                    types[node.target.id] = typed
        return types

    def _elem_type(
        self, func: FunctionInfo, expr: ast.expr, local_types: Dict[str, str]
    ) -> Optional[str]:
        """Project class a ``for`` loop over ``expr`` binds, if pinned.

        Covers the one shape the codebase uses: iterating an instance
        attribute whose ``__init__``/class-body annotation names a
        uniform container (``for tailer in self.tailers`` with
        ``self.tailers: List[DirectoryTailer]``).
        """
        if isinstance(expr, ast.Attribute):
            owner = self._expr_type(func, expr.value, local_types)
            if owner is not None:
                return self.index.lookup_attr_elem_type(owner, expr.attr)
        return None

    def _expr_type(
        self, func: FunctionInfo, expr: ast.expr, local_types: Dict[str, str]
    ) -> Optional[str]:
        """Project class type of an expression inside ``func``."""
        index = self.index
        if isinstance(expr, ast.Name):
            if expr.id == "self" and func.cls is not None:
                return func.cls
            return local_types.get(expr.id)
        if isinstance(expr, ast.IfExp):
            return self._expr_type(func, expr.body, local_types) or self._expr_type(
                func, expr.orelse, local_types
            )
        if isinstance(expr, ast.Await):
            return self._expr_type(func, expr.value, local_types)
        if isinstance(expr, ast.Attribute):
            owner = self._expr_type(func, expr.value, local_types)
            if owner is not None:
                return index.lookup_attr_type(owner, expr.attr)
            return None
        if isinstance(expr, ast.Call):
            target = self.resolve_callee(func, expr.func, local_types)
            if target is None:
                return None
            kind, name = target
            if kind == "class":
                return name
            if kind == "project":
                callee = index.functions[name]
                owner = index.modules.get(callee.module)
                if owner is not None:
                    return index.resolve_annotation(owner, callee.node.returns)
        return None

    def resolve_callee(
        self,
        func: FunctionInfo,
        callee: ast.expr,
        local_types: Dict[str, str],
    ) -> Optional[Tuple[str, str]]:
        """Resolve a call target expression inside ``func`` to one of
        ``("project", function qualname)``, ``("class", class qualname)``
        (a constructor), or ``("external", canonical dotted name)``.
        """
        index = self.index
        info = index.modules[func.module]
        bound = func.bound
        if isinstance(callee, ast.Name):
            if callee.id in bound:
                return None  # calling a local binding: out of scope
            resolved = index.canonical(info, callee)
            if resolved is not None:
                return self._classify(resolved)
            # Unshadowed bare name: a builtin (``open``, ``print``).
            return ("external", callee.id)
        if isinstance(callee, ast.Attribute):
            # Receiver with a known project type: method lookup in MRO.
            receiver_type = self._expr_type(func, callee.value, local_types)
            if receiver_type is not None:
                method = index.lookup_method(receiver_type, callee.attr)
                if method is not None:
                    return ("project", method)
                return None
            dotted = _dotted_of(callee)
            if dotted is None:
                return None
            root = dotted.split(".")[0]
            if root in bound or root == "self":
                return None  # an untyped local / instance attribute
            resolved = index.canonical(info, callee)
            if resolved is not None:
                return self._classify(resolved)
            # A fully external dotted call (``time.sleep``) — only when
            # the root is not bound locally at all.
            return ("external", dotted)
        return None

    def _classify(self, resolved: str) -> Optional[Tuple[str, str]]:
        index = self.index
        if resolved in index.functions:
            return ("project", resolved)
        if resolved in index.classes:
            return ("class", resolved)
        # ``Cls.method`` spelled through the class.
        head, _, tail = resolved.rpartition(".")
        if head in index.classes:
            method = index.lookup_method(head, tail)
            if method is not None:
                return ("project", method)
            return None
        if resolved.split(".")[0] in index.modules or resolved in index.modules:
            return None  # a project attribute we cannot resolve further
        return ("external", resolved)

    def _resolve_function(self, func: FunctionInfo) -> None:
        local_types = self.local_types(func)
        for node in walk_own_body(func.node):
            if not isinstance(node, ast.Call):
                continue
            target = self.resolve_callee(func, node.func, local_types)
            if target is None:
                continue
            kind, name = target
            if kind == "project":
                func.calls.append((name, node.lineno))
                if self.index.functions[name].is_abstract:
                    for override in self.index.overrides(name):
                        func.calls.append((override, node.lineno))
            elif kind == "class":
                init = self.index.lookup_method(name, "__init__")
                if init is not None:
                    func.calls.append((init, node.lineno))
            else:
                func.external_calls.append((name, node.lineno))

    # -- reachability ------------------------------------------------------
    def reachable(
        self, start: str, through_async: bool = False
    ) -> Dict[str, Tuple[Optional[str], int]]:
        """BFS over project call edges from ``start``.

        Returns ``{qualname: (caller qualname, call lineno)}`` parent
        pointers (the start maps to ``(None, 0)``), shortest-path by
        construction.  ``through_async=False`` stops at ``async def``
        callees: they run as separate tasks, and each is analyzed as
        its own root.
        """
        parents: Dict[str, Tuple[Optional[str], int]] = {start: (None, 0)}
        frontier = [start]
        while frontier:
            next_frontier: List[str] = []
            for qualname in frontier:
                func = self.index.functions.get(qualname)
                if func is None:
                    continue
                for callee, lineno in func.calls:
                    if callee in parents:
                        continue
                    callee_info = self.index.functions.get(callee)
                    if callee_info is None:
                        continue
                    if callee_info.is_async and not through_async:
                        continue
                    parents[callee] = (qualname, lineno)
                    next_frontier.append(callee)
            frontier = next_frontier
        return parents

    def chain(
        self, parents: Dict[str, Tuple[Optional[str], int]], end: str
    ) -> List[str]:
        """Start-to-``end`` qualname path from :meth:`reachable` output."""
        path = [end]
        cursor = end
        while True:
            parent, _lineno = parents[cursor]
            if parent is None:
                break
            path.append(parent)
            cursor = parent
        path.reverse()
        return path
