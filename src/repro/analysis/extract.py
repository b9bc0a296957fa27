"""AST extraction of log emitters: templates, tables, rendered samples.

The simulator and SDchecker deliberately share no code: the simulator
renders log4j text, the checker regex-mines it.  To cross-check the two
sides *statically* we pull the emitters out of the source with
:mod:`ast` — never by importing and running simulator code:

* state machines: classes carrying a ``TRANSITIONS`` dict literal (plus
  ``CLS``/``INITIAL``/``TEMPLATE``, inherited from same-module bases),
  as in :mod:`repro.yarn.state_machine`;
* free-form emissions: ``*.logger.info/warn/error(CLS, f"...")`` calls
  in :mod:`repro.spark`, :mod:`repro.mapreduce` and friends, with the
  f-string rendered into a representative sample line by substituting
  plausible global IDs for each interpolated expression.

Sample substitution is heuristic by design (it keys on the expression
text), but it is deterministic and it only has to produce lines *shaped*
like the real ones — the Table I regexes do the rest.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.callgraph import ProjectIndex

__all__ = [
    "EmissionSite",
    "StateMachineSpec",
    "SAMPLE_APP_ID",
    "SAMPLE_ATTEMPT_ID",
    "SAMPLE_CONTAINER_ID",
    "SAMPLE_TASK_ATTEMPT_ID",
    "extract_emissions",
    "extract_state_machines",
    "render_joined_str",
]

#: Representative global IDs used when rendering sample lines.  They
#: follow the exact Hadoop shapes of :mod:`repro.yarn.ids`.
SAMPLE_APP_ID = "application_1515715200000_0042"
SAMPLE_CONTAINER_ID = "container_1515715200000_0042_01_000002"
SAMPLE_ATTEMPT_ID = "appattempt_1515715200000_0042_000001"
SAMPLE_TASK_ATTEMPT_ID = "attempt_1515715200000_0042_m_000000_0"

#: (needle, sample) pairs tried in order against the *source text* of an
#: interpolated expression; first hit wins.  Integers stay integers so
#: numeric format specs (``:04d``) keep working.
_EXPR_SAMPLES: Tuple[Tuple[str, Union[str, int]], ...] = (
    ("attempt(", SAMPLE_ATTEMPT_ID),
    ("container_id", SAMPLE_CONTAINER_ID),
    ("app_id", SAMPLE_APP_ID),
    ("task_id", 0),
    ("executor_id", 1),
    ("hostname", "worker01"),
    ("attempts", 1),
    ("attempt", SAMPLE_TASK_ATTEMPT_ID),
    ("granted", 4),
    ("total", 4),
    ("path", "/user/ubuntu/warehouse/lineitem/part-00000"),
    ("index", 0),
    ("task", 0),
)

_FALLBACK_SAMPLE = "X"


@dataclass(frozen=True, slots=True)
class StateMachineSpec:
    """One ``TRANSITIONS``-table state machine, as written in source."""

    name: str
    #: Emitting log4j class name (``CLS`` attribute), "" if unresolved.
    cls: str
    initial: str
    #: ``%``-format message template with entity/old/new/event keys.
    template: str
    #: (state, event) -> next state.
    transitions: Dict[Tuple[str, str], str]
    #: POSIX path relative to the scan root.
    path: str
    line: int

    @property
    def short_cls(self) -> str:
        """The bare class name of ``CLS`` (e.g. ``RMAppImpl``)."""
        return self.cls.rsplit(".", 1)[-1] if self.cls else ""


@dataclass(frozen=True, slots=True)
class EmissionSite:
    """One free-form ``logger.info(CLS, message)`` call site."""

    path: str
    line: int
    #: Resolved emitting log4j class, "" when not a static string.
    cls: str
    #: Sample rendered message line.
    rendered: str
    #: Source text of the message expression (for report context).
    source: str


def _sample_for(expr_source: str) -> Union[str, int]:
    for needle, sample in _EXPR_SAMPLES:
        if needle in expr_source:
            return sample
    return _FALLBACK_SAMPLE


def render_joined_str(node: ast.JoinedStr) -> Optional[str]:
    """Render an f-string AST node into a representative sample line.

    Returns ``None`` when the node contains pieces that cannot be
    sampled (nested f-strings in dynamic format specs, etc.).
    """
    parts: List[str] = []
    for value in node.values:
        if isinstance(value, ast.Constant):
            parts.append(str(value.value))
        elif isinstance(value, ast.FormattedValue):
            sample = _sample_for(ast.unparse(value.value))
            if value.conversion == ord("r"):
                sample = repr(sample)
            elif value.conversion == ord("s"):
                sample = str(sample)
            elif value.conversion == ord("a"):
                sample = ascii(sample)
            spec = ""
            if value.format_spec is not None:
                if all(
                    isinstance(v, ast.Constant) for v in value.format_spec.values
                ):
                    spec = "".join(str(v.value) for v in value.format_spec.values)
                else:
                    spec = ""
            try:
                parts.append(format(sample, spec))
            except (TypeError, ValueError):
                parts.append(str(sample))
        else:  # pragma: no cover - JoinedStr only holds the above
            return None
    return "".join(parts)


# -- state machines -----------------------------------------------------------

_LITERAL_ATTRS = ("CLS", "INITIAL", "TEMPLATE", "TRANSITIONS")


def _class_literal_attrs(node: ast.ClassDef) -> Dict[str, object]:
    """Literal class attributes (plain and annotated assignments)."""
    out: Dict[str, object] = {}
    for stmt in node.body:
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target, value = stmt.target, stmt.value
        if not isinstance(target, ast.Name) or value is None:
            continue
        if target.id not in _LITERAL_ATTRS:
            continue
        try:
            out[target.id] = ast.literal_eval(value)
        except (ValueError, SyntaxError):
            continue
    return out


def _valid_transitions(raw: object) -> Optional[Dict[Tuple[str, str], str]]:
    if not isinstance(raw, dict) or not raw:
        return None
    transitions: Dict[Tuple[str, str], str] = {}
    for key, value in raw.items():
        if (
            not isinstance(key, tuple)
            or len(key) != 2
            or not all(isinstance(part, str) for part in key)
            or not isinstance(value, str)
        ):
            return None
        transitions[(key[0], key[1])] = value
    return transitions


def extract_state_machines(index: "ProjectIndex") -> List[StateMachineSpec]:
    """Every class with a non-empty ``TRANSITIONS`` dict literal.

    :attr:`ProjectIndex.state_machines` keeps the result per index.
    """
    specs: List[StateMachineSpec] = []
    for path, info in sorted(index.modules_by_path.items()):
        classes: Dict[str, ast.ClassDef] = {
            node.name: node
            for node in ast.walk(info.tree)
            if isinstance(node, ast.ClassDef)
        }
        attrs = {name: _class_literal_attrs(node) for name, node in classes.items()}

        def resolve(name: str, attr: str, seen: frozenset = frozenset()) -> object:
            if name in seen or name not in classes:
                return None
            if attr in attrs[name]:
                return attrs[name][attr]
            for base in classes[name].bases:
                if isinstance(base, ast.Name):
                    found = resolve(base.id, attr, seen | {name})
                    if found is not None:
                        return found
            return None

        for name, node in sorted(classes.items()):
            transitions = _valid_transitions(resolve(name, "TRANSITIONS"))
            if transitions is None:
                continue
            specs.append(
                StateMachineSpec(
                    name=name,
                    cls=str(resolve(name, "CLS") or ""),
                    initial=str(resolve(name, "INITIAL") or ""),
                    template=str(resolve(name, "TEMPLATE") or ""),
                    transitions=transitions,
                    path=path,
                    line=node.lineno,
                )
            )
    return specs


# -- free-form emissions ------------------------------------------------------

_LOG_METHODS = {"info", "warn", "error"}


def _module_string_constants(tree: ast.Module) -> Dict[str, str]:
    consts: Dict[str, str] = {}
    for stmt in tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str)
        ):
            consts[stmt.targets[0].id] = stmt.value.value
    return consts


def _is_logger_call(call: ast.Call) -> bool:
    func = call.func
    if not isinstance(func, ast.Attribute) or func.attr not in _LOG_METHODS:
        return False
    owner = func.value
    if isinstance(owner, ast.Attribute):
        return owner.attr.endswith("logger")
    if isinstance(owner, ast.Name):
        return owner.id.endswith("logger")
    return False


def extract_emissions(index: "ProjectIndex") -> List[EmissionSite]:
    """Sample-rendered lines for every static ``logger.<level>`` call.

    Calls whose message cannot be rendered statically (``%``-template
    application, variables) are skipped — the state-machine extractor
    covers the former, and the latter carry no checkable wording.
    """
    sites: List[EmissionSite] = []
    for path, info in sorted(index.modules_by_path.items()):
        consts = _module_string_constants(info.tree)
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call) or not _is_logger_call(node):
                continue
            if len(node.args) != 2:
                continue
            cls_arg, msg_arg = node.args
            if isinstance(cls_arg, ast.Constant) and isinstance(cls_arg.value, str):
                cls = cls_arg.value
            elif isinstance(cls_arg, ast.Name):
                cls = consts.get(cls_arg.id, "")
            else:
                cls = ""
            if isinstance(msg_arg, ast.Constant) and isinstance(msg_arg.value, str):
                rendered: Optional[str] = msg_arg.value
            elif isinstance(msg_arg, ast.JoinedStr):
                rendered = render_joined_str(msg_arg)
            else:
                rendered = None
            if rendered is None:
                continue
            sites.append(
                EmissionSite(
                    path=path,
                    line=node.lineno,
                    cls=cls,
                    rendered=rendered,
                    source=ast.unparse(msg_arg),
                )
            )
    return sites
