"""The scheduling graph (section III-C, Fig 3).

For each application SDchecker builds a DAG whose nodes are the mined
(entity, state) pairs — rectangles for YARN-caused states, circles for
Spark-caused states in the paper's figure — with edges following both
the per-entity state order and the cross-entity causal structure:

* app SUBMITTED -> ACCEPTED -> AM container ALLOCATED -> ... -> driver
  FIRST_LOG -> REGISTER -> app RUNNING;
* driver REGISTER -> START_ALLO -> each worker container's
  ALLOCATED -> ACQUIRED -> LOCALIZING -> SCHEDULED -> RUNNING ->
  executor FIRST_LOG -> FIRST_TASK;
* all worker ALLOCATED events -> END_ALLO.

Edges carry the elapsed time between their endpoint states, so the
longest (critical) path from SUBMITTED to the first FIRST_TASK is the
total scheduling delay, and each edge names the component it charges.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.events import EventKind
from repro.core.grouping import ApplicationTrace, ContainerTrace

__all__ = ["SchedulingGraph", "longest_path"]

#: node -> successor -> edge attributes, each level in insertion order.
Successors = Dict[str, Dict[str, Dict[str, Any]]]

#: States the paper draws as rectangles (YARN) vs circles (Spark).
_YARN_KINDS = {
    EventKind.APP_SUBMITTED,
    EventKind.APP_ACCEPTED,
    EventKind.APP_ATTEMPT_REGISTERED,
    EventKind.APP_FINISHED,
    EventKind.CONTAINER_ALLOCATED,
    EventKind.CONTAINER_ACQUIRED,
    EventKind.CONTAINER_LOCALIZING,
    EventKind.CONTAINER_SCHEDULED,
    EventKind.CONTAINER_NM_RUNNING,
}

_CONTAINER_ORDER = [
    EventKind.CONTAINER_ALLOCATED,
    EventKind.CONTAINER_ACQUIRED,
    EventKind.CONTAINER_LOCALIZING,
    EventKind.CONTAINER_SCHEDULED,
    EventKind.CONTAINER_NM_RUNNING,
    EventKind.INSTANCE_FIRST_LOG,
    EventKind.FIRST_TASK,
]

_EDGE_COMPONENT = {
    (EventKind.CONTAINER_ALLOCATED, EventKind.CONTAINER_ACQUIRED): "acquisition",
    (EventKind.CONTAINER_ACQUIRED, EventKind.CONTAINER_LOCALIZING): "dispatch",
    (EventKind.CONTAINER_LOCALIZING, EventKind.CONTAINER_SCHEDULED): "localization",
    (EventKind.CONTAINER_SCHEDULED, EventKind.CONTAINER_NM_RUNNING): "launching",
    (EventKind.CONTAINER_NM_RUNNING, EventKind.INSTANCE_FIRST_LOG): "startup",
    (EventKind.INSTANCE_FIRST_LOG, EventKind.FIRST_TASK): "executor-delay",
}


def longest_path(succ: Successors, source: str, target: str) -> List[str]:
    """The longest simple ``source`` -> ``target`` path, as its nodes.

    Walks every simple path depth-first, successors in insertion order,
    and never past ``target``; sums each path's ``weight`` with ``sum``
    and keeps the first path strictly longer than the best so far.  A
    per-node maximum is not the same rule: two prefixes one ulp apart
    can round to the same total further on, and then this keeps the
    earlier path.  Empty when ``target`` is unreachable.
    """
    best: List[str] = []
    best_len = -1.0
    path = [source]
    stack = [iter(succ[source])]
    while stack:
        node = next((n for n in stack[-1] if n not in path), None)
        if node is None:
            stack.pop()
            path.pop()
        elif node == target:
            full = path + [node]
            length = sum(succ[a][b]["weight"] for a, b in zip(full, full[1:]))
            if length > best_len:
                best_len, best = length, full
        else:
            path.append(node)
            stack.append(iter(succ[node]))
    return best


class SchedulingGraph:
    """The per-application scheduling DAG.

    ``nodes`` maps a node name to its ``entity``, ``kind``,
    ``timestamp`` and ``owner``; ``succ`` maps it to its successors,
    each to the edge's ``weight`` (seconds) and ``component``.  Both
    keep insertion order, and re-adding a node or an edge updates its
    attributes in place.
    """

    def __init__(self, trace: ApplicationTrace):
        self.trace = trace
        self.nodes: Dict[str, Dict[str, Any]] = {}
        self.succ: Successors = {}
        self._build()

    # -- construction ------------------------------------------------------
    def _node(self, entity: str, kind: EventKind, timestamp: float) -> str:
        node = f"{entity}:{kind.value}"
        self.nodes.setdefault(node, {}).update(
            entity=entity,
            kind=kind.value,
            timestamp=timestamp,
            owner="yarn" if kind in _YARN_KINDS else "spark",
        )
        self.succ.setdefault(node, {})
        return node

    def _edge(self, a: Optional[str], b: Optional[str], component: str) -> None:
        if a is None or b is None or a == b:
            return
        dt = self.nodes[b]["timestamp"] - self.nodes[a]["timestamp"]
        if dt < 0:
            return  # never draw a backwards causal edge (clock skew guard)
        self.succ[a].setdefault(b, {}).update(weight=dt, component=component)

    def _app_node(self, kind: EventKind) -> Optional[str]:
        t = self.trace.time_of(kind)
        if t is None:
            return None
        return self._node("app", kind, t)

    def _container_chain(self, ctrace: ContainerTrace) -> List[str]:
        """Add a container's state chain; returns its node names in order."""
        nodes: List[str] = []
        prev: Optional[str] = None
        prev_kind: Optional[EventKind] = None
        for kind in _CONTAINER_ORDER:
            t = ctrace.time_of(kind)
            if t is None:
                continue
            node = self._node(ctrace.container_id, kind, t)
            if prev is not None:
                component = _EDGE_COMPONENT.get((prev_kind, kind), "flow")
                self._edge(prev, node, component)
            nodes.append(node)
            prev, prev_kind = node, kind
        return nodes

    def _build(self) -> None:
        trace = self.trace
        submitted = self._app_node(EventKind.APP_SUBMITTED)
        accepted = self._app_node(EventKind.APP_ACCEPTED)
        registered = self._app_node(EventKind.APP_ATTEMPT_REGISTERED)
        finished = self._app_node(EventKind.APP_FINISHED)
        start_allo = self._app_node(EventKind.START_ALLO)
        end_allo = self._app_node(EventKind.END_ALLO)
        driver_reg = self._app_node(EventKind.DRIVER_REGISTERED)

        self._edge(submitted, accepted, "admission")

        am = trace.am_container
        am_nodes: Dict[EventKind, str] = {}
        if am is not None:
            chain = self._container_chain(am)
            am_nodes = {EventKind[self.nodes[n]["kind"]]: n for n in chain}
            self._edge(accepted, chain[0] if chain else None, "am-scheduling")
            self._edge(
                am_nodes.get(EventKind.INSTANCE_FIRST_LOG), driver_reg, "driver-delay"
            )
        self._edge(driver_reg, registered, "registration")
        self._edge(driver_reg, start_allo, "allocator-start")

        last_allocated: List[str] = []
        for ctrace in trace.worker_containers:
            chain = self._container_chain(ctrace)
            if not chain:
                continue
            self._edge(start_allo, chain[0], "allocation")
            first_kind = EventKind[self.nodes[chain[0]]["kind"]]
            if first_kind is EventKind.CONTAINER_ALLOCATED:
                last_allocated.append(chain[0])
        for node in last_allocated:
            self._edge(node, end_allo, "allocation-complete")

        first_tasks = [
            n for n, d in self.nodes.items() if d["kind"] == EventKind.FIRST_TASK.value
        ]
        for node in first_tasks:
            self._edge(node, finished, "execution")

    # -- queries --------------------------------------------------------------
    def critical_path(self) -> List[Tuple[str, str, float, str]]:
        """The longest SUBMITTED -> first-task path by elapsed time.

        Returns (from_node, to_node, seconds, component) per edge; the
        sum of the seconds is the path's share of the total scheduling
        delay — the paper's "which component should we optimize" view.
        The target is the earliest FIRST_TASK node by (timestamp, name).
        """
        source = f"app:{EventKind.APP_SUBMITTED.value}"
        targets = sorted(
            (d["timestamp"], n)
            for n, d in self.nodes.items()
            if d["kind"] == EventKind.FIRST_TASK.value
        )
        if source not in self.nodes or not targets:
            return []
        path = longest_path(self.succ, source, targets[0][1])
        return [
            (a, b, self.succ[a][b]["weight"], self.succ[a][b]["component"])
            for a, b in zip(path, path[1:])
        ]

    def to_dot(self) -> str:
        """Graphviz rendering: rectangles = YARN states, circles = Spark
        states, matching Fig 3's convention."""
        lines = [f'digraph "{self.trace.app_id}" {{', "  rankdir=LR;"]
        for node, data in self.nodes.items():
            shape = "box" if data["owner"] == "yarn" else "ellipse"
            label = node.replace(":", "\\n")
            lines.append(f'  "{node}" [shape={shape}, label="{label}"];')
        for a, successors in self.succ.items():
            for b, data in successors.items():
                lines.append(
                    f'  "{a}" -> "{b}" [label="{data["component"]} '
                    f'{data["weight"]:.3f}s"];'
                )
        lines.append("}")
        return "\n".join(lines)
