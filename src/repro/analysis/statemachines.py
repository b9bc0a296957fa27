"""Pass 2 — state-machine analysis (rules SD201-SD204).

Builds the transition graph of every ``TRANSITIONS``-table machine in
the simulator source and checks structural invariants SDchecker's delay
decomposition silently relies on:

* **SD201 unreachable-state** — a state no event sequence from
  ``INITIAL`` can reach; its timestamps can never appear in a log.
* **SD202 dead-transition** — a transition out of an unreachable state:
  dead wiring that will rot unnoticed.
* **SD203 no-terminal-state** — no reachable state with out-degree 0;
  every entity would spin forever and job-runtime endpoints would never
  fire.
* **SD204 invisible-transition** — a reachable transition whose target
  state has no Table I classifier entry: the simulator logs it, but
  SDchecker cannot see it.  Several of these are *intentional*
  (NEW_SAVING, FINAL_SAVING, the NM cleanup tail) — they are accepted
  via the checked-in baseline rather than silenced in code, so adding a
  new one is a conscious decision.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.callgraph import ProjectIndex
from repro.analysis.extract import StateMachineSpec
from repro.analysis.findings import Finding, make_finding
from repro.core import messages as msg
from repro.core.events import EventKind

__all__ = ["analyze", "analyze_machine", "reachable_states"]


def reachable_states(
    transitions: Dict[Tuple[str, str], str], initial: str
) -> Set[str]:
    """States reachable from ``initial`` following the transition table."""
    edges: Dict[str, Set[str]] = {}
    for (src, _event), dst in transitions.items():
        edges.setdefault(src, set()).add(dst)
    seen: Set[str] = set()
    frontier = [initial] if initial else []
    while frontier:
        state = frontier.pop()
        if state in seen:
            continue
        seen.add(state)
        frontier.extend(edges.get(state, ()))
    return seen


def analyze_machine(
    machine: StateMachineSpec,
    catalog: Optional[Dict[str, Dict[str, EventKind]]] = None,
) -> List[Finding]:
    """All SD2xx findings for one machine."""
    catalog = catalog if catalog is not None else msg.catalog_states()
    findings: List[Finding] = []
    transitions = machine.transitions
    states: Set[str] = set()
    if machine.initial:
        states.add(machine.initial)
    for (src, _event), dst in transitions.items():
        states.update((src, dst))
    reachable = reachable_states(transitions, machine.initial)

    for state in sorted(states - reachable):
        findings.append(
            make_finding(
                "SD201",
                machine.path,
                machine.line,
                f"{machine.name}: state {state} is unreachable from "
                f"{machine.initial or '<no INITIAL>'}",
            )
        )
    for (src, event), dst in sorted(transitions.items()):
        if src not in reachable:
            findings.append(
                make_finding(
                    "SD202",
                    machine.path,
                    machine.line,
                    f"{machine.name}: transition {src} --{event}--> {dst} "
                    f"can never fire (source state unreachable)",
                )
            )
    sources = {src for (src, _event) in transitions}
    if reachable and not any(state not in sources for state in reachable):
        findings.append(
            make_finding(
                "SD203",
                machine.path,
                machine.line,
                f"{machine.name}: no reachable terminal state — every "
                f"entity would transition forever",
            )
        )

    states_table = catalog.get(machine.short_cls)
    if states_table is None:
        findings.append(
            make_finding(
                "SD204",
                machine.path,
                machine.line,
                f"{machine.name}: class {machine.cls or '<no CLS>'} has no "
                f"Table I classifier; every transition is invisible to "
                f"SDchecker",
            )
        )
    else:
        for (src, event), dst in sorted(transitions.items()):
            if src in reachable and dst not in states_table:
                findings.append(
                    make_finding(
                        "SD204",
                        machine.path,
                        machine.line,
                        f"{machine.name}: transition {src} --{event}--> {dst} "
                        f"is invisible to SDchecker (no catalog event for "
                        f"state {dst})",
                    )
                )
    return findings


def analyze(index: ProjectIndex) -> List[Finding]:
    """SD2xx analysis of every state machine in the index."""
    findings: List[Finding] = []
    for machine in index.state_machines:
        findings.extend(analyze_machine(machine))
    return findings
