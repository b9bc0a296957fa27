"""Pass 1 — catalog cross-check (rules SD101-SD104).

The simulator's emitters and SDchecker's Table I regexes are developed
on opposite sides of a text interface.  This pass synthesizes one
representative rendered line per emitter (see
:mod:`repro.analysis.extract`) and verifies the contract from both
directions:

* **coverage** (SD101): every state-machine transition entering a
  delay-relevant state renders a line its designated classifier
  matches, with the right event kind;
* **ambiguity** (SD102): no rendered line — emitter samples and the
  hand-picked :data:`AMBIGUITY_PROBES` — is matched by two or more
  classifiers;
* **classifier liveness** (SD103): every catalog entry (state table
  rows and the driver/executor/MR line matchers) is fed by at least one
  emitter, so a drifted emitter cannot silently orphan a classifier;
* **global-ID round-trip** (SD104): container IDs embedded in rendered
  lines group back to the owning application via
  :func:`repro.core.messages.app_id_of_container`, including epoch-
  prefixed and attempt-id >= 100 forms.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.callgraph import ProjectIndex
from repro.analysis.extract import (
    EmissionSite,
    SAMPLE_APP_ID,
    SAMPLE_CONTAINER_ID,
    StateMachineSpec,
    extract_emissions,
)
from repro.analysis.findings import Finding, make_finding
from repro.core import messages as msg
from repro.core.events import EventKind, TABLE_I_NUMBER

__all__ = [
    "AMBIGUITY_PROBES",
    "CLASSIFIERS",
    "ROUNDTRIP_PROBES",
    "analyze",
    "check_ambiguity",
    "check_classifier_coverage",
    "check_id_roundtrip",
    "check_machine_catalog",
    "matching_classifiers",
]

#: The full classifier battery of repro.core.messages, by name.
CLASSIFIERS: Tuple[Tuple[str, Callable[[str], object]], ...] = (
    ("rm_app", msg.classify_rm_app_line),
    ("rm_container", msg.classify_rm_container_line),
    ("nm_container", msg.classify_nm_container_line),
    ("driver", msg.classify_driver_line),
    ("first_task", msg.classify_first_task_line),
    ("mr_task_done", msg.classify_mr_task_done_line),
)

#: Machine class -> (classifier name, entity-ID flavour it must carry).
_MACHINE_BINDINGS: Dict[str, Tuple[str, str]] = {
    "RMAppImpl": ("rm_app", "app"),
    "RMContainerImpl": ("rm_container", "container"),
    "ContainerImpl": ("nm_container", "container"),
}

#: Line-shaped catalog entries (not state-table-backed) that some
#: extracted emission must produce a match for.
_REQUIRED_LINE_KINDS: Tuple[EventKind, ...] = (
    EventKind.DRIVER_REGISTERED,
    EventKind.START_ALLO,
    EventKind.END_ALLO,
    EventKind.FIRST_TASK,
    EventKind.MR_TASK_DONE,
)

#: Tricky-but-legal lines locked in as regression fixtures: each must be
#: matched by AT MOST one classifier.  Also exercised directly by
#: tests/test_core_messages.py.
AMBIGUITY_PROBES: Tuple[str, ...] = (
    # Epoch-prefixed container id (work-preserving RM restart) in an NM line.
    "Container container_e17_1515715200000_0042_01_000002 transitioned "
    "from LOCALIZING to SCHEDULED",
    # State names containing underscores must not confuse the grammar.
    "Container container_1515715200000_0042_01_000002 transitioned "
    "from EXITED_WITH_SUCCESS to DONE",
    "application_1515715200000_0042 State change from NEW_SAVING to "
    "SUBMITTED on event = APP_NEW_SAVED",
    # Near-miss a human could read as either an RM or an NM container
    # transition; the anchored wording must keep it out of both.
    "Container container_1515715200000_0042_01_000002 Container "
    "Transitioned from NEW to ALLOCATED",
    # An RM-style line about an entity that is not a global ID.
    "queue_default State change from STOPPED to RUNNING on event = START",
)

#: (container id, owning application id) pairs the grouping logic must
#: round-trip, covering the plain, epoch-prefixed, and attempt>=100
#: (recurring-app) shapes.
ROUNDTRIP_PROBES: Tuple[Tuple[str, str], ...] = (
    (SAMPLE_CONTAINER_ID, SAMPLE_APP_ID),
    ("container_e17_1515715200000_0042_01_000002", SAMPLE_APP_ID),
    ("container_1515715200000_0042_117_000002", SAMPLE_APP_ID),
)

_CATALOG_PATH = "repro/core/messages.py"


def matching_classifiers(
    line: str,
    classifiers: Sequence[Tuple[str, Callable[[str], object]]] = CLASSIFIERS,
) -> List[str]:
    """Names of every classifier that matches ``line``."""
    return [name for name, classify in classifiers if classify(line)]


def _classifier(name: str, classifiers) -> Callable[[str], object]:
    for cname, classify in classifiers:
        if cname == name:
            return classify
    raise KeyError(name)


def _render_transition(
    machine: StateMachineSpec, old: str, event: str, new: str, entity: str
) -> Optional[str]:
    try:
        return machine.template % {
            "entity": entity,
            "old": old,
            "new": new,
            "event": event,
        }
    except (KeyError, TypeError, ValueError):
        return None


def check_machine_catalog(
    machines: Sequence[StateMachineSpec],
    classifiers: Sequence[Tuple[str, Callable[[str], object]]] = CLASSIFIERS,
    catalog: Optional[Dict[str, Dict[str, EventKind]]] = None,
) -> List[Finding]:
    """SD101/SD102/SD104 over every delay-relevant machine transition."""
    catalog = catalog if catalog is not None else msg.catalog_states()
    findings: List[Finding] = []
    for machine in machines:
        binding = _MACHINE_BINDINGS.get(machine.short_cls)
        states = catalog.get(machine.short_cls)
        if binding is None or states is None:
            continue  # pass 2 reports machines invisible to the checker
        cname, entity_kind = binding
        classify = _classifier(cname, classifiers)
        entity = SAMPLE_APP_ID if entity_kind == "app" else SAMPLE_CONTAINER_ID
        for (old, event), new in sorted(machine.transitions.items()):
            if new not in states:
                continue  # invisible transition: pass 2's SD204
            rendered = _render_transition(machine, old, event, new, entity)
            where = f"transition {old} --{event}--> {new} of {machine.name}"
            if rendered is None:
                findings.append(
                    make_finding(
                        "SD101",
                        machine.path,
                        machine.line,
                        f"{where}: TEMPLATE does not render with "
                        f"entity/old/new/event keys: {machine.template!r}",
                    )
                )
                continue
            result = classify(rendered)
            if not result:
                findings.append(
                    make_finding(
                        "SD101",
                        machine.path,
                        machine.line,
                        f"{where} renders a line the {cname!r} classifier "
                        f"does not match: {rendered!r}",
                    )
                )
            else:
                kind, got_entity = result
                if kind is not states[new]:
                    findings.append(
                        make_finding(
                            "SD101",
                            machine.path,
                            machine.line,
                            f"{where} classified as {kind.name}, catalog "
                            f"expects {states[new].name}",
                        )
                    )
                if got_entity != entity:
                    findings.append(
                        make_finding(
                            "SD104",
                            machine.path,
                            machine.line,
                            f"{where} yielded entity {got_entity!r}, "
                            f"expected {entity!r}",
                        )
                    )
            matches = matching_classifiers(rendered, classifiers)
            if len(matches) > 1:
                findings.append(
                    make_finding(
                        "SD102",
                        machine.path,
                        machine.line,
                        f"{where} renders a line matched by "
                        f"{len(matches)} classifiers ({', '.join(matches)}): "
                        f"{rendered!r}",
                    )
                )
    return findings


def check_classifier_coverage(
    machines: Sequence[StateMachineSpec],
    emissions: Sequence[EmissionSite],
    catalog: Optional[Dict[str, Dict[str, EventKind]]] = None,
) -> List[Finding]:
    """SD103: every catalog entry must be fed by some emitter."""
    catalog = catalog if catalog is not None else msg.catalog_states()
    findings: List[Finding] = []

    by_cls: Dict[str, List[StateMachineSpec]] = {}
    for machine in machines:
        by_cls.setdefault(machine.short_cls, []).append(machine)
    for short_cls, states in sorted(catalog.items()):
        owners = by_cls.get(short_cls)
        if not owners:
            findings.append(
                make_finding(
                    "SD103",
                    _CATALOG_PATH,
                    1,
                    f"catalog class {short_cls} has no state machine in the "
                    f"simulator source",
                )
            )
            continue
        emitted = {
            new for owner in owners for new in owner.transitions.values()
        }
        for state, kind in sorted(states.items()):
            if state not in emitted:
                findings.append(
                    make_finding(
                        "SD103",
                        owners[0].path,
                        owners[0].line,
                        f"catalog state {short_cls}/{state} ({kind.name}) is "
                        f"never entered by any transition of "
                        f"{', '.join(o.name for o in owners)}",
                    )
                )

    produced = set()
    for site in emissions:
        hit = msg.classify_driver_line(site.rendered)
        if hit:
            produced.add(hit[0])
        if msg.classify_first_task_line(site.rendered):
            produced.add(EventKind.FIRST_TASK)
        if msg.classify_mr_task_done_line(site.rendered):
            produced.add(EventKind.MR_TASK_DONE)
    for kind in _REQUIRED_LINE_KINDS:
        if kind not in produced:
            number = TABLE_I_NUMBER.get(kind)
            label = f"Table I message {number}" if number else "auxiliary message"
            findings.append(
                make_finding(
                    "SD103",
                    _CATALOG_PATH,
                    1,
                    f"no extracted emission renders a line for {kind.name} "
                    f"({label}) — emitter wording drifted?",
                )
            )
    return findings


def check_ambiguity(
    emissions: Sequence[EmissionSite],
    classifiers: Sequence[Tuple[str, Callable[[str], object]]] = CLASSIFIERS,
) -> List[Finding]:
    """SD102 over free-form emissions and the locked-in probe lines."""
    findings: List[Finding] = []
    for site in emissions:
        matches = matching_classifiers(site.rendered, classifiers)
        if len(matches) > 1:
            findings.append(
                make_finding(
                    "SD102",
                    site.path,
                    site.line,
                    f"emission matched by {len(matches)} classifiers "
                    f"({', '.join(matches)}): {site.rendered!r}",
                )
            )
    for probe in AMBIGUITY_PROBES:
        matches = matching_classifiers(probe, classifiers)
        if len(matches) > 1:
            findings.append(
                make_finding(
                    "SD102",
                    _CATALOG_PATH,
                    1,
                    f"fixture line matched by {len(matches)} classifiers "
                    f"({', '.join(matches)}): {probe!r}",
                )
            )
    return findings


def check_id_roundtrip() -> List[Finding]:
    """SD104: container-ID -> application-ID grouping must round-trip."""
    findings: List[Finding] = []
    if msg.APP_ID_RE.fullmatch(SAMPLE_APP_ID) is None:
        findings.append(
            make_finding(
                "SD104",
                _CATALOG_PATH,
                1,
                f"APP_ID_RE rejects the canonical application id "
                f"{SAMPLE_APP_ID!r}",
            )
        )
    for container_id, app_id in ROUNDTRIP_PROBES:
        got = msg.app_id_of_container(container_id)
        if got != app_id:
            findings.append(
                make_finding(
                    "SD104",
                    _CATALOG_PATH,
                    1,
                    f"app_id_of_container({container_id!r}) returned "
                    f"{got!r}, expected {app_id!r}",
                )
            )
    return findings


def analyze(index: ProjectIndex) -> List[Finding]:
    """The full catalog cross-check over the index's modules."""
    machines = index.state_machines
    emissions = extract_emissions(index)
    findings: List[Finding] = []
    findings.extend(check_machine_catalog(machines))
    findings.extend(check_classifier_coverage(machines, emissions))
    findings.extend(check_ambiguity(emissions))
    findings.extend(check_id_roundtrip())
    return findings
