"""Table I: the identified log messages and their extraction regexes.

SDchecker owns these patterns independently of the simulator — exactly
as the real tool owns regexes for logs produced by Hadoop and Spark
binaries it does not share code with.  The patterns target the stock
log4j wording of Hadoop 3.0.0-alpha3 / Spark 2.2.0 plus the two
SDCHECKER marker lines the paper adds to Spark's YarnAllocator
(messages 11 and 12).
"""

from __future__ import annotations

import re
from typing import Dict, Optional, Tuple

from repro.core.events import EventKind

__all__ = [
    "APP_ID_RE",
    "CONTAINER_ID_RE",
    "CONTAINER_LINE_PATTERN",
    "CONTAINER_LINE_PREFIXES",
    "NM_CONTAINER_LINE_PREFIX",
    "RM_APP_LINE_PREFIX",
    "RM_CONTAINER_LINE_PREFIX",
    "app_id_of_container",
    "catalog_states",
    "classify_rm_app_line",
    "classify_rm_container_line",
    "classify_nm_container_line",
    "classify_container_line",
    "classify_driver_line",
    "classify_first_task_line",
    "classify_mr_task_done_line",
    "instance_type_of_class",
]

#: Global-ID shapes (section III-C: "we group these workflows based on
#: their global IDs, such as application ID and container IDs").
APP_ID_RE = re.compile(r"application_\d+_\d{4,}")
#: The attempt-id segment is at least two digits: Hadoop renders it
#: %02d, so attempt 100 of a long-running recurring app widens the
#: field rather than truncating it (the §V-B JVM-reuse scenario).
CONTAINER_ID_RE = re.compile(r"container_(?:e\d+_)?(\d+)_(\d{4,})_\d{2,}_\d{6}")

_RMAPP_RE = re.compile(
    r"^(?P<app>application_\d+_\d{4,}) State change from "
    r"(?P<old>[A-Z_]+) to (?P<new>[A-Z_]+) on event = (?P<event>[A-Z_]+)$"
)
_RMCONTAINER_RE = re.compile(
    r"^(?P<container>container_\S+) Container Transitioned from "
    r"(?P<old>[A-Z_]+) to (?P<new>[A-Z_]+)$"
)
_NMCONTAINER_RE = re.compile(
    r"^Container (?P<container>container_\S+) transitioned from "
    r"(?P<old>[A-Z_]+) to (?P<new>[A-Z_]+)$"
)
_DRIVER_REGISTER_RE = re.compile(
    r"^Registered ApplicationMaster for (?P<app>application_\d+_\d{4,})\b"
)
_START_ALLO_RE = re.compile(
    r"^SDCHECKER START_ALLO\b.*?(?P<app>application_\d+_\d{4,})"
)
_END_ALLO_RE = re.compile(
    r"^SDCHECKER END_ALLO\b.*?(?P<app>application_\d+_\d{4,})"
)
_FIRST_TASK_RE = re.compile(r"^Got assigned task (?P<task>\d+)$")
_MR_TASK_DONE_RE = re.compile(r"^Task attempt_\d+_\d+_[mr]_\d+_\d+ is done$")

#: Literal prefixes of every delay-relevant line of each stream type.
#: A daemon-log line not starting with its stream's prefix cannot match
#: any Table I classifier, so the miner's hot loop rejects it with one
#: C-level ``str.startswith`` instead of a cascade of regex attempts.
RM_APP_LINE_PREFIX = "application_"
RM_CONTAINER_LINE_PREFIX = "container_"
NM_CONTAINER_LINE_PREFIX = "Container container_"
CONTAINER_LINE_PREFIXES = (
    "Registered ApplicationMaster for ",
    "SDCHECKER ",
    "Got assigned task ",
    "Task attempt_",
)

#: Single-pass alternation over every container-log classifier
#: (messages 10-12, 14 and the MR task-done line).  Branch order mirrors
#: the cascade in :func:`classify_driver_line` /
#: :func:`classify_first_task_line` / :func:`classify_mr_task_done_line`;
#: the branches are mutually exclusive (distinct literal heads), so one
#: ``match`` is equivalent to trying all five regexes in order.  The
#: directory miner compiles the same source as bytes, to leave every
#: other container line to its bulk scan (``$`` then needs MULTILINE).
CONTAINER_LINE_PATTERN = (
    r"(?:"
    r"Registered ApplicationMaster for (?P<reg_app>application_\d+_\d{4,})\b"
    r"|SDCHECKER (?P<marker>START_ALLO|END_ALLO)\b.*?(?P<marker_app>application_\d+_\d{4,})"
    r"|Got assigned task (?P<task>\d+)$"
    r"|Task (?P<mr_done>attempt_\d+_\d+_[mr]_\d+_\d+) is done$"
    r")"
)
_CONTAINER_LINE_RE = re.compile("^" + CONTAINER_LINE_PATTERN)

#: RMAppImpl new-state -> event kind (messages 1-3 + job end).
_RMAPP_STATES = {
    "SUBMITTED": EventKind.APP_SUBMITTED,
    "ACCEPTED": EventKind.APP_ACCEPTED,
    "RUNNING": EventKind.APP_ATTEMPT_REGISTERED,
    "FINISHED": EventKind.APP_FINISHED,
}

#: RMContainerImpl new-state -> event kind (messages 4-5 + lifecycle).
_RMCONTAINER_STATES = {
    "ALLOCATED": EventKind.CONTAINER_ALLOCATED,
    "ACQUIRED": EventKind.CONTAINER_ACQUIRED,
    "RUNNING": EventKind.CONTAINER_RM_RUNNING,
    "COMPLETED": EventKind.CONTAINER_RM_COMPLETED,
    "RELEASED": EventKind.CONTAINER_RELEASED,
    # Table I′ extension: forced kills (preemption / node loss).
    "KILLED": EventKind.CONTAINER_PREEMPTED,
}

#: ContainerImpl new-state -> event kind (messages 6-8).
_NMCONTAINER_STATES = {
    "LOCALIZING": EventKind.CONTAINER_LOCALIZING,
    "SCHEDULED": EventKind.CONTAINER_SCHEDULED,
    "RUNNING": EventKind.CONTAINER_NM_RUNNING,
    # Table I′ extension: the NM acknowledging a forced kill.
    "KILLING": EventKind.CONTAINER_NM_KILLED,
}

#: First-log class substrings -> Fig 9a instance-type code.
_INSTANCE_CLASSES = (
    ("spark.deploy.yarn.ApplicationMaster", "spm"),
    ("spark.executor.CoarseGrainedExecutorBackend", "spe"),
    ("mapreduce.v2.app.MRAppMaster", "mrm"),
    ("hadoop.mapred.YarnChild", "mrs"),  # map/reduce child; refined by caller
)


def catalog_states() -> Dict[str, Dict[str, EventKind]]:
    """The delay-relevant new-state tables, keyed by state-machine class.

    This is the checker side of the simulator/checker contract that
    ``repro.analysis`` (sdlint) cross-checks statically: a transition
    entering one of these states must render a line matched by exactly
    one classifier above.
    """
    return {
        "RMAppImpl": dict(_RMAPP_STATES),
        "RMContainerImpl": dict(_RMCONTAINER_STATES),
        "ContainerImpl": dict(_NMCONTAINER_STATES),
    }


def app_id_of_container(container_id: str) -> Optional[str]:
    """Derive the owning application ID from a container ID.

    The container ID embeds the cluster timestamp and application
    sequence number — the structural link SDchecker uses to group
    container workflows under their application.
    """
    m = CONTAINER_ID_RE.match(container_id)
    if m is None:
        return None
    return f"application_{m.group(1)}_{m.group(2)}"


def classify_rm_app_line(message: str) -> Optional[Tuple[EventKind, str]]:
    """(kind, app_id) for an RMAppImpl transition line, if relevant."""
    m = _RMAPP_RE.match(message)
    if m is None:
        return None
    kind = _RMAPP_STATES.get(m["new"])
    if kind is None:
        return None
    return kind, m["app"]


def classify_rm_container_line(message: str) -> Optional[Tuple[EventKind, str]]:
    """(kind, container_id) for an RMContainerImpl transition line."""
    m = _RMCONTAINER_RE.match(message)
    if m is None:
        return None
    kind = _RMCONTAINER_STATES.get(m["new"])
    if kind is None:
        return None
    return kind, m["container"]


def classify_nm_container_line(message: str) -> Optional[Tuple[EventKind, str]]:
    """(kind, container_id) for a NodeManager ContainerImpl line."""
    m = _NMCONTAINER_RE.match(message)
    if m is None:
        return None
    kind = _NMCONTAINER_STATES.get(m["new"])
    if kind is None:
        return None
    return kind, m["container"]


def classify_driver_line(message: str) -> Optional[Tuple[EventKind, str]]:
    """(kind, app_id) for driver-log registration/allocation markers."""
    for regex, kind in (
        (_DRIVER_REGISTER_RE, EventKind.DRIVER_REGISTERED),
        (_START_ALLO_RE, EventKind.START_ALLO),
        (_END_ALLO_RE, EventKind.END_ALLO),
    ):
        m = regex.search(message)
        if m is not None:
            return kind, m["app"]
    return None


def classify_container_line(
    message: str,
) -> Optional[Tuple[EventKind, Optional[str]]]:
    """Single-pass classification of a container-log line.

    Returns ``(kind, app_id)`` — ``app_id`` is None for the positional
    FIRST_TASK / MR_TASK_DONE lines, which bind through their stream's
    container ID instead.  Agrees line-for-line with the cascaded
    :func:`classify_driver_line` → :func:`classify_first_task_line` →
    :func:`classify_mr_task_done_line` battery (the catalog contract
    sdlint checks), but costs one literal prefix test plus at most one
    regex match.
    """
    if not message.startswith(CONTAINER_LINE_PREFIXES):
        return None
    m = _CONTAINER_LINE_RE.match(message)
    if m is None:
        return None
    if m["task"] is not None:
        return EventKind.FIRST_TASK, None
    if m["mr_done"] is not None:
        return EventKind.MR_TASK_DONE, None
    if m["reg_app"] is not None:
        return EventKind.DRIVER_REGISTERED, m["reg_app"]
    kind = EventKind.START_ALLO if m["marker"] == "START_ALLO" else EventKind.END_ALLO
    return kind, m["marker_app"]


def classify_first_task_line(message: str) -> bool:
    """True for an executor "Got assigned task N" line (message 14)."""
    return _FIRST_TASK_RE.match(message) is not None


def classify_mr_task_done_line(message: str) -> bool:
    """True for a MapReduce child's task-completion line."""
    return _MR_TASK_DONE_RE.match(message) is not None


def instance_type_of_class(cls: str) -> Optional[str]:
    """Fig 9a instance-type code from a first-log emitting class."""
    for needle, code in _INSTANCE_CLASSES:
        if needle in cls:
            return code
    return None
