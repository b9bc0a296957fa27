"""Logging state machines for YARN scheduling entities.

Hadoop models every scheduling entity as a state machine and logs every
transition (section III-A) — that is the hook SDchecker exploits.  The
three machines below reproduce the classes, state names, transition
events and message wording of Hadoop 3.0.0-alpha3 closely enough that
SDchecker's regexes (Table I) apply verbatim.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.logsys.store import DaemonLogger
from repro.simul.engine import SimulationError

__all__ = [
    "LoggingStateMachine",
    "RMAppStateMachine",
    "RMContainerStateMachine",
    "NMContainerStateMachine",
]


class LoggingStateMachine:
    """A state machine that logs each transition in Hadoop's wording.

    Subclasses define ``CLS`` (the emitting log4j class name), the
    transition table ``TRANSITIONS`` mapping ``(state, event)`` to the
    next state, and a message template.
    """

    #: log4j class name the transition messages are attributed to.
    CLS: str = ""
    #: (current_state, event) -> next_state
    TRANSITIONS: Dict[Tuple[str, str], str] = {}
    #: initial state
    INITIAL: str = ""
    #: python %-format with keys: entity, old, new, event
    TEMPLATE: str = "%(entity)s State change from %(old)s to %(new)s on event = %(event)s"

    def __init__(self, entity_id: str, logger: DaemonLogger):
        if not self.INITIAL:
            raise SimulationError(f"{type(self).__name__} has no initial state")
        self.entity_id = entity_id
        self.logger = logger
        self.state = self.INITIAL

    def handle(self, event: str) -> str:
        """Apply ``event``; log and return the new state."""
        key = (self.state, event)
        try:
            new = self.TRANSITIONS[key]
        except KeyError:
            raise SimulationError(
                f"{type(self).__name__} {self.entity_id}: invalid event "
                f"{event!r} in state {self.state!r}"
            ) from None
        old, self.state = self.state, new
        self.logger.info(
            self.CLS,
            self.TEMPLATE % {"entity": self.entity_id, "old": old, "new": new, "event": event},
        )
        return new


class RMAppStateMachine(LoggingStateMachine):
    """``RMAppImpl``: the RM's view of one application.

    The paper's reference flow (section III-A)::

        NEW_SAVING -> SUBMITTED -> ACCEPTED -> RUNNING
                   -> FINAL_SAVING -> FINISHED

    where ACCEPTED -> RUNNING fires on ``ATTEMPT_REGISTERED`` — the
    AppMaster's first heartbeat — giving Table I messages 1-3.
    """

    CLS = "org.apache.hadoop.yarn.server.resourcemanager.rmapp.RMAppImpl"
    INITIAL = "NEW"
    TRANSITIONS = {
        ("NEW", "START"): "NEW_SAVING",
        ("NEW_SAVING", "APP_NEW_SAVED"): "SUBMITTED",
        ("SUBMITTED", "APP_ACCEPTED"): "ACCEPTED",
        ("ACCEPTED", "ATTEMPT_REGISTERED"): "RUNNING",
        ("RUNNING", "ATTEMPT_UNREGISTERED"): "FINAL_SAVING",
        ("FINAL_SAVING", "APP_UPDATE_SAVED"): "FINISHED",
    }


class RMContainerStateMachine(LoggingStateMachine):
    """``RMContainerImpl``: the RM's view of one container.

    Table I messages 4 (ALLOCATED) and 5 (ACQUIRED) come from here; the
    interval between them is the *container acquisition delay* bounded
    by the AM-RM heartbeat (Fig 7c).
    """

    CLS = "org.apache.hadoop.yarn.server.resourcemanager.rmcontainer.RMContainerImpl"
    INITIAL = "NEW"
    TEMPLATE = "%(entity)s Container Transitioned from %(old)s to %(new)s"
    TRANSITIONS = {
        ("NEW", "START"): "ALLOCATED",
        ("ALLOCATED", "ACQUIRED"): "ACQUIRED",
        ("ACQUIRED", "LAUNCHED"): "RUNNING",
        ("RUNNING", "FINISHED"): "COMPLETED",
        # Containers the AM never picks up / never launches (the
        # SPARK-21562 over-request bug leaves some here).
        ("ALLOCATED", "RELEASED"): "RELEASED",
        ("ACQUIRED", "RELEASED"): "RELEASED",
        # Forced kills: scheduler preemption or node loss takes the
        # container away from the application (Table I′ extension).
        ("ALLOCATED", "KILL"): "KILLED",
        ("ACQUIRED", "KILL"): "KILLED",
        ("RUNNING", "KILL"): "KILLED",
    }


class NMContainerStateMachine(LoggingStateMachine):
    """``ContainerImpl``: the NodeManager's view of one container.

    Table I messages 6-8: LOCALIZING -> SCHEDULED measures localization
    (Fig 8); SCHEDULED -> RUNNING measures launching (Fig 9) and, for
    opportunistic containers queued at the NM, the queueing delay
    (Fig 7b).  Hadoop 3 renamed LOCALIZED to SCHEDULED to model exactly
    that NM-side queue — which is why the paper reads the queueing delay
    off the same transition.
    """

    CLS = "org.apache.hadoop.yarn.server.nodemanager.containermanager.container.ContainerImpl"
    INITIAL = "NEW"
    TEMPLATE = "Container %(entity)s transitioned from %(old)s to %(new)s"
    TRANSITIONS = {
        ("NEW", "INIT_CONTAINER"): "LOCALIZING",
        ("LOCALIZING", "RESOURCE_LOCALIZED"): "SCHEDULED",
        ("SCHEDULED", "CONTAINER_LAUNCHED"): "RUNNING",
        ("RUNNING", "CONTAINER_EXITED_WITH_SUCCESS"): "EXITED_WITH_SUCCESS",
        ("EXITED_WITH_SUCCESS", "CONTAINER_RESOURCES_CLEANEDUP"): "DONE",
        ("LOCALIZING", "KILL_CONTAINER"): "KILLING",
        ("SCHEDULED", "KILL_CONTAINER"): "KILLING",
        ("RUNNING", "KILL_CONTAINER"): "KILLING",
        ("KILLING", "CONTAINER_RESOURCES_CLEANEDUP"): "DONE",
    }
