"""Tests for the logging state machines (Table I's message sources)."""

import pytest

from repro.logsys.store import LogStore
from repro.simul.engine import SimulationError
from repro.yarn.state_machine import (
    NMContainerStateMachine,
    RMAppStateMachine,
    RMContainerStateMachine,
)


@pytest.fixture
def logger():
    store = LogStore()
    clock = [0.0]
    return store, clock, store.logger("test", lambda: clock[0])


class TestRMAppStateMachine:
    def test_paper_reference_flow(self, logger):
        store, clock, log = logger
        sm = RMAppStateMachine("application_1_0001", log)
        for event in (
            "START",
            "APP_NEW_SAVED",
            "APP_ACCEPTED",
            "ATTEMPT_REGISTERED",
            "ATTEMPT_UNREGISTERED",
            "APP_UPDATE_SAVED",
        ):
            clock[0] += 1.0
            sm.handle(event)
        assert sm.state == "FINISHED"
        states = [
            r.message.split(" to ")[1].split(" on")[0] for r in store.records("test")
        ]
        assert states == [
            "NEW_SAVING",
            "SUBMITTED",
            "ACCEPTED",
            "RUNNING",
            "FINAL_SAVING",
            "FINISHED",
        ]

    def test_log_message_wording(self, logger):
        store, _clock, log = logger
        sm = RMAppStateMachine("application_1_0001", log)
        sm.handle("START")
        msg = store.records("test")[0]
        assert msg.cls.endswith("RMAppImpl")
        assert (
            msg.message
            == "application_1_0001 State change from NEW to NEW_SAVING on event = START"
        )

    def test_invalid_event_rejected(self, logger):
        _store, _clock, log = logger
        sm = RMAppStateMachine("application_1_0001", log)
        with pytest.raises(SimulationError, match="invalid event"):
            sm.handle("ATTEMPT_REGISTERED")  # not valid in NEW


class TestRMContainerStateMachine:
    def test_allocation_flow(self, logger):
        store, _clock, log = logger
        sm = RMContainerStateMachine("container_1_0001_01_000002", log)
        sm.handle("START")
        sm.handle("ACQUIRED")
        sm.handle("LAUNCHED")
        sm.handle("FINISHED")
        assert sm.state == "COMPLETED"
        first = store.records("test")[0]
        assert first.message == (
            "container_1_0001_01_000002 Container Transitioned from NEW to ALLOCATED"
        )

    def test_release_from_allocated(self, logger):
        _store, _clock, log = logger
        sm = RMContainerStateMachine("c", log)
        sm.handle("START")
        sm.handle("RELEASED")
        assert sm.state == "RELEASED"

    def test_release_from_acquired(self, logger):
        _store, _clock, log = logger
        sm = RMContainerStateMachine("c", log)
        sm.handle("START")
        sm.handle("ACQUIRED")
        sm.handle("RELEASED")
        assert sm.state == "RELEASED"


class TestNMContainerStateMachine:
    def test_localization_launch_flow(self, logger):
        store, _clock, log = logger
        sm = NMContainerStateMachine("container_1_0001_01_000002", log)
        sm.handle("INIT_CONTAINER")
        sm.handle("RESOURCE_LOCALIZED")
        sm.handle("CONTAINER_LAUNCHED")
        sm.handle("CONTAINER_EXITED_WITH_SUCCESS")
        sm.handle("CONTAINER_RESOURCES_CLEANEDUP")
        assert sm.state == "DONE"
        messages = [r.message for r in store.records("test")]
        assert messages[0] == (
            "Container container_1_0001_01_000002 transitioned from NEW to LOCALIZING"
        )
        assert "from LOCALIZING to SCHEDULED" in messages[1]
        assert "from SCHEDULED to RUNNING" in messages[2]

    def test_kill_path(self, logger):
        _store, _clock, log = logger
        sm = NMContainerStateMachine("c", log)
        sm.handle("INIT_CONTAINER")
        sm.handle("RESOURCE_LOCALIZED")
        sm.handle("KILL_CONTAINER")
        sm.handle("CONTAINER_RESOURCES_CLEANEDUP")
        assert sm.state == "DONE"

    def test_cannot_launch_before_localized(self, logger):
        _store, _clock, log = logger
        sm = NMContainerStateMachine("c", log)
        sm.handle("INIT_CONTAINER")
        with pytest.raises(SimulationError):
            sm.handle("CONTAINER_LAUNCHED")
