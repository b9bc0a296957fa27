"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.simul.engine import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)


class TestEvent:
    def test_succeed_delivers_value(self, sim):
        ev = sim.event()
        seen = []
        ev.callbacks.append(lambda e: seen.append(e.value))
        ev.succeed(42)
        sim.run()
        assert seen == [42]

    def test_cannot_trigger_twice(self, sim):
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_requires_exception(self, sim):
        with pytest.raises(SimulationError):
            sim.event().fail("not an exception")

    def test_value_before_trigger_raises(self, sim):
        with pytest.raises(SimulationError):
            _ = sim.event().value

    def test_unhandled_failure_propagates_from_run(self, sim):
        sim.event().fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()

    def test_defused_failure_is_silent(self, sim):
        ev = sim.event()
        ev.fail(RuntimeError("boom"))
        ev.defused = True
        sim.run()  # no raise


class TestTimeout:
    def test_fires_at_right_time(self, sim):
        fired = []
        t = sim.timeout(2.5)
        t.callbacks.append(lambda e: fired.append(sim.now))
        sim.run()
        assert fired == [2.5]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_carries_value(self, sim):
        results = []

        def proc():
            value = yield sim.timeout(1.0, value="payload")
            results.append(value)

        sim.process(proc())
        sim.run()
        assert results == ["payload"]


class TestProcess:
    def test_sequential_timeouts_advance_clock(self, sim):
        marks = []

        def proc():
            yield sim.timeout(1.0)
            marks.append(sim.now)
            yield sim.timeout(2.0)
            marks.append(sim.now)

        sim.process(proc())
        sim.run()
        assert marks == [1.0, 3.0]

    def test_return_value_becomes_event_value(self, sim):
        def proc():
            yield sim.timeout(1.0)
            return "done"

        p = sim.process(proc())
        sim.run()
        assert p.value == "done"

    def test_yield_on_already_processed_event(self, sim):
        ev = sim.event()
        ev.succeed("early")
        sim.run()
        results = []

        def proc():
            value = yield ev  # already processed: resume next tick
            results.append(value)

        sim.process(proc())
        sim.run()
        assert results == ["early"]

    def test_exception_in_process_surfaces(self, sim):
        def proc():
            yield sim.timeout(1.0)
            raise ValueError("inside")

        sim.process(proc())
        with pytest.raises(ValueError, match="inside"):
            sim.run()

    def test_waiting_on_failed_event_throws_into_process(self, sim):
        ev = sim.event()
        caught = []

        def proc():
            try:
                yield ev
            except RuntimeError as exc:
                caught.append(str(exc))

        sim.process(proc())
        ev.fail(RuntimeError("bad"))
        sim.run()
        assert caught == ["bad"]

    def test_yielding_non_event_is_an_error(self, sim):
        def proc():
            yield 42

        sim.process(proc())
        with pytest.raises(SimulationError, match="non-event"):
            sim.run()

    def test_interrupt_wakes_process(self, sim):
        log = []

        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupt as i:
                log.append((sim.now, i.cause))

        p = sim.process(sleeper())

        def interrupter():
            yield sim.timeout(3.0)
            p.interrupt("wake up")

        sim.process(interrupter())
        sim.run()
        assert log == [(3.0, "wake up")]

    def test_interrupt_dead_process_is_noop(self, sim):
        def quick():
            yield sim.timeout(0.1)

        p = sim.process(quick())
        sim.run()
        p.interrupt("too late")  # must not raise
        assert not p.is_alive

    def test_process_waiting_on_process(self, sim):
        def inner():
            yield sim.timeout(2.0)
            return 7

        results = []

        def outer():
            value = yield sim.process(inner())
            results.append((sim.now, value))

        sim.process(outer())
        sim.run()
        assert results == [(2.0, 7)]

    def test_non_generator_rejected(self, sim):
        with pytest.raises(SimulationError):
            Process(sim, lambda: None)


class TestConditions:
    def test_all_of_waits_for_all(self, sim):
        marks = []

        def proc():
            yield sim.all_of([sim.timeout(1.0), sim.timeout(5.0), sim.timeout(3.0)])
            marks.append(sim.now)

        sim.process(proc())
        sim.run()
        assert marks == [5.0]

    def test_any_of_fires_on_first(self, sim):
        marks = []

        def proc():
            yield sim.any_of([sim.timeout(4.0), sim.timeout(1.5)])
            marks.append(sim.now)

        sim.process(proc())
        sim.run()
        assert marks == [1.5]

    def test_all_of_empty_fires_immediately(self, sim):
        done = []

        def proc():
            yield sim.all_of([])
            done.append(sim.now)

        sim.process(proc())
        sim.run()
        assert done == [0.0]

    def test_all_of_propagates_failure(self, sim):
        bad = sim.event()
        caught = []

        def proc():
            try:
                yield sim.all_of([sim.timeout(10.0), bad])
            except RuntimeError:
                caught.append(sim.now)

        sim.process(proc())
        bad.fail(RuntimeError("x"))
        sim.run()
        assert caught == [0.0]

    def test_mixed_simulators_rejected(self, sim):
        other = Simulator()
        with pytest.raises(SimulationError):
            AllOf(sim, [sim.timeout(1), other.timeout(1)])


class TestSimulator:
    def test_same_time_events_in_schedule_order(self, sim):
        order = []
        for i in range(5):
            t = sim.timeout(1.0)
            t.callbacks.append(lambda e, i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_run_until_advances_clock_exactly(self, sim):
        sim.timeout(1.0)
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_until_in_past_rejected(self, sim):
        sim.timeout(5.0)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_peek_empty_is_inf(self, sim):
        assert sim.peek() == float("inf")

    def test_call_at(self, sim):
        fired = []
        sim.call_at(4.2, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [4.2]

    def test_call_at_past_rejected(self, sim):
        sim.timeout(5.0)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(1.0, lambda: None)
