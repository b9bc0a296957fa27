"""Generator-based discrete-event simulation kernel.

The kernel follows the classic event-loop design: a binary heap of
``(time, sequence, event)`` entries, an ``Event`` type with
success/failure payloads and callback lists, and a ``Process`` type that
drives a Python generator by resuming it with the value of whatever event
it last yielded.

Determinism: events scheduled for the same timestamp are processed in
schedule order (the monotonically increasing sequence number breaks
ties), so a simulation with a fixed random seed replays identically.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "SimulationError",
    "Interrupt",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Simulator",
]

#: Sentinel for "no value yet".
_PENDING = object()


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value supplied by the
    interrupting party.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence with a value or an exception payload.

    Lifecycle: *pending* -> *triggered* (scheduled on the heap) ->
    *processed* (callbacks ran).  Processes wait on events by yielding
    them; an event that fails propagates its exception into every
    waiting process unless marked :attr:`defused`.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        #: Callbacks invoked with this event once it is processed, or
        #: ``None`` after processing.
        self.callbacks: Optional[list] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        #: Set to True when a failure has been handled and should not be
        #: re-raised by the simulator at the end of the run.
        self.defused = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only when triggered)."""
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """Payload of the event (the exception object for failures)."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering ----------------------------------------------------
    # succeed, fail and Timeout push onto the heap themselves: they run
    # once per simulated event, so each saves a call.

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Mark the event successful and schedule its callbacks."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if delay < 0:
            raise SimulationError(f"cannot schedule event in the past (delay={delay})")
        self._value = value
        self._ok = True
        sim = self.sim
        heappush(sim._heap, (sim._now + delay, next(sim._seq), self))
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Mark the event failed; waiting processes receive ``exc``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if delay < 0:
            raise SimulationError(f"cannot schedule event in the past (delay={delay})")
        self._value = exc
        self._ok = False
        sim = self.sim
        heappush(sim._heap, (sim._now + delay, next(sim._seq), self))
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        # Event.__init__'s fields, set here with the value it would
        # leave pending: one Timeout is built per simulated wait.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self.defused = False
        heappush(sim._heap, (sim._now + delay, next(sim._seq), self))


class Process(Event):
    """Drives a generator; doubles as the process-termination event.

    The generator may yield any :class:`Event`; the process resumes with
    the event's value when it fires (or has the exception thrown in for
    failed events).  The process event itself succeeds with the
    generator's return value.
    """

    __slots__ = ("name", "_generator", "_target", "_wake")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(sim)
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        #: Event this process is currently waiting on (None when running).
        self._target: Optional[Event] = None
        #: ``self._resume``, bound once: the callback this process
        #: leaves on every event it waits on.
        self._wake = self._resume
        # Kick off the generator at the current simulation time.
        init = Event(sim)
        init.callbacks.append(self._wake)
        init.succeed(None)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point."""
        if not self.is_alive:
            return
        target = self._target
        # Detach from the event we were waiting on so its eventual firing
        # does not resume us a second time.
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._wake)
            except ValueError:
                pass
        self._target = None
        wakeup = Event(self.sim)
        wakeup.callbacks.append(self._wake)
        wakeup.fail(Interrupt(cause))
        wakeup.defused = True

    # -- internal ------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        self._target = None
        try:
            if event._ok:
                result = self._generator.send(event._value)
            else:
                event.defused = True
                result = self._generator.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return

        if not isinstance(result, Event):
            # Misbehaving generator: surface a clear error inside it.
            wakeup = Event(self.sim)
            wakeup.callbacks.append(self._wake)
            wakeup.fail(
                SimulationError(
                    f"process {self.name!r} yielded non-event {result!r}"
                )
            )
            wakeup.defused = True
            return

        callbacks = result.callbacks
        if callbacks is not None:
            callbacks.append(self._wake)
            self._target = result
            return
        # Already processed: resume immediately (next tick, delay 0).
        wakeup = Event(self.sim)
        wakeup.callbacks.append(self._wake)
        if result._ok:
            wakeup.succeed(result._value)
        else:
            result.defused = True
            wakeup.fail(result._value)
            wakeup.defused = True


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._count = 0
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("cannot mix events from different simulators")
        # Register after validating everything.
        for ev in self.events:
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)
        if not self.events and not self.triggered:
            self.succeed({})

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    def _collect(self) -> dict:
        # Only *processed* constituents belong in the result: a Timeout
        # is "triggered" from birth (its value is pre-set) but has not
        # occurred until its callbacks ran.
        return {ev: ev._value for ev in self.events if ev.processed}


class AllOf(_Condition):
    """Fires when every constituent event has fired.

    Succeeds with a dict mapping each event to its value; fails as soon
    as any constituent fails.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Fires when the first constituent event fires."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self.succeed(self._collect())


class Simulator:
    """The event loop: a clock and a heap of scheduled events."""

    def __init__(self):
        self._now: float = 0.0
        self._heap: list = []
        self._seq = count()

    # -- clock ---------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event factories ------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Launch ``generator`` as a simulation process."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def call_at(self, when: float, fn: Callable[[], None]) -> Event:
        """Invoke ``fn`` (a plain callable) at absolute time ``when``."""
        if when < self._now:
            raise SimulationError(f"call_at({when}) is in the past (now={self._now})")
        ev = Event(self)
        ev.callbacks.append(lambda _ev: fn())
        ev.succeed(None, delay=when - self._now)
        return ev

    # -- execution -------------------------------------------------------
    def step(self) -> None:
        """Process exactly one event from the heap."""
        when, _seq, event = heappop(self._heap)
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        for cb in callbacks:
            cb(event)
        if not event._ok and not event.defused:
            raise event._value

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when idle."""
        return self._heap[0][0] if self._heap else float("inf")

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains or the clock reaches ``until``.

        When ``until`` is given the clock is advanced to exactly that
        time even if the last event fires earlier.
        """
        if until is not None and until < self._now:
            raise SimulationError(f"run(until={until}) is in the past (now={self._now})")
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                break
            self.step()
        if until is not None:
            self._now = max(self._now, until)
