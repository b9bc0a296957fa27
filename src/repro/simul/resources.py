"""Shared-resource models for the simulation kernel.

Three primitives cover everything the cluster substrate needs:

* :class:`Resource` — a counted FIFO semaphore (container slots, thread
  pools, disk queue depth).
* :class:`Store` — an unbounded FIFO queue of items (message queues,
  NodeManager launch queues).
* :class:`FairShareResource` — a processor-sharing server used for both
  network links and disks (capacity in bytes/s, jobs are transfers) and
  CPU run-queues (capacity in cores, jobs are core-second work items).
  When demand exceeds capacity every job is slowed proportionally, which
  is exactly the contention behaviour behind the paper's IO- and
  CPU-interference experiments (Figs 12 and 13).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.simul.engine import Event, SimulationError, Simulator

__all__ = ["Request", "Resource", "Store", "FairShareResource", "FlowHandle"]


class Request(Event):
    """Grant event for a :class:`Resource` acquisition."""

    __slots__ = ("amount",)

    def __init__(self, resource: "Resource", amount: int):
        super().__init__(resource.sim)
        self.amount = amount


class Resource:
    """A counted semaphore with FIFO granting.

    Usage from a process generator::

        req = res.request()
        yield req
        ...  # critical section
        res.release(req)
    """

    def __init__(self, sim: Simulator, capacity: int):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiting: deque[Request] = deque()

    @property
    def in_use(self) -> int:
        """Units currently granted."""
        return self._in_use

    @property
    def available(self) -> int:
        """Units free right now."""
        return self.capacity - self._in_use

    @property
    def queue_length(self) -> int:
        """Number of ungranted requests."""
        return len(self._waiting)

    def request(self, amount: int = 1) -> Request:
        """Ask for ``amount`` units; the returned event fires on grant."""
        if amount < 1 or amount > self.capacity:
            raise SimulationError(
                f"request of {amount} units on resource of capacity {self.capacity}"
            )
        req = Request(self, amount)
        self._waiting.append(req)
        self._dispatch()
        return req

    def release(self, request: Request) -> None:
        """Return the units granted to ``request``."""
        if not request.triggered:
            # Cancelled before grant: drop from the wait queue.
            try:
                self._waiting.remove(request)
            except ValueError:
                raise SimulationError("release of unknown request") from None
            return
        self._in_use -= request.amount
        if self._in_use < 0:
            raise SimulationError("resource released more than acquired")
        self._dispatch()

    def _dispatch(self) -> None:
        while self._waiting and self._waiting[0].amount <= self.available:
            req = self._waiting.popleft()
            self._in_use += req.amount
            req.succeed(req)


class Store:
    """An unbounded FIFO queue with blocking ``get``."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._items: deque = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Enqueue ``item``, waking the oldest blocked getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """An event that fires with the next available item."""
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev


class FlowHandle:
    """Bookkeeping for one active job on a :class:`FairShareResource`."""

    __slots__ = ("work", "demand", "done", "started_at")

    def __init__(self, work: float, demand: float, done: Event, started_at: float):
        #: Remaining work (bytes, or core-seconds).
        self.work = work
        #: Maximum service rate this job can absorb (bytes/s or cores).
        self.demand = demand
        #: Completion event.
        self.done = done
        #: Simulation time the job entered service.
        self.started_at = started_at


class FairShareResource:
    """A processor-sharing server with per-job demand caps.

    ``capacity`` is the total service rate.  Each active job ``i`` has a
    demand ``d_i`` (its maximum rate) and receives

        rate_i = d_i                       when sum(d) <= capacity
        rate_i = d_i * capacity / sum(d)   otherwise

    i.e. proportional throttling under overload.  This models both a
    bandwidth-shared NIC/disk (jobs = transfers, demand = per-flow cap)
    and a CPU run-queue (jobs = compute bursts, demand = cores wanted,
    work measured in core-seconds).

    Implementation: on every membership change we advance all remaining
    work by the elapsed time at the old rates, recompute rates, and
    schedule a completion wake-up for the earliest-finishing job.  Stale
    wake-ups are invalidated with a generation counter: each wake-up is
    an event whose value is the generation it was scheduled in.
    """

    def __init__(self, sim: Simulator, capacity: float, name: str = ""):
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = float(capacity)
        self.name = name
        self._flows: list[FlowHandle] = []
        #: ``sum`` of the active flows' demands, recomputed whenever
        #: ``_flows`` changes (never adjusted incrementally, so it is
        #: the same float a fresh sum would give).
        self._total_demand: float = 0
        self._last_update = 0.0
        self._generation = 0

    # -- public API ------------------------------------------------------
    @property
    def active_jobs(self) -> int:
        """Number of jobs currently in service."""
        return len(self._flows)

    @property
    def total_demand(self) -> float:
        """Sum of demand across active jobs."""
        return self._total_demand

    def utilization(self) -> float:
        """Fraction of capacity in use right now (0..1)."""
        return min(1.0, self.total_demand / self.capacity)

    def slowdown(self) -> float:
        """Current throttling factor (1.0 = no contention)."""
        demand = self.total_demand
        return max(1.0, demand / self.capacity)

    def submit(self, work: float, demand: Optional[float] = None) -> Event:
        """Start a job of ``work`` units; returns its completion event.

        ``demand`` defaults to the full capacity (the job can absorb the
        entire server when alone).
        """
        if work < 0:
            raise SimulationError(f"negative work {work!r}")
        if demand is None:
            demand = self.capacity
        if demand <= 0:
            raise SimulationError(f"demand must be positive, got {demand}")
        sim = self.sim
        done = Event(sim)
        if work == 0:
            done.succeed(0.0)
            return done
        self._advance()
        flows = self._flows
        flows.append(FlowHandle(work, float(demand), done, sim._now))
        self._total_demand = sum([f.demand for f in flows])
        self._reschedule()
        return done

    def estimated_rate(self, demand: Optional[float] = None) -> float:
        """Rate a new job with ``demand`` would get if submitted now."""
        if demand is None:
            demand = self.capacity
        total = self.total_demand + demand
        if total <= self.capacity:
            return demand
        return demand * self.capacity / total

    # -- internals -------------------------------------------------------
    # A flow's rate is ``flow.demand`` when ``total <= capacity`` and
    # ``flow.demand * capacity / total`` otherwise.  _advance and
    # _reschedule spell it out inline, always in that operation order:
    # work and ETA floats become rendered log timestamps, so reordering
    # the arithmetic can move a logged millisecond.  A reference test in
    # tests/test_simul_resources.py pins the results bit for bit.

    def _advance(self) -> None:
        """Charge elapsed time against every active flow and complete
        those whose work reached zero."""
        now = self.sim._now
        dt = now - self._last_update
        self._last_update = now
        flows = self._flows
        if dt <= 0 or not flows:
            return
        total = self._total_demand
        cap = self.capacity
        # The tolerance must absorb FP error of work/rate round-trips on
        # byte-scale work (~1e-7 absolute); 1e-6 units is < 1 ns of
        # service for any realistic rate.
        finished = []
        if total <= cap:
            for flow in flows:
                flow.work -= flow.demand * dt
                if flow.work <= 1e-6:
                    finished.append(flow)
        else:
            for flow in flows:
                flow.work -= flow.demand * cap / total * dt
                if flow.work <= 1e-6:
                    finished.append(flow)
        if finished:
            self._flows = flows = [f for f in flows if f.work > 1e-6]
            self._total_demand = sum([f.demand for f in flows])
            for flow in finished:
                flow.done.succeed(now - flow.started_at)

    def _reschedule(self) -> None:
        """Schedule a wake-up at the earliest projected completion."""
        self._generation += 1
        flows = self._flows
        if not flows:
            return
        total = self._total_demand
        cap = self.capacity
        if total <= cap:
            eta = min([f.work / f.demand for f in flows])
        else:
            eta = min([f.work / (f.demand * cap / total) for f in flows])
        # Floor at 1 ns: an ETA below the float ULP of `now` would
        # schedule a wake-up at the same timestamp forever.
        eta = max(eta, 1e-9)
        # The delay is ``when - now`` for ``when = now + eta``, the heap
        # time ``call_at`` would push (see DESIGN.md).
        sim = self.sim
        now = sim._now
        wakeup = Event(sim)
        wakeup.callbacks.append(self._on_wakeup)
        wakeup.succeed(self._generation, delay=(now + eta) - now)

    def _on_wakeup(self, wakeup: Event) -> None:
        if wakeup._value != self._generation:
            return  # stale: membership changed since this was scheduled
        self._advance()
        self._reschedule()
