"""Unit + property tests for Resource, Store and FairShareResource."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.simul.engine import Event, SimulationError, Simulator
from repro.simul.resources import FairShareResource, FlowHandle, Resource, Store


class TestResource:
    def test_grants_up_to_capacity_immediately(self, sim):
        res = Resource(sim, capacity=2)
        r1, r2 = res.request(), res.request()
        sim.run()
        assert r1.processed and r2.processed
        assert res.in_use == 2 and res.available == 0

    def test_excess_requests_queue_fifo(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def user(name, hold):
            req = res.request()
            yield req
            order.append((name, sim.now))
            yield sim.timeout(hold)
            res.release(req)

        sim.process(user("a", 2.0))
        sim.process(user("b", 1.0))
        sim.process(user("c", 1.0))
        sim.run()
        assert order == [("a", 0.0), ("b", 2.0), ("c", 3.0)]

    def test_multi_unit_requests(self, sim):
        res = Resource(sim, capacity=4)
        big = res.request(3)
        small = res.request(2)  # must wait: only 1 free
        sim.run()
        assert big.processed and not small.triggered
        res.release(big)
        sim.run()
        assert small.processed

    def test_request_larger_than_capacity_rejected(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, capacity=2).request(3)

    def test_cancel_ungranted_request(self, sim):
        res = Resource(sim, capacity=1)
        held = res.request()
        waiting = res.request()
        sim.run()
        res.release(waiting)  # cancel while queued
        assert res.queue_length == 0
        res.release(held)
        assert res.available == 1

    def test_over_release_detected(self, sim):
        res = Resource(sim, capacity=1)
        req = res.request()
        sim.run()
        res.release(req)
        with pytest.raises(SimulationError):
            res.release(req)

    def test_zero_capacity_rejected(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, capacity=0)


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("x")
        got = store.get()
        assert got.triggered and got.value == "x"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        results = []

        def consumer():
            item = yield store.get()
            results.append((sim.now, item))

        sim.process(consumer())

        def producer():
            yield sim.timeout(3.0)
            store.put("late")

        sim.process(producer())
        sim.run()
        assert results == [(3.0, "late")]

    def test_fifo_ordering_of_items_and_getters(self, sim):
        store = Store(sim)
        results = []

        def consumer(name):
            item = yield store.get()
            results.append((name, item))

        sim.process(consumer("c1"))
        sim.process(consumer("c2"))
        store.put(1)
        store.put(2)
        sim.run()
        assert results == [("c1", 1), ("c2", 2)]

    def test_len_counts_buffered_items(self, sim):
        store = Store(sim)
        store.put("a")
        store.put("b")
        assert len(store) == 2


class TestFairShareResource:
    def test_single_job_runs_at_full_capacity(self, sim):
        res = FairShareResource(sim, 100.0)
        done = res.submit(250.0)
        sim.run()
        assert done.processed
        assert sim.now == pytest.approx(2.5)

    def test_two_equal_jobs_share_evenly(self, sim):
        res = FairShareResource(sim, 100.0)
        d1 = res.submit(100.0)
        d2 = res.submit(100.0)
        sim.run()
        # Both at 50/s: both finish at t=2.
        assert d1.value == pytest.approx(2.0)
        assert d2.value == pytest.approx(2.0)

    def test_demand_cap_limits_uncontended_rate(self, sim):
        res = FairShareResource(sim, 100.0)
        res.submit(50.0, demand=10.0)
        sim.run()
        assert sim.now == pytest.approx(5.0)

    def test_staggered_arrival_slows_first_job(self, sim):
        res = FairShareResource(sim, 100.0)
        marks = {}

        def job(name, work, start):
            yield sim.timeout(start)
            yield res.submit(work)
            marks[name] = sim.now

        sim.process(job("a", 100.0, 0.0))
        sim.process(job("b", 100.0, 0.5))
        sim.run()
        # a: 50 done alone by 0.5, then shares -> finishes at 1.5.
        assert marks["a"] == pytest.approx(1.5)
        assert marks["b"] == pytest.approx(2.0)

    def test_zero_work_completes_instantly(self, sim):
        res = FairShareResource(sim, 10.0)
        done = res.submit(0.0)
        assert done.triggered

    def test_slowdown_reports_oversubscription(self, sim):
        res = FairShareResource(sim, 10.0)
        res.submit(1000.0, demand=10.0)
        res.submit(1000.0, demand=20.0)
        assert res.slowdown() == pytest.approx(3.0)

    def test_negative_work_rejected(self, sim):
        with pytest.raises(SimulationError):
            FairShareResource(sim, 10.0).submit(-1.0)

    def test_tiny_residual_work_terminates(self, sim):
        # Regression: FP residue used to livelock the wake-up loop.
        res = FairShareResource(sim, 524288000.0)  # 500 MB/s
        for _ in range(3):
            res.submit(524288000.0 / 3)
        sim.run()
        assert res.active_jobs == 0
        assert sim.now < 10.0

    @settings(max_examples=30, deadline=None)
    @given(
        works=st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=1, max_size=6),
        capacity=st.floats(min_value=1.0, max_value=1e3),
    )
    def test_work_conservation(self, works, capacity):
        """Total service time >= total work / capacity (no free lunch),
        and every job completes."""
        sim = Simulator()
        res = FairShareResource(sim, capacity)
        done = [res.submit(w) for w in works]
        sim.run()
        assert all(d.processed for d in done)
        assert sim.now >= sum(works) / capacity - 1e-6

    @settings(max_examples=30, deadline=None)
    @given(
        work=st.floats(min_value=1.0, max_value=1e4),
        n_competitors=st.integers(min_value=0, max_value=8),
    )
    def test_contention_never_speeds_up(self, work, n_competitors):
        """A job with competitors finishes no earlier than alone."""

        def run(n):
            sim = Simulator()
            res = FairShareResource(sim, 100.0)
            target = res.submit(work)
            for _ in range(n):
                res.submit(work)
            while not target.triggered:
                sim.step()
            return target.value

        assert run(n_competitors) >= run(0) - 1e-9


class _ReferenceFairShare:
    """The plain form of FairShareResource: a fresh ``sum`` of demand and
    a ``_rate`` call per flow on every membership change.  The
    production class caches the sum and inlines the rate; it must agree
    with this bit for bit, since its floats become log timestamps."""

    def __init__(self, sim, capacity):
        self.sim = sim
        self.capacity = float(capacity)
        self._flows = []
        self._last_update = 0.0
        self._generation = 0

    @property
    def active_jobs(self):
        return len(self._flows)

    @property
    def total_demand(self):
        return sum(f.demand for f in self._flows)

    def utilization(self):
        return min(1.0, self.total_demand / self.capacity)

    def slowdown(self):
        demand = self.total_demand
        return max(1.0, demand / self.capacity)

    def submit(self, work, demand=None):
        if work < 0:
            raise SimulationError(f"negative work {work!r}")
        if demand is None:
            demand = self.capacity
        if demand <= 0:
            raise SimulationError(f"demand must be positive, got {demand}")
        done = Event(self.sim)
        if work == 0:
            done.succeed(0.0)
            return done
        self._advance()
        self._flows.append(FlowHandle(work, float(demand), done, self.sim.now))
        self._reschedule()
        return done

    def estimated_rate(self, demand=None):
        if demand is None:
            demand = self.capacity
        total = self.total_demand + demand
        if total <= self.capacity:
            return demand
        return demand * self.capacity / total

    def _rate(self, flow, total_demand):
        if total_demand <= self.capacity:
            return flow.demand
        return flow.demand * self.capacity / total_demand

    def _advance(self):
        now = self.sim.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0 or not self._flows:
            return
        total = self.total_demand
        for flow in self._flows:
            flow.work -= self._rate(flow, total) * dt
        finished = [f for f in self._flows if f.work <= 1e-6]
        if finished:
            self._flows = [f for f in self._flows if f.work > 1e-6]
            for flow in finished:
                flow.done.succeed(now - flow.started_at)

    def _reschedule(self):
        self._generation += 1
        if not self._flows:
            return
        gen = self._generation
        total = self.total_demand
        eta = min(f.work / self._rate(f, total) for f in self._flows)
        eta = max(eta, 1e-9)
        self.sim.call_at(self.sim.now + eta, lambda: self._on_wakeup(gen))

    def _on_wakeup(self, generation):
        if generation != self._generation:
            return
        self._advance()
        self._reschedule()


def _drive(resource_cls, capacity, jobs):
    """Run ``jobs`` (submit time, seconds of work at full capacity,
    demand as a fraction of capacity or None) through one resource and
    return everything observable, in the order it was observed."""
    sim = Simulator()
    res = resource_cls(sim, capacity)
    trace = []

    def observe(tag):
        trace.append((
            tag, sim.now, res.active_jobs, res.total_demand, res.slowdown(),
            res.utilization(), res.estimated_rate(), res.estimated_rate(capacity / 3),
        ))

    def submit(index, seconds, demand_share):
        demand = None if demand_share is None else demand_share * capacity
        done = res.submit(seconds * capacity, demand)
        observe(("submit", index))

        def completed(ev):
            trace.append(("done", index, ev.value, sim.now))
            observe(("after", index))

        done.callbacks.append(completed)

    for index, (at, seconds, demand_share) in enumerate(jobs):
        sim.call_at(at, lambda i=index, s=seconds, d=demand_share: submit(i, s, d))
    sim.run()
    return trace


_submit_times = st.one_of(
    st.integers(min_value=0, max_value=10).map(float),  # simultaneous arrivals
    st.floats(min_value=0.0, max_value=50.0),
)


class TestFairShareMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(
        capacity=st.one_of(
            st.floats(min_value=1.0, max_value=64.0),  # cores
            st.floats(min_value=1e6, max_value=1.25e9),  # bytes/s
        ),
        jobs=st.lists(
            st.tuples(
                _submit_times,
                st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=100.0)),
                # None is "the whole capacity"; shares above 1/n of it overload.
                st.one_of(st.none(), st.floats(min_value=0.01, max_value=2.0)),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_bit_identical_to_reference(self, capacity, jobs):
        expected = _drive(_ReferenceFairShare, capacity, jobs)
        actual = _drive(FairShareResource, capacity, jobs)
        assert sum(entry[0] == "done" for entry in expected) == len(jobs)
        assert actual == expected
