"""Mining-pipeline tests: streaming readers, parallel and store-vs-disk
equivalence, and the O(1) first-event index.

The equivalence corpus is simulator-generated (two TPC-H query apps on
a small testbed), so serial, parallel and in-memory mining are compared
on exactly the log shapes the rest of the suite analyzes.
"""

from __future__ import annotations

import multiprocessing
import os
import signal

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import messages as msg
from repro.core.events import EventKind, SchedulingEvent
from repro.core.grouping import ApplicationTrace, ContainerTrace
from repro.core.parser import AUTO_JOBS, LogMiner, _scan_chunk, resolve_jobs
from repro.logsys.record import LogRecord
from repro.logsys.store import LogStore, iter_file_lines, iter_file_records
from repro.params import SimulationParams
from repro.testbed import Testbed
from tests.conftest import make_query_app

APP = "application_1515715200000_0001"
CONTAINER = "container_1515715200000_0001_01_000002"


@pytest.fixture(scope="module")
def corpus_store() -> LogStore:
    """Logs of a two-application simulated run."""
    bed = Testbed(params=SimulationParams(num_nodes=5), seed=29)
    for i in range(2):
        bed.submit(make_query_app(f"equiv-q{i}", query=i + 1))
    bed.run_until_all_finished(limit=5000)
    return bed.log_store


@pytest.fixture(scope="module")
def corpus_dir(corpus_store, tmp_path_factory):
    directory = tmp_path_factory.mktemp("equiv-logs")
    corpus_store.dump(directory)
    return directory


def _diag_dict(diagnostics):
    return {d: stream.to_dict() for d, stream in diagnostics.streams.items()}


class TestParallelEquivalence:
    """mine(jobs=1) == mine(jobs=4) == mine(jobs="auto"), store == directory."""

    def test_store_source_event_for_event(self, corpus_store):
        miner = LogMiner()
        serial, _ = miner.mine(corpus_store)
        assert serial, "corpus mined no events"
        assert miner.mine(corpus_store, jobs=4)[0] == serial
        assert miner.mine(corpus_store, jobs=AUTO_JOBS)[0] == serial

    def test_directory_source_event_for_event(self, corpus_dir):
        miner = LogMiner()
        serial, diagnostics = miner.mine(corpus_dir)
        assert serial, "corpus mined no events"
        for jobs in (1, 4):
            events, parallel_diagnostics = miner.mine(corpus_dir, jobs=jobs)
            assert events == serial
            assert _diag_dict(parallel_diagnostics) == _diag_dict(diagnostics)

    def test_directory_agrees_with_store(self, corpus_store, corpus_dir):
        # Records are stamped with the millisecond their line renders
        # to, so dumping to disk and re-mining changes nothing: not the
        # events, not their timestamps, not the ledger.
        from_store, store_diagnostics = LogMiner().mine(corpus_store)
        from_dir, dir_diagnostics = LogMiner().mine(corpus_dir)
        assert from_store == from_dir
        assert _diag_dict(store_diagnostics) == _diag_dict(dir_diagnostics)

    def test_jobs_do_not_change_downstream_analysis(self, corpus_dir):
        from repro.core.checker import SDChecker

        serial = SDChecker(jobs=1).analyze(corpus_dir)
        parallel = SDChecker(jobs=4).analyze(corpus_dir)
        assert [a.app_id for a in serial.apps] == [a.app_id for a in parallel.apps]
        assert [a.total_delay for a in serial.apps] == [
            a.total_delay for a in parallel.apps
        ]


class TestWorkerPool:
    """A miner keeps one worker pool across calls; no worker outlives it."""

    @staticmethod
    def _children():
        return {child.pid for child in multiprocessing.active_children()}

    def test_pool_is_kept_across_calls_and_joined_on_close(self, corpus_dir):
        before = self._children()
        miner = LogMiner()
        events, _ = miner.mine(corpus_dir, jobs=2)
        workers = self._children() - before
        assert workers
        assert miner.mine(corpus_dir, jobs=2)[0] == events
        assert self._children() - before == workers
        miner.close()
        assert not self._children() & workers
        # A closed miner still mines, on a new pool.
        assert miner.mine(corpus_dir, jobs=2)[0] == events
        miner.close()

    def test_freeing_the_miner_joins_its_workers(self, corpus_dir):
        before = self._children()
        miner = LogMiner()
        miner.mine(corpus_dir, jobs=2)
        workers = self._children() - before
        assert workers
        del miner
        assert not self._children() & workers

    def test_a_killed_worker_is_replaced(self, corpus_dir):
        before = self._children()
        miner = LogMiner()
        events, diagnostics = miner.mine(corpus_dir, jobs=2)
        victim = min(self._children() - before)
        os.kill(victim, signal.SIGKILL)
        again, again_diagnostics = miner.mine(corpus_dir, jobs=2)
        assert again == events
        assert _diag_dict(again_diagnostics) == _diag_dict(diagnostics)
        rebuilt = self._children() - before
        assert rebuilt and victim not in rebuilt
        del miner
        assert not self._children() & rebuilt


class TestStoreMinesInProcess:
    """Regression: an in-memory store never starts a worker pool.

    Shipping a store's records to per-daemon workers measured 4-6x
    slower than mining them in place, at every size tried, and
    ``jobs="auto"`` used to pick that pool above 150k records.
    """

    @pytest.fixture
    def no_pool(self, monkeypatch):
        import repro.core.parser as parser_mod

        def refuse(*args, **kwargs):
            raise AssertionError("a ProcessPoolExecutor was started")

        monkeypatch.setattr(parser_mod, "ProcessPoolExecutor", refuse)
        # Make "auto" pick workers for anything a pool could serve.
        monkeypatch.setattr(parser_mod, "available_cpus", lambda: 8)
        monkeypatch.setattr(parser_mod, "AUTO_SERIAL_THRESHOLD_LINES", 0)

    @pytest.mark.parametrize("jobs", [4, AUTO_JOBS])
    def test_store_mining_never_starts_a_pool(self, corpus_store, no_pool, jobs):
        from repro.core.checker import SDChecker

        assert resolve_jobs(jobs, corpus_store) == 1
        events, _ = LogMiner().mine(corpus_store, jobs=jobs)
        assert events
        assert SDChecker(jobs=jobs).analyze(corpus_store).apps

    def test_the_guard_catches_a_pool(self, corpus_dir, no_pool):
        with pytest.raises(AssertionError, match="ProcessPoolExecutor"):
            LogMiner().mine(corpus_dir, jobs=2)


class TestTimestampSemantics:
    """A logged record carries the timestamp its rendered line mines to."""

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=0.0, max_value=86_400.0 * 10))
    def test_logged_timestamp_is_the_rendered_one(self, seconds):
        store = LogStore()
        record = store.logger(CONTAINER, lambda: seconds).info("x.Exec", "started")
        line = record.render()
        assert line == LogRecord(seconds, "x.Exec", "started").render()
        assert LogRecord.parse(line).timestamp == record.timestamp
        # The byte lane reads the same float off the line ...
        _events, _counters, first_key, _last = _scan_chunk(
            CONTAINER, "container", line.encode("ascii") + b"\n"
        )
        assert first_key[0] == record.timestamp
        # ... and mining the store in memory keeps it.
        events, _ = LogMiner().mine(store)
        assert events[0].kind is EventKind.INSTANCE_FIRST_LOG
        assert events[0].timestamp == record.timestamp


class TestStreamingReaders:
    def test_iter_records_is_lazy_and_complete(self, corpus_store):
        daemon = corpus_store.daemons[0]
        it = corpus_store.iter_records(daemon)
        assert iter(it) is it  # a generator, not a materialized copy
        assert tuple(it) == corpus_store.records(daemon)

    def test_iter_lines_matches_render(self, corpus_store):
        daemon = corpus_store.daemons[0]
        assert list(corpus_store.iter_lines(daemon)) == corpus_store.render(daemon)

    def test_chunked_file_reader_matches_read_text(self, tmp_path):
        lines = [f"2018-01-12 00:00:0{i},000 INFO Cls: line {i}" for i in range(8)]
        lines.insert(3, "java.io.IOException: noise")  # unparseable, kept by reader
        path = tmp_path / "d.log"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        # Tiny chunk size forces many partial-line boundaries.
        assert list(iter_file_lines(path, chunk_size=7)) == lines
        parsed = list(iter_file_records(path, chunk_size=7))
        assert [r.message for r in parsed] == [f"line {i}" for i in range(8)]

    def test_file_without_trailing_newline(self, tmp_path):
        path = tmp_path / "d.log"
        path.write_text("2018-01-12 00:00:01,000 INFO C: only", encoding="utf-8")
        assert [r.message for r in iter_file_records(path)] == ["only"]


class TestSinglePassDispatch:
    """The one-regex container classifier agrees with the old cascade."""

    def _cascade(self, message):
        # The pre-pipeline classification order, verbatim.
        if msg.classify_first_task_line(message):
            return EventKind.FIRST_TASK, None
        if msg.classify_mr_task_done_line(message):
            return EventKind.MR_TASK_DONE, None
        return msg.classify_driver_line(message)

    LINES = [
        f"Registered ApplicationMaster for {APP}",
        f"SDCHECKER START_ALLO Will request 4 executor container(s) for {APP}",
        f"SDCHECKER END_ALLO All requested containers allocated for {APP} (4 granted)",
        "Got assigned task 0",
        "Got assigned task 17",
        "Task attempt_1515715200000_0001_m_000003_0 is done",
        "Task attempt_1515715200000_0001_r_000000_1 is done",
        # Near misses — prefix matches, body does not.
        "Registered ApplicationMaster for nobody",
        "SDCHECKER START_ALLO no app id here",
        "Got assigned task x",
        "Task attempt_12_b_000000_0 is done",
        # Plain noise.
        "Starting executor heartbeat thread",
        "Preparing Local resources",
        "",
    ]

    @pytest.mark.parametrize("line", LINES)
    def test_agrees_on_fixtures(self, line):
        assert msg.classify_container_line(line) == self._cascade(line)

    @settings(max_examples=200, deadline=None)
    @given(st.text(st.characters(codec="utf-8", exclude_characters="\n\r"), max_size=80))
    def test_agrees_on_arbitrary_text(self, line):
        assert msg.classify_container_line(line) == self._cascade(line)


def _scan_first(events, kind):
    """The pre-index reference semantics: full scan, strict-< tie-break."""
    best = None
    for event in events:
        if event.kind is kind and (best is None or event.timestamp < best.timestamp):
            best = event
    return best


def _container_event(kind: EventKind, timestamp: float, detail: str = "") -> SchedulingEvent:
    return SchedulingEvent(
        kind, timestamp, APP, CONTAINER, CONTAINER, source_class="X", detail=detail
    )


class TestFirstEventIndex:
    """The O(1) index reproduces the old full-scan semantics exactly."""

    KINDS = [
        EventKind.CONTAINER_ALLOCATED,
        EventKind.CONTAINER_ACQUIRED,
        EventKind.INSTANCE_FIRST_LOG,
        EventKind.FIRST_TASK,
    ]

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(range(4)), st.integers(0, 5)),
            max_size=24,
        )
    )
    def test_container_trace_matches_scan(self, shape):
        # Duplicate kinds and timestamp ties are the interesting cases:
        # the index must return the same *object* the old scan found.
        trace = ContainerTrace(CONTAINER)
        for kind_idx, ts in shape:
            trace.add(_container_event(self.KINDS[kind_idx], float(ts)))
        for kind in self.KINDS:
            assert trace.first(kind) is _scan_first(trace.events, kind)
            expected = _scan_first(trace.events, kind)
            assert trace.time_of(kind) == (
                None if expected is None else expected.timestamp
            )

    def test_index_survives_sort(self):
        trace = ContainerTrace(CONTAINER)
        for ts in (5.0, 1.0, 3.0, 1.0):
            trace.add(_container_event(EventKind.CONTAINER_ALLOCATED, ts))
        winner = trace.first(EventKind.CONTAINER_ALLOCATED)
        trace.sort()
        assert trace.first(EventKind.CONTAINER_ALLOCATED) is winner
        assert winner.timestamp == 1.0

    def test_prebuilt_event_list_is_indexed(self):
        events = [
            _container_event(EventKind.CONTAINER_ALLOCATED, 2.0),
            _container_event(EventKind.CONTAINER_ALLOCATED, 1.0),
        ]
        trace = ContainerTrace(CONTAINER, events=events)
        assert trace.time_of(EventKind.CONTAINER_ALLOCATED) == 1.0

    def test_application_trace_matches_scan(self):
        trace = ApplicationTrace(APP)
        stamps = [(EventKind.APP_SUBMITTED, 4.0), (EventKind.APP_SUBMITTED, 2.0),
                  (EventKind.APP_ACCEPTED, 2.0), (EventKind.APP_ACCEPTED, 2.0)]
        for kind, ts in stamps:
            trace.add(SchedulingEvent(kind, ts, APP, None, "rm"))
        for kind in (EventKind.APP_SUBMITTED, EventKind.APP_ACCEPTED,
                     EventKind.APP_FINISHED):
            assert trace.first(kind) is _scan_first(trace.events, kind)


class TestFormatDriftTolerance:
    """Regression: a drifted timestamp is skipped and counted, not fatal.

    A log4j layout change mid-fleet produces lines that still *look*
    like records but whose timestamp cannot be interpreted; the miner
    used to propagate the ``ValueError`` from ``parse_timestamp``.
    """

    RM_LINES = [
        "2018-01-12 00:00:01,000 INFO x.RMAppImpl: application_1515715200000_0001 State change from NEW to SUBMITTED on event = START",
        # month-drifted: shaped like a record, uninterpretable timestamp
        "2018-02-12 00:00:02,000 INFO x.RMAppImpl: application_1515715200000_0001 State change from SUBMITTED to ACCEPTED on event = APP_ACCEPTED",
        "2018-01-12 00:00:03,000 INFO x.RMAppImpl: application_1515715200000_0001 State change from ACCEPTED to RUNNING on event = ATTEMPT_REGISTERED",
    ]

    def test_drifted_line_is_skipped_and_counted(self, tmp_path):
        (tmp_path / "hadoop-resourcemanager.log").write_text(
            "\n".join(self.RM_LINES) + "\n"
        )
        events, diagnostics = LogMiner().mine(tmp_path)
        # The drifted ACCEPTED line is gone; its neighbours survive.
        kinds = [e.kind for e in events]
        assert kinds == [EventKind.APP_SUBMITTED, EventKind.APP_ATTEMPT_REGISTERED]
        stream = diagnostics.streams["hadoop-resourcemanager"]
        assert stream.dropped_bad_timestamp == 1
        assert stream.records_parsed == 2
        assert diagnostics.degraded()

    def test_drifted_line_from_store_lines(self):
        store = LogStore.from_lines(
            ("hadoop-resourcemanager", line) for line in self.RM_LINES
        )
        events, diagnostics = LogMiner().mine(store)
        assert len(events) == 2
        assert (
            diagnostics.streams["hadoop-resourcemanager"].dropped_bad_timestamp == 1
        )
