"""Tests for log records, log4j formatting and the log store."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.logsys.diagnostics import StreamDiagnostics
from repro.logsys.record import LogRecord, format_timestamp, parse_timestamp
from repro.logsys.store import (
    LogStore,
    SealedStoreError,
    iter_file_records,
    stream_segments,
)


class TestTimestampFormat:
    def test_zero_renders_epoch_midnight(self):
        assert format_timestamp(0.0) == "2018-01-12 00:00:00,000"

    def test_millisecond_rounding(self):
        assert format_timestamp(1.23456).endswith(",235")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_timestamp(-0.001)

    def test_day_rollover(self):
        rendered = format_timestamp(86_400.0 + 3600.0)
        assert rendered.startswith("2018-01-13 01:00:00")

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=0.0, max_value=86_400.0 * 10))
    def test_round_trip_at_ms_precision(self, seconds):
        rendered = format_timestamp(seconds)
        record = LogRecord.parse(f"{rendered} INFO X: y")
        assert record.timestamp == pytest.approx(seconds, abs=0.0005 + 1e-9)


class TestLogRecord:
    def test_render_layout(self):
        r = LogRecord(1.5, "org.apache.Foo", "hello world")
        assert r.render() == "2018-01-12 00:00:01,500 INFO org.apache.Foo: hello world"

    def test_parse_round_trip(self):
        r = LogRecord(12.345, "RMAppImpl", "a: b: c", level="WARN")
        back = LogRecord.parse(r.render())
        assert back.cls == "RMAppImpl"
        assert back.message == "a: b: c"
        assert back.level == "WARN"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            LogRecord.parse("java.lang.NullPointerException")

    def test_classify_parse_returns_none_for_noise(self):
        assert LogRecord.classify_parse("   at Foo.bar(Foo.java:42)")[0] is None

    def test_parse_class_with_dollar_sign(self):
        line = "2018-01-12 00:00:00,001 INFO a.b.C$D: inner class logger"
        assert LogRecord.parse(line).cls == "a.b.C$D"


class TestLogStore:
    def test_logger_stamps_with_clock(self):
        store = LogStore()
        now = [0.0]
        logger = store.logger("daemon-a", lambda: now[0])
        logger.info("Cls", "first")
        now[0] = 2.0
        logger.warn("Cls", "second")
        records = store.records("daemon-a")
        assert [r.timestamp for r in records] == [0.0, 2.0]
        assert records[1].level == "WARN"

    def test_daemons_sorted(self):
        store = LogStore()
        store.logger("zeta", lambda: 0.0).info("C", "m")
        store.logger("alpha", lambda: 0.0).info("C", "m")
        assert store.daemons == ["alpha", "zeta"]

    def test_len_counts_all_records(self):
        store = LogStore()
        log = store.logger("d", lambda: 0.0)
        for i in range(5):
            log.info("C", f"m{i}")
        assert len(store) == 5

    def test_dump_and_load_round_trip(self, tmp_path):
        store = LogStore()
        log = store.logger("hadoop-resourcemanager", lambda: 1.0)
        log.info("RMAppImpl", "application_1_0001 State change from NEW to SUBMITTED on event = START")
        log.error("Other", "unrelated")
        paths = store.dump(tmp_path)
        assert [p.name for p in paths] == ["hadoop-resourcemanager.log"]
        loaded = LogStore.load(tmp_path)
        assert len(loaded) == 2
        assert loaded.records("hadoop-resourcemanager")[0].cls == "RMAppImpl"

    def test_load_skips_unparseable_lines(self, tmp_path):
        (tmp_path / "daemon.log").write_text(
            "2018-01-12 00:00:00,100 INFO A: ok\n"
            "java.io.IOException: broken pipe\n"
            "\tat Foo.bar(Foo.java:1)\n"
            "2018-01-12 00:00:00,200 INFO B: also ok\n"
        )
        store = LogStore.load(tmp_path)
        assert [r.cls for r in store.records("daemon")] == ["A", "B"]

    def test_from_lines(self):
        store = LogStore.from_lines(
            [
                ("d1", "2018-01-12 00:00:00,000 INFO X: m"),
                ("d1", "not a log line"),
                ("d2", "2018-01-12 00:00:01,000 INFO Y: n"),
            ]
        )
        assert len(store.records("d1")) == 1
        assert len(store.records("d2")) == 1


class TestReaderTolerance:
    """The readers never raise on imperfect files — they skip and count.

    Regression tests for two crashes the fault-injection catalog
    exposed: invalid UTF-8 bytes (bit rot, mixed encodings) used to
    abort :meth:`LogStore.load` with ``UnicodeDecodeError``, and a
    final record truncated mid-write used to depend on luck.
    """

    def test_invalid_bytes_are_replaced_not_fatal(self, tmp_path):
        (tmp_path / "daemon.log").write_bytes(
            b"2018-01-12 00:00:00,100 INFO A: ok\n"
            b"2018-01-12 00:00:00,200 INFO B: bit\xfe\xffrot\n"
            b"2018-01-12 00:00:00,300 INFO C: ok again\n"
        )
        store = LogStore.load(tmp_path)  # must not raise
        records = store.records("daemon")
        assert [r.cls for r in records] == ["A", "B", "C"]
        assert "�" in records[1].message
        diagnostics = store.stream_diagnostics["daemon"]
        assert diagnostics.encoding_replacements == 1

    def test_truncated_trailing_record_is_skipped(self, tmp_path):
        complete = "2018-01-12 00:00:00,100 INFO A: first record\n"
        truncated = "2018-01-12 00:00:00,2"  # crash mid-timestamp, no newline
        (tmp_path / "daemon.log").write_text(complete + truncated)
        store = LogStore.load(tmp_path)  # must not raise
        assert [r.cls for r in store.records("daemon")] == ["A"]
        diagnostics = store.stream_diagnostics["daemon"]
        assert diagnostics.lines_total == 2
        assert diagnostics.records_parsed == 1
        assert diagnostics.dropped_garbled == 1

    def test_iter_file_records_counts_into_diagnostics(self, tmp_path):
        path = tmp_path / "d.log"
        path.write_bytes(
            b"2018-01-12 00:00:00,100 INFO A: ok\n"
            b"garbage line\n"
            b"2018-02-12 00:00:00,100 INFO B: drifted month\n"
        )
        diagnostics = StreamDiagnostics(daemon="d")
        records = list(iter_file_records(path, diagnostics=diagnostics))
        assert [r.cls for r in records] == ["A"]
        assert diagnostics.lines_total == 3
        assert diagnostics.dropped_garbled == 1
        assert diagnostics.dropped_bad_timestamp == 1

    def test_rotation_segments_merge_oldest_first(self, tmp_path):
        (tmp_path / "daemon.log.2").write_text(
            "2018-01-12 00:00:00,100 INFO Old: oldest\n"
        )
        (tmp_path / "daemon.log.1").write_text(
            "2018-01-12 00:00:00,200 INFO Mid: middle\n"
        )
        (tmp_path / "daemon.log").write_text(
            "2018-01-12 00:00:00,300 INFO New: live\n"
        )
        streams = stream_segments(tmp_path)
        assert [(d, [p.name for p in paths]) for d, paths in streams] == [
            ("daemon", ["daemon.log.2", "daemon.log.1", "daemon.log"])
        ]
        store = LogStore.load(tmp_path)
        assert [r.cls for r in store.records("daemon")] == ["Old", "Mid", "New"]
        assert store.stream_diagnostics["daemon"].segments == 3


class TestRecordsView:
    """records() is an immutable cached view, not a per-call copy."""

    def test_returns_tuple(self):
        store = LogStore()
        store.logger("d", lambda: 0.0).info("C", "m")
        assert isinstance(store.records("d"), tuple)

    def test_repeated_calls_share_the_view(self):
        store = LogStore()
        store.logger("d", lambda: 0.0).info("C", "m")
        assert store.records("d") is store.records("d")

    def test_append_invalidates_the_view(self):
        store = LogStore()
        log = store.logger("d", lambda: 0.0)
        log.info("C", "m1")
        before = store.records("d")
        log.info("C", "m2")
        after = store.records("d")
        assert len(before) == 1 and len(after) == 2

    def test_sealed_store_rejects_appends(self):
        store = LogStore()
        store.logger("d", lambda: 0.0).info("C", "m")
        store.seal()
        with pytest.raises(RuntimeError):
            store.append("d", LogRecord(1.0, "C", "late"))

    def test_load_returns_sealed_store(self, tmp_path):
        LogStore().dump(tmp_path)
        (tmp_path / "d.log").write_text(
            "2018-01-12 00:00:00,000 INFO C: m\n", encoding="utf-8"
        )
        assert LogStore.load(tmp_path).sealed


class TestRoundTripIdentity:
    """dump() then load() preserves the exact stream structure."""

    def test_empty_stream_survives(self, tmp_path):
        store = LogStore()
        store.logger("quiet-daemon", lambda: 0.0)  # registered, never wrote
        store.logger("noisy", lambda: 1.0).info("C", "m")
        store.dump(tmp_path)
        assert (tmp_path / "quiet-daemon.log").read_text(encoding="utf-8") == ""
        loaded = LogStore.load(tmp_path)
        assert loaded.daemons == ["noisy", "quiet-daemon"]
        assert loaded.records("quiet-daemon") == ()

    def test_utf8_messages_survive(self, tmp_path):
        store = LogStore()
        store.logger("d", lambda: 0.5).info("C", "métriques λ≤∞ 完了")
        store.dump(tmp_path)
        loaded = LogStore.load(tmp_path)
        assert loaded.records("d")[0].message == "métriques λ≤∞ 完了"

    @settings(max_examples=60, deadline=None)
    @given(
        streams=st.dictionaries(
            keys=st.text(alphabet="abcdefghij0123456789-", min_size=1, max_size=12),
            values=st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=86_400_000),  # millis
                    st.text(alphabet="ABCDEFG", min_size=1, max_size=4),  # level
                    st.text(
                        alphabet="abcXYZ012._$-", min_size=1, max_size=16
                    ),  # class
                    st.text(
                        st.characters(codec="utf-8", exclude_characters="\n\r"),
                        max_size=40,
                    ),  # message
                ),
                max_size=8,
            ),
            max_size=4,
        )
    )
    def test_dump_load_is_identity(self, streams, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("roundtrip")
        store = LogStore()
        for daemon, rows in streams.items():
            store._streams.setdefault(daemon, [])
            for millis, level, cls, message in rows:
                store.append(
                    daemon,
                    LogRecord(
                        timestamp=millis / 1000.0, cls=cls, message=message, level=level
                    ),
                )
        store.dump(tmp_path)
        loaded = LogStore.load(tmp_path)
        assert loaded.daemons == store.daemons
        for daemon in store.daemons:
            # Timestamps are quantized to the shared ms precision, so
            # identity is judged on the rendered lines plus the exact
            # (level, class, message) triples.
            assert loaded.render(daemon) == store.render(daemon)
            assert [(r.level, r.cls, r.message) for r in loaded.records(daemon)] == [
                (r.level, r.cls, r.message) for r in store.records(daemon)
            ]


class TestSealedStoreError:
    """seal() makes appends fail with the dedicated exception type."""

    def test_append_after_seal_raises_sealed_store_error(self):
        store = LogStore()
        store.logger("d", lambda: 0.0).info("C", "m")
        store.seal()
        with pytest.raises(SealedStoreError) as exc_info:
            store.append("d", LogRecord(1.0, "C", "late"))
        assert "sealed" in str(exc_info.value)

    def test_sealed_store_error_is_a_runtime_error(self):
        # Callers that predate the dedicated type catch RuntimeError.
        assert issubclass(SealedStoreError, RuntimeError)

    def test_unsealed_store_still_appends(self):
        store = LogStore()
        store._streams.setdefault("d", [])
        store.append("d", LogRecord(1.0, "C", "fine"))
        assert len(store.records("d")) == 1
