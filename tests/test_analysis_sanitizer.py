"""Tests for the opt-in runtime sanitizer (SD601-SD603)."""

import asyncio
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.analysis import sanitizer


@pytest.fixture()
def fresh_sanitizer():
    """An installed-from-scratch sanitizer, restored afterwards.

    Under ``REPRO_SANITIZE=1`` the session fixture already holds the
    loop monitor with the default threshold; these tests need their own
    threshold and must not leak findings into the session's sink.
    """
    was_installed = sanitizer._orig_handle_run is not None
    sanitizer.uninstall_loop_monitor()
    sanitizer.reset()
    yield sanitizer
    sanitizer.uninstall_loop_monitor()
    sanitizer.reset()
    if was_installed:
        sanitizer.install_loop_monitor()


def _burn(seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


# Module-level so worker processes can unpickle them.
def _double(task: int) -> int:
    return task * 2


def _nondeterministic(task: int) -> int:
    return time.perf_counter_ns() + task


class TestLoopMonitor:
    def test_stall_is_recorded_and_attributed(self, fresh_sanitizer):
        fresh_sanitizer.install_loop_monitor(threshold=0.05)

        async def main():
            loop = asyncio.get_running_loop()
            loop.call_soon(_burn, 0.1)
            await asyncio.sleep(0.01)

        asyncio.run(main())
        findings = fresh_sanitizer.report()
        assert [f.rule for f in findings] == ["SD601"]
        assert "_burn" in findings[0].message
        assert "held the loop" in findings[0].message

    def test_fast_callbacks_stay_silent(self, fresh_sanitizer):
        fresh_sanitizer.install_loop_monitor(threshold=0.25)

        async def main():
            loop = asyncio.get_running_loop()
            loop.call_soon(_burn, 0.0)
            await asyncio.sleep(0.01)

        asyncio.run(main())
        assert fresh_sanitizer.report() == []

    def test_install_is_idempotent_and_uninstall_restores(self, fresh_sanitizer):
        original = asyncio.events.Handle._run
        fresh_sanitizer.install_loop_monitor(threshold=0.05)
        patched = asyncio.events.Handle._run
        assert patched is not original
        fresh_sanitizer.install_loop_monitor(threshold=99.0)
        assert asyncio.events.Handle._run is patched
        fresh_sanitizer.uninstall_loop_monitor()
        assert asyncio.events.Handle._run is original


class TestCheckedMap:
    def test_clean_worker_preserves_submission_order(self, fresh_sanitizer):
        with ProcessPoolExecutor(max_workers=2) as pool:
            results = list(
                fresh_sanitizer.checked_map(pool, _double, [3, 1, 2], stride=1)
            )
        assert results == [6, 2, 4]
        assert fresh_sanitizer.report() == []

    def test_unpicklable_payload_is_a_finding_not_a_traceback(
        self, fresh_sanitizer
    ):
        class _NeverUsedPool:
            pass

        with pytest.raises(TypeError, match="unpicklable submission"):
            fresh_sanitizer.checked_map(
                _NeverUsedPool(), _double, [lambda: 1], stride=1
            )
        findings = fresh_sanitizer.report()
        assert [f.rule for f in findings] == ["SD602"]
        assert "_double" in findings[0].message

    def test_nondeterministic_worker_is_caught_by_double_submit(
        self, fresh_sanitizer
    ):
        with ProcessPoolExecutor(max_workers=1) as pool:
            fresh_sanitizer.checked_map(pool, _nondeterministic, [1], stride=1)
        findings = fresh_sanitizer.report()
        assert [f.rule for f in findings] == ["SD603"]
        assert "_nondeterministic" in findings[0].message

    def test_sampling_stride_limits_double_submits(self, fresh_sanitizer):
        # stride=4 over 4 tasks double-submits only index 0; the
        # nondeterministic worker therefore yields exactly one finding.
        with ProcessPoolExecutor(max_workers=1) as pool:
            fresh_sanitizer.checked_map(
                pool, _nondeterministic, [1, 2, 3, 4], stride=4
            )
        assert len(fresh_sanitizer.report()) == 1


class TestMinerIntegration:
    def test_pool_map_routes_through_checked_map(
        self, fresh_sanitizer, monkeypatch, tmp_path
    ):
        """REPRO_SANITIZE=1 makes the miner's fan-out sanitizer-checked
        end to end, and the deterministic workers stay violation-free."""
        from repro.core.parser import LogMiner
        from repro.logsys.record import LogRecord
        from repro.logsys.store import LogStore

        monkeypatch.setenv("REPRO_SANITIZE", "1")
        store = LogStore()
        for i in range(4):
            daemon = f"container_1515715200000_0001_01_{i + 1:06d}"
            store.append(daemon, LogRecord(float(i), "x.Noise", "noise"))
        store.dump(tmp_path)
        miner = LogMiner()
        events, _ = miner.mine(tmp_path, jobs=2)
        assert events and events == miner.mine(tmp_path)[0]
        assert fresh_sanitizer.report() == []
