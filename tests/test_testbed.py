"""Tests for the assembled testbed."""

import pytest

from repro.params import SimulationParams
from repro.simul.engine import SimulationError
from repro.testbed import Testbed
from tests.conftest import make_query_app


class TestAssembly:
    def test_one_nm_per_node(self, bed):
        assert len(bed.rm.node_managers) == len(bed.cluster)

    def test_distributed_scheduling_flag(self):
        plain = Testbed(params=SimulationParams(num_nodes=2), seed=0)
        assert plain.rm.opportunistic is None
        dist = Testbed(
            params=SimulationParams(num_nodes=2), seed=0, distributed_scheduling=True
        )
        assert dist.rm.opportunistic is not None

    def test_default_params(self):
        bed = Testbed(seed=0)
        assert bed.params.num_nodes == 25


class TestRunControl:
    def test_run_until_all_finished_returns_makespan(self, bed):
        app = make_query_app("q", query=6)
        bed.submit(app)
        makespan = bed.run_until_all_finished(limit=5000)
        assert makespan == pytest.approx(app.finished.value)

    @staticmethod
    def _assert_all_waited_for(bed, makespan):
        assert all(app.finished.processed for app in bed.applications)
        assert makespan == max(app.finished.value for app in bed.applications)

    def test_later_submitted_app_finishing_first(self, bed):
        slow = make_query_app("slow", query=9)
        fast = make_query_app("fast", query=6)
        bed.submit(slow)
        bed.submit(fast)
        makespan = bed.run_until_all_finished(limit=5000)
        assert fast.finished.value < slow.finished.value
        self._assert_all_waited_for(bed, makespan)

    def test_delayed_submission_is_waited_for(self, bed):
        first = make_query_app("first", query=6)
        delayed = make_query_app("delayed", query=6)
        bed.submit(first)
        proxy = bed.submit(delayed, delay=30.0)
        assert delayed.finished is None  # set only once it is submitted
        makespan = bed.run_until_all_finished(limit=5000)
        # The delayed app was submitted after the first had finished.
        assert first.finished.value < delayed.submitted_at
        assert proxy.value == delayed.finished.value
        self._assert_all_waited_for(bed, makespan)

    def test_app_submitted_mid_run_is_waited_for(self, bed):
        first = make_query_app("first", query=9)
        late = make_query_app("late", query=9)
        bed.submit(first)
        bed.sim.call_at(5.0, lambda: bed.submit(late))
        makespan = bed.run_until_all_finished(limit=5000)
        assert late.submitted_at == 5.0
        assert late.finished.value > first.finished.value
        self._assert_all_waited_for(bed, makespan)

    def test_no_apps_is_noop(self, bed):
        assert bed.run_until_all_finished() == 0.0

    def test_limit_guards_deadlock(self, bed):
        app = make_query_app("q", query=1, opportunistic=True)
        bed.submit(app)  # opportunistic w/o distributed scheduler: stuck
        with pytest.raises(SimulationError):
            bed.run_until_all_finished(limit=50)

    def test_dump_logs_writes_files(self, tmp_path, bed):
        app = make_query_app("q", query=6)
        bed.submit(app)
        bed.run_until_all_finished(limit=5000)
        paths = bed.dump_logs(tmp_path)
        names = {p.name for p in paths}
        assert "hadoop-resourcemanager.log" in names
        assert any(n.startswith("hadoop-nodemanager-") for n in names)
        assert any(n.startswith("container_") for n in names)
