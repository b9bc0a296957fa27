"""Tests for the Spark driver/executor behaviour."""

import pytest

from repro.params import GB, SimulationParams
from repro.simul.distributions import RandomSource
from repro.spark.application import SparkApplication
from repro.spark.tasks import StageSpec, Task
from repro.testbed import Testbed
from repro.workloads.tpch import TPCHDataset, TPCHQueryWorkload
from repro.workloads.wordcount import WordCountWorkload
from tests.conftest import make_query_app


class TestMilestones:
    def test_milestone_ordering(self, single_app_run):
        _bed, app, _report = single_app_run
        m = app.milestones
        order = [
            "driver_first_log",
            "driver_registered",
            "user_init_done",
            "job_start",
            "job_done",
        ]
        values = [m[k] for k in order]
        assert values == sorted(values)

    def test_gate_satisfied_before_job_start(self, single_app_run):
        _bed, app, _report = single_app_run
        assert app.milestones["gate_satisfied"] <= app.milestones["job_start"]

    def test_allocation_completes(self, single_app_run):
        _bed, app, _report = single_app_run
        assert "allocation_complete" in app.milestones

    def test_all_executors_registered(self, single_app_run):
        _bed, app, _report = single_app_run
        assert len(app.registered_executors) == app.num_executors

    def test_every_executor_ran_tasks(self, single_app_run):
        _bed, app, _report = single_app_run
        assert all(e.tasks_run > 0 for e in app.registered_executors)


class TestRpcLatency:
    def test_every_call_is_the_first_draw_of_a_fresh_rpc_stream(self, monkeypatch):
        # A per-app constant: item 2 of ROADMAP.md changes it on purpose.
        calls = []
        real = SparkApplication.rpc_latency

        def recording(app):
            value = real(app)
            calls.append((app, value))
            return value

        monkeypatch.setattr(SparkApplication, "rpc_latency", recording)
        bed = Testbed(params=SimulationParams(num_nodes=5), seed=3)
        apps = [make_query_app("rpc-a", query=1), make_query_app("rpc-b", query=6)]
        for app in apps:
            bed.submit(app)
        bed.run_until_all_finished(limit=5000)
        p = bed.params
        assert [sum(1 for a, _ in calls if a is app) > 10 for app in apps] == [True, True]
        for app, value in calls:
            first = RandomSource(3, f"root.spark.{app.app_id}.rpc").lognormal_median(
                p.rpc_latency_median_s, p.rpc_latency_sigma
            )
            assert value == first


class TestGate:
    def test_gate_needs_80_percent(self, bed):
        app = make_query_app("q", query=1)
        app.num_executors = 10
        bed.submit(app)
        bed.run_until_all_finished(limit=5000)
        # ceil(0.8 * 10) = 8 registrations satisfied the gate.
        assert app.milestones["gate_satisfied"] <= app.milestones["job_start"]

    def test_gate_timeout_unblocks_without_executors(self):
        """If no executor can launch, the 30 s max-wait still lets the
        driver proceed (and tasks wait for the first registrant)."""
        params = SimulationParams(num_nodes=2, max_registered_wait_s=8.0)
        bed = Testbed(params=params, seed=2)
        # Hog nearly all memory so executor allocation stalls.
        from repro.mapreduce.application import MapReduceApplication

        def long_map(app, ctx, index):
            yield ctx.sim.timeout(90.0)

        capacity = bed.cluster.total_memory_mb() // params.map_container_memory_mb
        bed.submit(
            MapReduceApplication("hog", num_maps=int(capacity * 0.995), map_body=long_map)
        )
        app = make_query_app("q", query=6)
        bed.submit(app, delay=10.0)
        bed.run_until_all_finished(limit=5000)
        assert app.milestones["job_done"] > 0


class TestRddInit:
    def test_parallel_init_faster_than_sequential(self):
        def user_init_duration(parallel):
            bed = Testbed(params=SimulationParams(num_nodes=5), seed=17)
            app = make_query_app("q", query=9, parallel_rdd_init=parallel)
            bed.submit(app)
            bed.run_until_all_finished(limit=5000)
            return app.milestones["user_init_done"] - app.milestones["driver_registered"]

        assert user_init_duration(True) < user_init_duration(False)

    def test_opened_files_multiplier_lengthens_init(self):
        def init_duration(mult):
            bed = Testbed(params=SimulationParams(num_nodes=5), seed=18)
            dataset = TPCHDataset(2 * GB, name=f"m{mult}")
            app = SparkApplication(
                "q",
                TPCHQueryWorkload(dataset, query=1, opened_files_multiplier=mult),
                num_executors=4,
            )
            bed.submit(app)
            bed.run_until_all_finished(limit=5000)
            return app.milestones["user_init_done"] - app.milestones["driver_registered"]

        assert init_duration(2) > init_duration(1)

    def test_workload_without_files_rejected(self, bed):
        class EmptyWorkload(WordCountWorkload):
            @property
            def input_files(self):
                return []

        app = SparkApplication("bad", EmptyWorkload(1 * GB), num_executors=2)
        bed.submit(app)
        with pytest.raises(Exception, match="no input files"):
            bed.run_until_all_finished(limit=5000)


class TestTaskModel:
    def test_stage_spec_validation(self):
        with pytest.raises(ValueError):
            StageSpec("s", n_tasks=0, cpu_seconds_per_task=1.0)
        with pytest.raises(ValueError):
            StageSpec("s", n_tasks=1, cpu_seconds_per_task=-1.0)

    def test_wordcount_executor_delay_shorter_than_sql(self):
        """Fig 11a in miniature: one opened file vs eight."""

        def executor_delay(workload):
            # Paper-sized cluster: on tiny clusters the allocation
            # spread gates both workloads identically.
            bed = Testbed(seed=19)
            app = SparkApplication("a", workload, num_executors=4)
            bed.submit(app)
            bed.run_until_all_finished(limit=5000)
            from repro.core.checker import SDChecker

            report = SDChecker().analyze(bed.log_store)
            return report.sample("executor_delay").p50

        wc = executor_delay(WordCountWorkload(2 * GB, name="wc-t"))
        sql = executor_delay(TPCHQueryWorkload(TPCHDataset(2 * GB, name="sql-t"), 5))
        assert wc < sql

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SparkApplication("x", WordCountWorkload(1 * GB), num_executors=0)


class TestSparkConfig:
    def test_heartbeat_intervals(self, small_params):
        app = make_query_app("q")
        pending, idle = app.am_heartbeat_intervals(small_params)
        assert pending == small_params.spark_am_heartbeat_s
        assert idle == 3.0

    def test_executor_spec_overrides(self, small_params):
        app = make_query_app("q", executor_memory_mb=8192, executor_vcores=16)
        spec = app.executor_spec(small_params)
        assert spec.memory_mb == 8192 and spec.vcores == 16

    def test_task_threads_default_to_vcores(self, single_app_run):
        _bed, app, _report = single_app_run
        assert app.task_threads_per_executor() == app.executor_spec(
            SimulationParams()
        ).vcores
