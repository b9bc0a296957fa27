"""Tests for the experiment harness and figure-module plumbing.

Figure modules themselves are exercised by the benchmarks (they run
whole traces); here we cover the paper's recipe as a scenario and the
pure computation helpers with small inputs.
"""

import copy
import dataclasses
import json
import pickle

import pytest

from repro.experiments.common import resolve_scale
from repro.experiments.harness import DfsioLoad, KmeansLoad, MemoryLoad
from repro.experiments.table2 import allocation_throughput
from repro.experiments.table3 import critical_path_shares
from repro.params import GB
from repro.workloads.google_trace import save_trace_csv
from repro.workloads.scenarios import trace_recipe


class TestCommon:
    def test_resolve_scale(self):
        assert resolve_scale("small", 10, 100) == 10
        assert resolve_scale("paper", 10, 100) == 100
        with pytest.raises(ValueError):
            resolve_scale("huge", 10, 100)


class TestTraceRecipe:
    @pytest.fixture(scope="class")
    def tiny_result(self):
        return trace_recipe(
            4, seed=51, mean_interarrival_s=2.0, params={"num_nodes": 5}
        ).run()

    def test_runs_requested_queries(self, tiny_result):
        assert len(tiny_result.report) == 4
        assert len(tiny_result.testbed.applications) == 4

    def test_makespan_positive(self, tiny_result):
        assert tiny_result.makespan > 0

    def test_variant_overrides_fields(self):
        base = trace_recipe(4, seed=1)
        tenant = dataclasses.replace(base.tenants[0], docker=True, num_executors=8)
        v = base.variant(tenants=(tenant,))
        assert v.tenants[0].docker and v.tenants[0].num_executors == 8
        assert not base.tenants[0].docker

    def test_unknown_workload_rejected(self):
        scenario = trace_recipe(1, workload="nonsense")
        with pytest.raises(ValueError):
            scenario.build()

    def test_interference_apps_filtered_from_report(self):
        scenario = trace_recipe(
            3,
            seed=52,
            mean_interarrival_s=2.0,
            params={"num_nodes": 5, "dfsio_bytes_per_map": 1 * GB},
            interference=DfsioLoad(2),
            warmup_s=5.0,
        )
        result = scenario.run()
        # Only the 3 measured queries appear, not the dfsIO job.
        assert len(result.report) == 3

    def test_deterministic_given_seed(self):
        def run():
            r = trace_recipe(3, seed=53, params={"num_nodes": 5}).run()
            return [a.total_delay for a in r.report.apps]

        assert run() == run()

    def test_runs_leave_a_trace_file_scenario_unchanged(self, tmp_path):
        path = save_trace_csv(tmp_path / "trace.csv", [0.0, 2.5, 4.0], [3, 1, 3])
        scenario = trace_recipe(trace_file=str(path), seed=54, params={"num_nodes": 5})
        before = copy.deepcopy(scenario)
        reports = [
            json.dumps(scenario.run().report.to_dict(), sort_keys=True)
            for _ in range(2)
        ]
        assert scenario == before and scenario.n_jobs == 3
        assert reports[0] == reports[1]

    def test_interference_hooks_pickle_and_compare_by_value(self):
        base = trace_recipe(3, seed=1)
        for hook in (DfsioLoad(4), KmeansLoad(2), MemoryLoad(0.98, 55.0)):
            scenario = base.variant(interference=hook)
            assert pickle.loads(pickle.dumps(scenario)) == scenario
        assert base.variant(interference=DfsioLoad(4)) == base.variant(
            interference=DfsioLoad(4)
        )
        assert DfsioLoad(4) != DfsioLoad(8)


class TestTable2Helpers:
    def test_throughput_computation(self):
        times = [0.0, 0.1, 0.2, 0.3, 0.4]
        assert allocation_throughput(times) == pytest.approx(10.0, rel=0.3)

    def test_throughput_excludes_straggler_tail(self):
        times = [i * 0.01 for i in range(100)] + [1000.0]
        assert allocation_throughput(times) < 200.0  # window, not 0.1/s

    def test_throughput_degenerate_inputs(self):
        import math

        assert math.isnan(allocation_throughput([1.0]))
        assert allocation_throughput([1.0, 1.0]) == float("inf")


class TestTable3Helpers:
    def test_critical_path_shares_sum_below_one(self, single_app_run):
        bed, _app, _report = single_app_run
        shares = critical_path_shares(bed.log_store)
        assert shares
        assert 0.0 < sum(shares.values()) <= 1.0 + 1e-9
        assert shares["executor"] > 0
