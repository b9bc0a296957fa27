"""Tests for figure-result dataclasses (pure computation, no sims)."""

import pytest

from repro.core.stats import DelaySample
from repro.experiments.ablations import AblationResult
from repro.experiments.fig5 import Fig5Result
from repro.experiments.fig6 import Fig6Result
from repro.experiments.fig7 import Fig7Result
from repro.experiments.fig8 import Fig8Result
from repro.experiments.fig9 import Fig9Result
from repro.experiments.fig11 import Fig11Result
from repro.experiments.fig12 import Fig12Result
from repro.experiments.fig13 import Fig13Result
from repro.experiments.optimizations import OptimizationResult
from repro.experiments.table2 import Table2Result
from repro.experiments.table3 import TABLE3_COMPONENTS, Table3Result


def s(*values, name=""):
    return DelaySample(values, name=name)


class TestFig5Result:
    def test_ratio_and_rows(self):
        result = Fig5Result(
            series={
                "0.02GB": {
                    "total": s(1.0, 2.0),
                    "in": s(1.0),
                    "out": s(0.5),
                    "job": s(3.0),
                    "normalized": s(0.7),
                },
                "200GB": {
                    "total": s(4.0, 8.0),
                    "in": s(5.0),
                    "out": s(0.6),
                    "job": s(100.0),
                    "normalized": s(0.1),
                },
            }
        )
        assert result.ratio_p95_largest_vs_smallest() == pytest.approx(4.0)
        text = "\n".join(result.rows())
        assert "200GB" in text and "largest vs smallest" in text


class TestFig6Result:
    def test_accessors(self):
        result = Fig6Result(
            series={
                4: {"total": s(10.0), "cl_cf": s(1.0)},
                16: {"total": s(12.0), "cl_cf": s(3.0)},
            }
        )
        assert result.total_p95(16) == 12.0
        assert "16 executors" in "\n".join(result.rows())


class TestFig7Result:
    def test_rows_render_all_panels(self):
        result = Fig7Result(
            allocation={"ce": s(2.0), "de": s(0.025)},
            queueing={"ce": s(0.1), "de": s(30.0, 50.0)},
            acquisition={0.1: s(0.5, 0.9), 1.0: s(0.4, 0.95)},
        )
        text = "\n".join(result.rows())
        assert "speedup med" in text
        assert "load= 10%" in text and "load=100%" in text


class TestFig8Result:
    def test_rows_mention_bimodality(self):
        result = Fig8Result(
            series={
                "default": {
                    "localization": s(0.5),
                    "driver_localization": s(0.5),
                    "total": s(12.0),
                }
            }
        )
        assert "bimodality" in "\n".join(result.rows())


class TestFig9Result:
    def test_docker_overheads(self):
        result = Fig9Result(
            by_instance_type={"spe": s(0.7)},
            by_container_type={"default": s(0.7, 0.9), "docker": s(1.1, 1.6)},
        )
        assert result.docker_overhead_median() == pytest.approx(0.55)
        assert result.docker_overhead_p95() > 0


class TestFig11Result:
    def test_opt_tail_reduction(self):
        result = Fig11Result(
            by_workload={
                "wordcount": {"driver": s(3.0), "executor": s(5.0)},
                "sql": {"driver": s(3.0), "executor": s(9.0)},
            },
            by_variant={
                "opt": s(4.0),
                "x1": s(6.0),
                "x2": s(10.0),
                "x3": s(14.0),
                "x4": s(18.0),
            },
        )
        assert result.opt_tail_reduction() == pytest.approx(2.0)
        assert "Future-parallelized" in "\n".join(result.rows())


class TestInterferenceResults:
    def test_fig12_slowdowns(self):
        result = Fig12Result(
            series={
                0: {m: s(1.0) for m in ("total", "in", "out", "localization", "executor", "am")},
                100: {m: s(4.0) for m in ("total", "in", "out", "localization", "executor", "am")},
            }
        )
        assert result.slowdown(100, "total", 95) == pytest.approx(4.0)
        assert "[x 4.0 med" in "\n".join(result.rows())

    def test_fig13_slowdowns(self):
        result = Fig13Result(
            series={
                0: {m: s(2.0) for m in ("total", "in", "out", "driver", "executor", "localization")},
                16: {m: s(3.0) for m in ("total", "in", "out", "driver", "executor", "localization")},
            }
        )
        assert result.slowdown(16, "driver", 50) == pytest.approx(1.5)


class TestTableResults:
    def test_table2_monotonicity(self):
        assert Table2Result({0.1: 200.0, 1.0: 2000.0}).is_monotonic()
        assert not Table2Result({0.1: 2000.0, 1.0: 200.0}).is_monotonic()
        assert "throughput" in "\n".join(Table2Result({0.1: 200.0}).rows())

    def test_table3_rows_cover_components(self):
        result = Table3Result(
            report=None,
            mean_shares={c: 0.1 for c in TABLE3_COMPONENTS},
            critical_path={c: 0.1 for c in TABLE3_COMPONENTS if c != "am"},
        )
        text = "\n".join(result.rows())
        for component in TABLE3_COMPONENTS:
            assert component in text
        assert "JVM reuse" in text  # the optimization column


class TestStudyResults:
    def test_optimization_rows(self):
        result = OptimizationResult(
            jvm_reuse={
                "default": {"driver": s(2.5), "executor": s(6.0), "total": s(14.0)},
                "jvm_reuse": {"driver": s(1.2), "executor": s(4.0), "total": s(12.0)},
            },
            localization={"shared": s(6.0), "dedicated": s(1.2)},
            heartbeat={1.0: {"acquisition_p95": 0.98, "rpcs_per_second": 1.0}},
        )
        text = "\n".join(result.rows())
        assert "JVM reuse" in text and "heartbeat" in text

    def test_ablation_rows(self):
        result = AblationResult(
            eviction={"with_eviction": 9.0, "no_eviction": 1.2},
            gate={"gate_80": s(3.0), "gate_off": s(1.5)},
            localization_cache={"cache_on": 60.0, "cache_off": 170.0},
        )
        text = "\n".join(result.rows())
        assert "eviction" in text and "storm" in text
