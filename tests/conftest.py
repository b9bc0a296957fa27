"""Shared fixtures.

Most tests run against a deliberately small testbed (4-6 nodes) so the
whole suite stays fast; the session-scoped ``single_app_run`` fixture
performs one full Spark-on-YARN simulation that the SDchecker-side
tests all analyze.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.checker import SDChecker
from repro.params import GB, SimulationParams
from repro.simul.engine import Simulator
from repro.spark.application import SparkApplication
from repro.testbed import Testbed
from repro.workloads.tpch import TPCHDataset, TPCHQueryWorkload


@pytest.fixture(scope="session", autouse=True)
def _repro_sanitizer():
    """Arm the runtime sanitizer for the whole suite under REPRO_SANITIZE=1.

    The loop-stall monitor and the checked executor boundary accumulate
    findings as tests run; any violation fails the session at teardown
    with the offending callbacks/workers named.
    """
    from repro.analysis import sanitizer

    if not sanitizer.enabled():
        yield
        return
    sanitizer.reset()
    sanitizer.install_loop_monitor()
    yield
    sanitizer.uninstall_loop_monitor()
    violations = sanitizer.report()
    sanitizer.reset()
    assert not violations, "sanitizer violations:\n" + "\n".join(
        f.render() for f in violations
    )


@pytest.fixture(scope="session")
def src_index():
    """One sdlint index of this checkout's ``src`` tree, as a run builds it.

    Shared by the analysis tests that check the real tree; nothing
    mutates it after its call graph is built.
    """
    from repro.analysis.callgraph import ProjectIndex

    return ProjectIndex.build(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def small_params() -> SimulationParams:
    return SimulationParams(num_nodes=5)


@pytest.fixture
def bed(small_params) -> Testbed:
    return Testbed(params=small_params, seed=7)


def make_query_app(name: str = "q1", query: int = 1, **kwargs) -> SparkApplication:
    """A fresh TPC-H query app (own dataset, so no cross-test sharing)."""
    dataset = TPCHDataset(2 * GB, name=f"ds-{name}-{id(kwargs) % 10_000}")
    return SparkApplication(
        name, TPCHQueryWorkload(dataset, query=query), num_executors=4, **kwargs
    )


@pytest.fixture(scope="session")
def single_app_run():
    """(testbed, app, report) of one completed TPC-H query job."""
    bed = Testbed(params=SimulationParams(num_nodes=5), seed=11)
    app = make_query_app("session-q1")
    bed.submit(app)
    bed.run_until_all_finished(limit=5000)
    report = SDChecker().analyze(bed.log_store)
    return bed, app, report


@pytest.fixture(scope="session")
def opportunistic_run():
    """A completed run in distributed/opportunistic mode (with the bug)."""
    bed = Testbed(
        params=SimulationParams(num_nodes=5), seed=13, distributed_scheduling=True
    )
    app = make_query_app("session-opp", opportunistic=True)
    bed.submit(app)
    bed.run_until_all_finished(limit=5000)
    report = SDChecker().analyze(bed.log_store)
    return bed, app, report
