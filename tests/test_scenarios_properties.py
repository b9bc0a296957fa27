"""Property suite for the scenario layer.

Three families of properties, Hypothesis-driven:

* **Sampler determinism** — every arrival process is a pure function
  of (shape, seed): same substream ⇒ identical times, different seed ⇒
  different times, and the vectorized samplers hold that contract at
  production scale (a million submissions) without simulating anything.
* **Scenario determinism** — for *generated* scenarios (not just the
  shipped presets), building and running twice at one seed emits
  byte-identical log files.
* **Taxonomy invariant** — for any generated scenario, the extended
  Table I′ breakdown telescopes: every component is present and
  non-negative, and the components sum exactly to the end-to-end
  scheduling delay.
* **One timestamp semantics** — for generated scenarios and for the
  presets at drawn seeds, the report mined from the in-memory store
  equals the report mined from its dumped logs, diagnostics included.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.checker import SDChecker
from repro.core.decompose import BREAKDOWN_COMPONENTS
from repro.simul.distributions import RandomSource
from repro.workloads.scenarios import (
    ArrivalSpec,
    ClusterEvent,
    Scenario,
    TenantSpec,
    diurnal_arrivals,
    get_scenario,
    list_scenarios,
    mmpp_arrivals,
    poisson_arrivals,
)

SEEDS = st.integers(min_value=0, max_value=2**16)

_SAMPLER_SETTINGS = settings(max_examples=20, deadline=None)
# Full simulate+mine cycles per example: keep the example budget low.
_SCENARIO_SETTINGS = settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _sample(kind: str, n: int, seed: int):
    rng = RandomSource(seed, "prop").child("arrivals")
    if kind == "poisson":
        return poisson_arrivals(n, 0.3, rng)
    if kind == "mmpp":
        return mmpp_arrivals(n, [0.05, 0.9], 20.0, rng)
    return diurnal_arrivals(n, 0.05, 0.5, 120.0, rng)


ARRIVAL_KINDS = ("poisson", "mmpp", "diurnal")


class TestSamplerProperties:
    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    @given(seed=SEEDS, n=st.integers(min_value=1, max_value=400))
    @_SAMPLER_SETTINGS
    def test_deterministic_sorted_and_anchored(self, kind, seed, n):
        a = _sample(kind, n, seed)
        b = _sample(kind, n, seed)
        assert a == b  # bit-for-bit, not approximately
        assert len(a) == n
        assert a[0] == 0.0
        assert all(x <= y for x, y in zip(a, a[1:]))
        assert all(math.isfinite(t) for t in a)

    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    @given(seed=SEEDS)
    @_SAMPLER_SETTINGS
    def test_seed_actually_matters(self, kind, seed):
        assert _sample(kind, 50, seed) != _sample(kind, 50, seed + 1)

    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    def test_million_scale_is_deterministic(self, kind):
        """Production scale without simulation: 1M samples, twice."""
        n = 1_000_000
        a = _sample(kind, n, 2024)
        b = _sample(kind, n, 2024)
        assert len(a) == n
        assert a == b

    def test_substreams_are_independent_of_draw_order(self):
        """Consuming a sibling substream first must not shift arrivals."""
        root1 = RandomSource(7, "prop")
        first = poisson_arrivals(20, 0.3, root1.child("arrivals"))
        root2 = RandomSource(7, "prop")
        root2.child("tenants").uniform()  # sibling consumed out of order
        second = poisson_arrivals(20, 0.3, root2.child("arrivals"))
        assert first == second


def scenarios(draw) -> Scenario:
    """A small random scenario: 2-4 jobs so a run stays subsecond."""
    kind = draw(st.sampled_from(ARRIVAL_KINDS + ("trace",)))
    if kind in ("poisson", "trace"):
        arrivals = ArrivalSpec(kind=kind, rate_per_s=draw(
            st.floats(min_value=0.05, max_value=1.0)))
    elif kind == "mmpp":
        arrivals = ArrivalSpec(kind="mmpp", rates_per_s=(0.1, 0.8),
                               mean_dwell_s=draw(st.floats(min_value=5.0, max_value=40.0)))
    else:
        arrivals = ArrivalSpec(kind="diurnal", base_rate_per_s=0.05,
                               peak_rate_per_s=0.5,
                               period_s=draw(st.floats(min_value=60.0, max_value=300.0)))
    tenants = tuple(
        TenantSpec(f"t{i}", share=1.0 + i, weight=1.0 + i, num_executors=2)
        for i in range(draw(st.integers(min_value=1, max_value=2)))
    )
    events = ()
    if draw(st.booleans()):
        events = (ClusterEvent(at_s=draw(st.floats(min_value=5.0, max_value=30.0)),
                               kind="add"),)
    return Scenario(
        name="generated",
        n_jobs=draw(st.integers(min_value=2, max_value=4)),
        arrivals=arrivals,
        tenants=tenants,
        scheduler=draw(st.sampled_from(["capacity", "fair"])),
        cluster_events=events,
        params={"num_nodes": 3},
        dataset_bytes=256 * 1024 * 1024,
        default_seed=draw(SEEDS),
    )


def _report_json(report) -> str:
    return json.dumps(report.to_dict(include_diagnostics=True), sort_keys=True)


def _assert_store_mines_like_its_dump(run, directory) -> None:
    """Dump the run's logs to ``directory``; its in-memory report must
    equal the dumped logs' report, diagnostics included."""
    run.testbed.dump_logs(directory)
    dumped = SDChecker(jobs=1).analyze(directory)
    assert _report_json(run.report) == _report_json(dumped)


class TestGeneratedScenarios:
    @given(data=st.data())
    @_SCENARIO_SETTINGS
    def test_same_seed_byte_identical_logs(self, data, tmp_path_factory):
        scenario = scenarios(data.draw)
        dirs = []
        for i in range(2):
            run = scenario.run()
            out = tmp_path_factory.mktemp("gen") / f"run{i}"
            _assert_store_mines_like_its_dump(run, out)
            dirs.append(out)
        a, b = (sorted(d.iterdir()) for d in dirs)
        assert [p.name for p in a] == [p.name for p in b]
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes(), pa.name

    @given(data=st.data())
    @_SCENARIO_SETTINGS
    def test_breakdown_telescopes(self, data):
        """queue_wait + am_launch + driver + preemption + ramp == total."""
        scenario = scenarios(data.draw)
        run = scenario.run()
        assert len(run.report) == scenario.n_jobs
        for app in run.report.apps:
            parts = [getattr(app, c) for c in BREAKDOWN_COMPONENTS]
            assert all(p is not None for p in parts), app.app_id
            assert all(p >= 0 for p in parts), app.app_id
            assert sum(parts) == pytest.approx(app.total_delay, abs=1e-9)


class TestStoreMatchesDump:
    @given(name=st.sampled_from(list_scenarios()), seed=SEEDS)
    @_SCENARIO_SETTINGS
    def test_preset_at_drawn_seed(self, name, seed, tmp_path_factory):
        run = get_scenario(name).run(seed)
        _assert_store_mines_like_its_dump(run, tmp_path_factory.mktemp("preset"))
