"""Tests + properties for the delay-sample statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.stats import DelaySample, ratio_of

floats = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


class TestBasics:
    def test_none_values_dropped(self):
        s = DelaySample([1.0, None, 3.0, None])
        assert len(s) == 2

    def test_empty_sample_statistics_are_nan(self):
        s = DelaySample([])
        assert not s
        assert math.isnan(s.p50) and math.isnan(s.mean()) and math.isnan(s.std())
        assert s.cdf() == [] and s.histogram() == []

    def test_known_percentiles(self):
        s = DelaySample(range(1, 101))
        assert s.p50 == pytest.approx(50.5)
        assert s.percentile(0) == 1.0
        assert s.percentile(100) == 100.0

    def test_min_max(self):
        s = DelaySample([5.0, 1.0, 3.0])
        assert s.min() == 1.0 and s.max() == 5.0

    def test_describe_mentions_name(self):
        assert DelaySample([1.0], name="total").describe().startswith("total:")
        assert "empty" in DelaySample([], name="x").describe()


class TestCdf:
    def test_cdf_endpoints(self):
        s = DelaySample([1.0, 2.0, 3.0, 4.0])
        cdf = s.cdf()
        assert cdf[0] == (1.0, 0.25)
        assert cdf[-1] == (4.0, 1.0)

    def test_cdf_downsamples_large_inputs(self):
        s = DelaySample(range(10_000))
        cdf = s.cdf(points=50)
        assert len(cdf) == 50

    @settings(max_examples=40, deadline=None)
    @given(st.lists(floats, min_size=1, max_size=200))
    def test_cdf_monotone(self, values):
        cdf = DelaySample(values).cdf()
        xs = [x for x, _ in cdf]
        ys = [y for _, y in cdf]
        assert xs == sorted(xs)
        assert ys == sorted(ys)
        assert 0.0 < ys[-1] <= 1.0 + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.lists(floats, min_size=1, max_size=100), st.floats(0, 100))
    def test_percentile_within_range(self, values, q):
        s = DelaySample(values)
        p = s.percentile(q)
        assert s.min() - 1e-9 <= p <= s.max() + 1e-9


class TestHistogram:
    def test_counts_sum_to_n(self):
        s = DelaySample([1, 2, 2, 3, 10])
        hist = s.histogram(bins=5)
        assert sum(c for _e, c in hist) == 5


class TestRatios:
    """Sample ratios as the report's comparison table takes them:
    ``ratio_of`` over the two samples' percentiles."""

    def test_ratio_to(self):
        a = DelaySample([10.0] * 5)
        b = DelaySample([2.0] * 5)
        assert ratio_of(b.p50, a.p50) == pytest.approx(5.0)

    def test_ratio_to_empty_is_nan(self):
        assert math.isnan(ratio_of(DelaySample([]).p50, DelaySample([1.0]).p50))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=0.1, max_value=1e3), min_size=2, max_size=50))
    def test_self_ratio_is_one(self, values):
        s = DelaySample(values)
        assert ratio_of(s.p50, s.p50) == pytest.approx(1.0)


class TestEdgeCases:
    """Degenerate samples behave deterministically, never raise."""

    def test_all_none_is_empty(self):
        s = DelaySample([None, None, None])
        assert len(s) == 0 and not s
        assert math.isnan(s.p50) and math.isnan(s.p95) and math.isnan(s.p99)
        assert math.isnan(s.min()) and math.isnan(s.max())
        assert s.cdf() == [] and s.histogram() == []
        assert s.describe().endswith("empty")

    def test_single_value_statistics_collapse_to_it(self):
        s = DelaySample([2.5])
        assert len(s) == 1
        for q in (0, 50, 95, 99, 100):
            assert s.percentile(q) == 2.5
        assert s.mean() == 2.5 and s.std() == 0.0
        assert s.min() == 2.5 and s.max() == 2.5
        assert s.cdf() == [(2.5, 1.0)]
        assert sum(count for _edge, count in s.histogram()) == 1

    def test_ratio_to_empty_is_nan(self):
        assert math.isnan(ratio_of(DelaySample([]).p50, DelaySample([1.0]).p50))

    def test_empty_ratio_to_populated_is_nan(self):
        assert math.isnan(ratio_of(DelaySample([1.0]).p50, DelaySample([]).p50))

    def test_ratio_to_zero_denominator_is_nan(self):
        assert math.isnan(ratio_of(DelaySample([0.0]).p50, DelaySample([1.0]).p50))

    def test_ratio_to_zero_vs_zero_is_one(self):
        # All-zero components (preemption_delay in a calm run) compare
        # as "unchanged", not undefined — the compare() fix extended to
        # the sample layer for the what-if delta tables.
        assert ratio_of(DelaySample([0.0]).p50, DelaySample([0.0, 0.0]).p50) == 1.0

    def test_ratio_of_edge_semantics(self):
        assert ratio_of(2.0, 5.0) == pytest.approx(2.5)
        assert ratio_of(0.0, 0.0) == 1.0
        assert math.isnan(ratio_of(0.0, 1.0))
        assert math.isnan(ratio_of(float("nan"), 1.0))
        assert math.isnan(ratio_of(1.0, float("nan")))

    def test_empty_cdf_and_histogram_lengths_are_stable(self):
        s = DelaySample([])
        # Same zero-length views regardless of requested resolution.
        assert s.cdf(points=7) == [] and s.histogram(bins=3) == []

    def test_none_mixed_with_values_keeps_order_independence(self):
        a = DelaySample([None, 3.0, 1.0, None, 2.0])
        b = DelaySample([1.0, 2.0, 3.0])
        assert list(a.values) == list(b.values)
