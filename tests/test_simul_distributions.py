"""Tests for the seeded random substreams."""

import pickle
import zlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simul.distributions import RandomSource
from repro.workloads.scenarios import get_scenario, list_scenarios


def _reference(seed: int, name: str) -> np.random.Generator:
    """The stream ``RandomSource(seed, name)`` must draw."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(zlib.crc32(name.encode()),))
    )


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = RandomSource(5).child("x")
        b = RandomSource(5).child("x")
        assert [a.uniform() for _ in range(10)] == [b.uniform() for _ in range(10)]

    def test_different_names_differ(self):
        root = RandomSource(5)
        assert root.child("a").uniform() != root.child("b").uniform()

    def test_child_independent_of_sibling_creation_order(self):
        r1 = RandomSource(5)
        r1.child("first")
        v1 = r1.child("target").uniform()
        r2 = RandomSource(5)
        v2 = r2.child("target").uniform()
        assert v1 == v2

    def test_nested_names_compose(self):
        a = RandomSource(5).child("x").child("y")
        b = RandomSource(5, "root.x.y")
        assert a.uniform() == b.uniform()


_NAMES = st.text(min_size=1, max_size=20)
_STREAM_SEEDS = st.integers(min_value=0, max_value=2**63)


class TestStreamIdentity:
    """The generator is built on first use; it is still the same stream."""

    @settings(max_examples=25, deadline=None)
    @given(seed=_STREAM_SEEDS, name=_NAMES)
    def test_first_use_is_a_draw(self, seed, name):
        ref = _reference(seed, name)
        source = RandomSource(seed, name)
        assert [source.uniform() for _ in range(4)] == [
            float(ref.uniform(0.0, 1.0)) for _ in range(4)
        ]

    @settings(max_examples=25, deadline=None)
    @given(seed=_STREAM_SEEDS, name=_NAMES)
    def test_first_use_is_rng(self, seed, name):
        assert (
            RandomSource(seed, name).rng.random(4).tolist()
            == _reference(seed, name).random(4).tolist()
        )

    @settings(max_examples=25, deadline=None)
    @given(seed=_STREAM_SEEDS, name=_NAMES)
    def test_pickled_before_the_first_draw(self, seed, name):
        clone = pickle.loads(pickle.dumps(RandomSource(seed, name)))
        assert (clone.seed, clone.name) == (seed, name)
        assert clone.rng.random(4).tolist() == _reference(seed, name).random(4).tolist()

    @settings(max_examples=25, deadline=None)
    @given(seed=_STREAM_SEEDS, name=_NAMES)
    def test_pickled_after_the_first_draw(self, seed, name):
        ref = _reference(seed, name)
        source = RandomSource(seed, name)
        assert source.rng.random(3).tolist() == ref.random(3).tolist()
        clone = pickle.loads(pickle.dumps(source))
        expected = ref.random(4).tolist()
        assert clone.rng.random(4).tolist() == expected
        assert source.rng.random(4).tolist() == expected


class TestBuildsPerRun:
    """A run builds each ``(seed, name)`` generator at most once.

    Building one costs tens of microseconds, and a name built twice restarts its
    stream, so every repeat also repeats draws.
    """

    @pytest.mark.parametrize("preset", list_scenarios())
    def test_no_generator_is_built_twice(self, preset, monkeypatch):
        builds = Counter()
        real = np.random.SeedSequence

        def counting(entropy, spawn_key):
            builds[(entropy, spawn_key)] += 1
            return real(entropy=entropy, spawn_key=spawn_key)

        # RandomSource builds every generator through this attribute.
        monkeypatch.setattr(np.random, "SeedSequence", counting)
        get_scenario(preset).run()
        repeated = sorted(n for n in builds.values() if n > 1)
        assert builds and not repeated, (
            f"{sum(builds.values())} generators built for {len(builds)} "
            f"(seed, name) pairs; {len(repeated)} pairs built more than "
            f"once, up to {repeated[-1]} times"
        )


class TestDraws:
    def test_lognormal_median_is_the_median(self):
        rng = RandomSource(0).child("ln")
        draws = [rng.lognormal_median(3.0, 0.4) for _ in range(4000)]
        assert np.median(draws) == pytest.approx(3.0, rel=0.05)

    def test_lognormal_rejects_nonpositive_median(self):
        with pytest.raises(ValueError):
            RandomSource(0).lognormal_median(0.0)

    @settings(max_examples=50, deadline=None)
    @given(
        scale=st.floats(min_value=0.01, max_value=10.0),
        alpha=st.floats(min_value=0.5, max_value=5.0),
        cap_factor=st.floats(min_value=1.0, max_value=100.0),
    )
    def test_bounded_pareto_respects_bounds(self, scale, alpha, cap_factor):
        cap = scale * cap_factor
        rng = RandomSource(1).child("bp")
        for _ in range(20):
            draw = rng.bounded_pareto(scale, alpha, cap)
            assert scale <= draw <= cap

    def test_bounded_pareto_invalid_args(self):
        with pytest.raises(ValueError):
            RandomSource(0).bounded_pareto(2.0, 1.0, 1.0)

    def test_integers_range(self):
        rng = RandomSource(3).child("i")
        draws = {rng.integers(2, 5) for _ in range(100)}
        assert draws == {2, 3, 4}

    def test_sample_distinct_and_capped(self):
        rng = RandomSource(4).child("s")
        population = list(range(10))
        picked = rng.sample(population, 4)
        assert len(picked) == len(set(picked)) == 4
        assert rng.sample(population, 50) != []  # capped at len, no raise
        assert len(rng.sample(population, 50)) == 10

    def test_jitter_within_bounds(self):
        rng = RandomSource(5).child("j")
        for _ in range(100):
            v = rng.jitter(10.0, 0.2)
            assert 8.0 <= v <= 12.0

    def test_choice_picks_member(self):
        rng = RandomSource(7).child("c")
        assert rng.choice(["a", "b"]) in ("a", "b")

    def test_bernoulli_extremes(self):
        rng = RandomSource(8).child("bn")
        assert not any(rng.bernoulli(0.0) for _ in range(50))
        assert all(rng.bernoulli(1.0) for _ in range(50))
