"""Unit tests for repro.utils.rng."""

from __future__ import annotations

import pytest

from repro.utils.rng import SeededRNG, derive_seed


class TestDeriveSeed:
    def test_same_inputs_same_seed(self):
        assert derive_seed(42, "policy", 1) == derive_seed(42, "policy", 1)

    def test_different_labels_different_seeds(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_different_base_different_seeds(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_seed_is_non_negative_63_bit(self):
        seed = derive_seed(123, "label")
        assert 0 <= seed < 2**63


class TestSeededRNG:
    def test_reproducible_sequences(self):
        a = SeededRNG(7)
        b = SeededRNG(7)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_seeds_differ(self):
        assert SeededRNG(1).random() != SeededRNG(2).random()

    def test_spawn_is_deterministic_and_independent(self):
        parent = SeededRNG(3)
        child_a = parent.spawn("x")
        child_b = SeededRNG(3).spawn("x")
        assert child_a.random() == child_b.random()
        assert parent.spawn("x").seed != parent.spawn("y").seed

    def test_randint_bounds(self):
        rng = SeededRNG(0)
        values = [rng.randint(2, 5) for _ in range(50)]
        assert all(2 <= v <= 5 for v in values)

    def test_uniform_bounds(self):
        rng = SeededRNG(0)
        values = [rng.uniform(-1.0, 1.0) for _ in range(50)]
        assert all(-1.0 <= v <= 1.0 for v in values)

    def test_choice_rejects_empty(self):
        with pytest.raises(ValueError):
            SeededRNG(0).choice([])

    def test_choice_returns_member(self):
        rng = SeededRNG(0)
        options = ["a", "b", "c"]
        assert all(rng.choice(options) in options for _ in range(20))

    def test_weighted_choice_respects_zero_weight(self):
        rng = SeededRNG(0)
        values = [rng.weighted_choice(["x", "y"], [1.0, 0.0]) for _ in range(20)]
        assert set(values) == {"x"}

    def test_weighted_choice_length_mismatch(self):
        with pytest.raises(ValueError):
            SeededRNG(0).weighted_choice(["a"], [1.0, 2.0])

    def test_maybe_extremes(self):
        rng = SeededRNG(0)
        assert not any(rng.maybe(0.0) for _ in range(20))
        assert all(rng.maybe(1.0) for _ in range(20))

    def test_sample_returns_distinct_items(self):
        rng = SeededRNG(0)
        sample = rng.sample(range(10), 4)
        assert len(sample) == 4
        assert len(set(sample)) == 4

    def test_shuffle_preserves_elements(self):
        rng = SeededRNG(0)
        items = list(range(10))
        rng.shuffle(items)
        assert sorted(items) == list(range(10))
