"""Unit tests for repro.utils.stats."""

from __future__ import annotations

import math

import pytest

from repro.utils.stats import (
    RunningStats,
    geomean_ratio,
    geometric_mean,
    mean,
    normalize,
)


class TestMean:
    def test_simple_mean(self):
        assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_empty_is_zero(self):
        assert mean([]) == 0.0


class TestGeometricMean:
    def test_matches_closed_form(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_empty_is_zero(self):
        assert geometric_mean([]) == 0.0

    def test_zero_values_do_not_collapse(self):
        assert geometric_mean([0.0, 1.0]) > 0.0

    def test_single_value(self):
        assert geometric_mean([3.5]) == pytest.approx(3.5)


class TestGeomeanRatio:
    def test_per_key_ratios_against_the_reference(self):
        reference = {"a": 2.0, "b": 8.0, "idle": 0.0, "new": 0.0}
        values = {"a": 4.0, "b": 2.0, "idle": 0.0, "new": 5.0}
        # Ratios 2.0 and 0.25, plus 1.0 for the key idle on both sides;
        # a key with work only in ``values`` has no ratio.
        assert geomean_ratio(values, reference) == pytest.approx(0.5 ** (1 / 3))

    def test_no_ratio_is_zero(self):
        assert geomean_ratio({"new": 5.0}, {"new": 0.0}) == 0.0


class TestNormalize:
    def test_normalizes_to_reference(self):
        result = normalize({"a": 2.0, "b": 4.0}, "a")
        assert result == {"a": 1.0, "b": 2.0}

    def test_missing_reference_raises(self):
        with pytest.raises(KeyError):
            normalize({"a": 1.0}, "missing")

    def test_zero_reference_returns_unchanged(self):
        values = {"a": 0.0, "b": 3.0}
        assert normalize(values, "a") == values


class TestRunningStats:
    def test_tracks_extrema_and_mean(self):
        stats = RunningStats()
        stats.extend([1.0, 5.0, 3.0])
        assert stats.count == 3
        assert stats.minimum == 1.0
        assert stats.maximum == 5.0
        assert stats.mean == pytest.approx(3.0)

    def test_variance_and_stddev(self):
        stats = RunningStats()
        stats.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert stats.variance == pytest.approx(4.0)
        assert stats.stddev == pytest.approx(2.0)

    def test_empty_stats(self):
        stats = RunningStats()
        assert stats.mean == 0.0
        assert stats.variance == 0.0
        assert math.isinf(stats.minimum)

    def test_merge_combines_counts(self):
        a = RunningStats()
        a.extend([1.0, 2.0])
        b = RunningStats()
        b.extend([3.0, 4.0])
        merged = a.merge(b)
        assert merged.count == 4
        assert merged.minimum == 1.0
        assert merged.maximum == 4.0
        assert merged.mean == pytest.approx(2.5)
