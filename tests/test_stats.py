"""Unit tests for repro.utils.stats."""

from __future__ import annotations

import pytest

from repro.utils.stats import geomean_ratio, geometric_mean, mean


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
