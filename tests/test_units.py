"""Unit tests for repro.units."""

from __future__ import annotations

import pytest

from repro.units import (
    CACHE_LINE_BYTES,
    GB,
    KB,
    MB,
    align_down,
    align_up,
    bytes_to_lines,
)


class TestConstants:
    def test_size_constants_are_consistent(self):
        assert KB == 1024
        assert MB == 1024 * KB
        assert GB == 1024 * MB

    def test_cache_line_is_64_bytes(self):
        assert CACHE_LINE_BYTES == 64


class TestBytesToLines:
    def test_exact_multiple(self):
        assert bytes_to_lines(128, 64) == 2

    def test_rounds_up_partial_lines(self):
        assert bytes_to_lines(65, 64) == 2
        assert bytes_to_lines(1, 64) == 1

    def test_zero_and_negative_sizes(self):
        assert bytes_to_lines(0) == 0
        assert bytes_to_lines(-10) == 0

    def test_custom_line_size(self):
        assert bytes_to_lines(1024, 256) == 4


class TestAlignment:
    def test_align_up(self):
        assert align_up(100, 64) == 128
        assert align_up(128, 64) == 128
        assert align_up(0, 64) == 0

    def test_align_down(self):
        assert align_down(100, 64) == 64
        assert align_down(128, 64) == 128

    def test_alignment_must_be_positive(self):
        with pytest.raises(ValueError):
            align_up(10, 0)
        with pytest.raises(ValueError):
            align_down(10, -4)
