"""Unit tests for repro.utils.tables."""

from __future__ import annotations

import pytest

from repro.utils.tables import format_table


class TestFormatTable:
    def test_contains_headers_and_rows(self):
        text = format_table(["name", "value"], [["a", 1], ["b", 2]])
        assert "name" in text and "value" in text
        assert "a" in text and "b" in text

    def test_title_is_first_line(self):
        text = format_table(["x"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_floats_are_formatted(self):
        text = format_table(["v"], [[1.23456]])
        assert "1.235" in text

    def test_columns_are_aligned(self):
        text = format_table(["col", "x"], [["aaaa", 1], ["b", 22]])
        lines = [line for line in text.splitlines() if "|" in line]
        positions = {line.index("|") for line in lines}
        assert len(positions) == 1

    def test_row_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_empty_rows_ok(self):
        text = format_table(["a"], [])
        assert "a" in text
