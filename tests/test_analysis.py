"""Tests for ASCII table/chart rendering."""

import pytest

from repro.analysis.charts import ascii_bars, ascii_series
from repro.analysis.tables import ascii_table, format_number, format_pct


class TestFormatting:
    def test_format_number_ints(self):
        assert format_number(1234567) == "1,234,567"

    def test_format_number_floats(self):
        assert format_number(0.123456) == "0.123"
        assert format_number(1e9) == "1.000e+09"
        assert format_number(0) == "0"

    def test_format_pct(self):
        assert format_pct(0.1856) == "18.56%"
        assert format_pct(0.002, signed=True) == "+0.20%"


class TestAsciiTable:
    def test_renders_all_cells(self):
        text = ascii_table(["a", "b"], [[1, "x"], [2, "y"]], title="T")
        assert "T" in text
        assert "| 1" in text and "| x" in text
        assert text.count("+") >= 9  # box joints

    def test_alignment_consistent(self):
        text = ascii_table(["col"], [["short"], ["a much longer cell"]])
        lines = [l for l in text.splitlines() if l.startswith("|")]
        assert len({len(l) for l in lines}) == 1


class TestCharts:
    def test_bars_scale_to_peak(self):
        text = ascii_bars(["a", "b"], [10.0, 5.0], width=10)
        lines = text.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_bars_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            ascii_bars(["a"], [1.0, 2.0])

    def test_bars_empty(self):
        assert "(no data)" in ascii_bars([], [], title="t")

    def test_series_groups_by_label(self):
        text = ascii_series(
            ["2x", "3x"], {"conv": [1.0, 2.0], "ppb": [0.9, 1.8]}, width=10
        )
        assert "2x" in text and "3x" in text
        assert "conv" in text and "ppb" in text

    def test_series_empty(self):
        assert "(no data)" in ascii_series([], {"a": []})

