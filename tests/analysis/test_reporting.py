"""ASCII report rendering."""

import pytest

from repro.analysis.reporting import format_series, format_table
from repro.errors import ConfigurationError


class TestTable:
    def test_alignment(self):
        text = format_table(["name", "gain"], [["GreenHetero", 1.55], ["Uniform", 1.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "1.550" in text

    def test_title(self):
        text = format_table(["a"], [[1]], title="Figure 9")
        assert text.splitlines()[0] == "Figure 9"

    def test_empty_headers_rejected(self):
        with pytest.raises(ConfigurationError):
            format_table([], [])

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            format_table(["a", "b"], [[1]])

    def test_empty_rows_ok(self):
        text = format_table(["a", "b"], [])
        assert "a" in text


class TestSeries:
    def test_wraps(self):
        text = format_series("pars", [0.1] * 30, per_line=10)
        assert text.count("\n") == 3  # header + 3 lines

    def test_header_includes_count(self):
        assert "(n=3)" in format_series("x", [1.0, 2.0, 3.0])

    def test_custom_format(self):
        assert "1.5x" in format_series("g", [1.5], fmt="{:.1f}x")
