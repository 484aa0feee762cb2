"""ASCII plotting helpers."""

import pytest

from repro.analysis.plotting import sparkline, timeline
from repro.errors import ConfigurationError


class TestSparkline:
    def test_length_matches_input(self):
        assert len(sparkline([1.0, 2.0, 3.0])) == 3

    def test_monotone_levels(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert line == "".join(sorted(line))

    def test_flat_series_mid_level(self):
        assert sparkline([5.0, 5.0]) == "▄▄"

    def test_fixed_bounds_clamp(self):
        line = sparkline([-10.0, 100.0], lo=0.0, hi=1.0)
        assert line[0] == "▁"
        assert line[1] == "█"

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            sparkline([])

    def test_bad_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            sparkline([1.0], lo=2.0, hi=1.0)


class TestTimeline:
    def test_stacked_series(self):
        text = timeline({"solar": [0, 1, 2], "soc": [2, 1, 0]})
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("solar")

    def test_stride(self):
        text = timeline({"x": list(range(8))}, stride=2)
        assert "x2" in text          # stride annotated on the axis
        assert "0 .. 3" in text      # 8 samples downsampled to 4

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            timeline({"a": [1], "b": [1, 2]})

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            timeline({})

    def test_bad_stride_rejected(self):
        with pytest.raises(ConfigurationError):
            timeline({"a": [1.0]}, stride=0)
