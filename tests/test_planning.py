"""Capacity-planning sizing searches."""

import pytest

from repro.errors import ConfigurationError
from repro.planning import size_battery, size_grid, size_solar
from repro.sim.experiment import ExperimentConfig


@pytest.fixture(scope="module")
def quick_config():
    """A short, deterministic sizing scenario."""
    return ExperimentConfig(days=0.5, policies=("GreenHetero",), seed=3)


class TestSizeSolar:
    def test_finds_minimal_scale(self, quick_config):
        result = size_solar(
            quick_config, target_renewable_fraction=0.5, lo=0.2, hi=3.0,
            tolerance=0.2,
        )
        assert result.achieved >= result.target - 1e-9
        assert 0.2 <= result.value <= 3.0
        # Minimality: meaningfully below the scale would miss the target.
        smaller = size_solar(
            quick_config, target_renewable_fraction=0.5,
            lo=max(0.2, result.value - 0.5), hi=max(0.21, result.value - 0.5),
            tolerance=0.2,
        )
        if result.value - 0.5 > 0.2:
            assert smaller.achieved < smaller.target - 1e-9

    def test_unreachable_target_reports_miss(self, quick_config):
        result = size_solar(
            quick_config, target_renewable_fraction=1.0, lo=0.2, hi=0.3,
            tolerance=0.1,
        )
        assert result.achieved < result.target - 1e-9
        assert result.value == 0.3

    def test_bigger_target_needs_bigger_array(self, quick_config):
        small = size_solar(quick_config, 0.4, tolerance=0.2)
        large = size_solar(quick_config, 0.7, tolerance=0.2)
        assert large.value >= small.value - 0.21

    def test_bad_target_rejected(self, quick_config):
        with pytest.raises(ConfigurationError):
            size_solar(quick_config, target_renewable_fraction=0.0)


class TestSizeBattery:
    def test_finds_minimal_count(self, quick_config):
        result = size_battery(
            quick_config, target_renewable_fraction=0.6, solar_scale=1.4,
            lo=1, hi=24,
        )
        assert result.achieved >= result.target - 1e-9
        assert result.value == int(result.value)
        assert 1 <= result.value <= 24

    def test_bad_bounds_rejected(self, quick_config):
        with pytest.raises(ConfigurationError):
            size_battery(quick_config, lo=0)
        with pytest.raises(ConfigurationError):
            size_battery(quick_config, lo=5, hi=2)


class TestSizeGrid:
    def test_underprovisioning(self, quick_config):
        result = size_grid(
            quick_config, target_performance_fraction=0.85,
            lo=0.0, hi=1600.0, tolerance=200.0,
        )
        assert result.achieved >= result.target - 1e-9
        # GreenHetero sustains 85% of unconstrained perf well below the
        # full feed — the Fig. 12 argument.
        assert result.value < 1600.0

    def test_bad_target_rejected(self, quick_config):
        with pytest.raises(ConfigurationError):
            size_grid(quick_config, target_performance_fraction=1.5)
