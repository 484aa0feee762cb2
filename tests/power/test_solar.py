"""Solar farm model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.power.solar import DEFAULT_SYSTEM_EFFICIENCY, SolarFarm
from repro.traces.nrel import GHI_PEAK
from repro.traces.nrel import Weather, synthesize_irradiance


@pytest.fixture(scope="module")
def high_trace():
    return synthesize_irradiance(days=2, weather=Weather.HIGH, seed=1)


class TestConversion:
    def test_power_proportional_to_irradiance(self, high_trace):
        farm = SolarFarm(high_trace, panel_area_m2=10.0, efficiency=0.2)
        t = 12 * 3600.0  # noon
        assert farm.power_at(t) == pytest.approx(high_trace.at(t) * 10.0 * 0.2)

    def test_night_is_zero(self, high_trace):
        farm = SolarFarm(high_trace, panel_area_m2=10.0)
        assert farm.power_at(0.0) == 0.0  # midnight

    def test_mean_power(self, high_trace):
        farm = SolarFarm(high_trace, panel_area_m2=10.0, efficiency=0.2)
        mean_w = np.mean([farm.power_at(t) for t in high_trace.times_s])
        assert mean_w == pytest.approx(high_trace.values_w_m2.mean() * 2.0)


class TestSizing:
    def test_sized_for_peak(self, high_trace):
        farm = SolarFarm.sized_for(high_trace, peak_power_w=1500.0)
        assert GHI_PEAK * farm.panel_area_m2 * farm.efficiency == pytest.approx(1500.0)

    def test_sizing_independent_of_weather(self, high_trace):
        low_trace = synthesize_irradiance(days=2, weather=Weather.LOW, seed=1)
        high = SolarFarm.sized_for(high_trace, peak_power_w=1500.0)
        low = SolarFarm.sized_for(low_trace, peak_power_w=1500.0)
        # Same installed capacity; only the weather differs.
        assert high.panel_area_m2 == pytest.approx(low.panel_area_m2)

    def test_high_trace_outproduces_low(self, high_trace):
        low_trace = synthesize_irradiance(days=2, weather=Weather.LOW, seed=1)
        high = SolarFarm.sized_for(high_trace, peak_power_w=1500.0)
        low = SolarFarm.sized_for(low_trace, peak_power_w=1500.0)
        assert np.mean([high.power_at(t) for t in high_trace.times_s]) > np.mean(
            [low.power_at(t) for t in low_trace.times_s]
        )


class TestValidation:
    def test_bad_area(self, high_trace):
        with pytest.raises(ConfigurationError):
            SolarFarm(high_trace, panel_area_m2=0.0)

    def test_bad_efficiency(self, high_trace):
        with pytest.raises(ConfigurationError):
            SolarFarm(high_trace, panel_area_m2=1.0, efficiency=1.5)

    def test_bad_peak(self, high_trace):
        with pytest.raises(ConfigurationError):
            SolarFarm.sized_for(high_trace, peak_power_w=-10.0)

    def test_default_efficiency_reasonable(self):
        assert 0.1 <= DEFAULT_SYSTEM_EFFICIENCY <= 0.25
