"""Wind farm and hybrid renewable models."""

import pytest

from repro.errors import ConfigurationError, TraceError
from repro.power.solar import SolarFarm
from repro.power.wind import (
    CUT_IN_MS,
    CUT_OUT_MS,
    RATED_MS,
    HybridRenewable,
    WindFarm,
    WindSpeedTrace,
    turbine_power_fraction,
)
from repro.traces.nrel import synthesize_irradiance


class TestPowerCurve:
    def test_zero_below_cut_in(self):
        assert turbine_power_fraction(0.0) == 0.0
        assert turbine_power_fraction(CUT_IN_MS - 0.1) == 0.0

    def test_rated_between_rated_and_cut_out(self):
        assert turbine_power_fraction(RATED_MS) == 1.0
        assert turbine_power_fraction(CUT_OUT_MS - 0.1) == 1.0

    def test_storm_cut_out(self):
        assert turbine_power_fraction(CUT_OUT_MS) == 0.0
        assert turbine_power_fraction(40.0) == 0.0

    def test_cubic_ramp(self):
        mid = (CUT_IN_MS + RATED_MS) / 2
        assert 0.0 < turbine_power_fraction(mid) < 1.0
        # Cubic: halfway up the ramp gives 1/8 of rated.
        assert turbine_power_fraction(mid) == pytest.approx(0.125)

    def test_monotone_on_ramp(self):
        speeds = [CUT_IN_MS + i * 0.5 for i in range(16)]
        fractions = [turbine_power_fraction(s) for s in speeds]
        assert fractions == sorted(fractions)

    def test_negative_speed_rejected(self):
        with pytest.raises(TraceError):
            turbine_power_fraction(-1.0)


class TestWindSpeedTrace:
    def test_deterministic(self):
        a = WindSpeedTrace(days=1, seed=5)
        b = WindSpeedTrace(days=1, seed=5)
        assert list(a.speeds_ms) == list(b.speeds_ms)

    def test_positive_speeds(self):
        trace = WindSpeedTrace(days=2, seed=5)
        assert (trace.speeds_ms > 0).all()

    def test_mean_near_target(self):
        trace = WindSpeedTrace(days=7, mean_speed_ms=7.0, seed=5)
        assert trace.speeds_ms.mean() == pytest.approx(7.0, rel=0.25)

    def test_wraps(self):
        trace = WindSpeedTrace(days=1, seed=5)
        assert trace.at(trace.duration_s + 100.0) == trace.at(100.0)

    def test_validation(self):
        with pytest.raises(TraceError):
            WindSpeedTrace(days=0)
        with pytest.raises(TraceError):
            WindSpeedTrace(mean_speed_ms=0)
        with pytest.raises(TraceError):
            WindSpeedTrace(gustiness=-0.1)


class TestWindFarm:
    def test_power_bounded_by_rated(self):
        farm = WindFarm(WindSpeedTrace(days=1, seed=6), rated_power_w=500.0)
        for t in range(0, 86400, 3600):
            assert 0.0 <= farm.power_at(float(t)) <= 500.0

    def test_mean_power(self):
        farm = WindFarm(WindSpeedTrace(days=2, mean_speed_ms=8.0, seed=6), 1000.0)
        mean_w = sum(farm.power_at(t * 600.0) for t in range(288)) / 288
        assert 0.0 < mean_w < 1000.0

    def test_bad_rating_rejected(self):
        with pytest.raises(ConfigurationError):
            WindFarm(WindSpeedTrace(days=1), rated_power_w=0.0)


class TestHybrid:
    def test_sums_sources(self):
        solar = SolarFarm.sized_for(synthesize_irradiance(days=1, seed=4), 1000.0)
        wind = WindFarm(WindSpeedTrace(days=1, seed=4), 500.0)
        hybrid = HybridRenewable(solar, wind)
        t = 12 * 3600.0
        assert hybrid.power_at(t) == pytest.approx(
            solar.power_at(t) + wind.power_at(t)
        )

    def test_wind_fills_the_night(self):
        solar = SolarFarm.sized_for(synthesize_irradiance(days=1, seed=4), 1000.0)
        wind = WindFarm(WindSpeedTrace(days=1, mean_speed_ms=9.0, seed=4), 500.0)
        hybrid = HybridRenewable(solar, wind)
        midnight = hybrid.power_at(0.0)
        assert midnight == pytest.approx(wind.power_at(0.0))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            HybridRenewable()

    def test_non_source_rejected(self):
        with pytest.raises(ConfigurationError):
            HybridRenewable(object())

    def test_pdu_accepts_hybrid(self):
        from repro.power.battery import BatteryBank
        from repro.power.grid import GridSource
        from repro.power.pdu import PDU

        solar = SolarFarm.sized_for(synthesize_irradiance(days=1, seed=4), 1000.0)
        wind = WindFarm(WindSpeedTrace(days=1, seed=4), 500.0)
        pdu = PDU(HybridRenewable(solar, wind), BatteryBank(), GridSource())
        flows = pdu.supply(300.0, 12 * 3600.0, 900.0)
        assert flows.delivered_w == pytest.approx(300.0)
