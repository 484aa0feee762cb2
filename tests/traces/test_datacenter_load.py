"""Diurnal rack-load pattern ([13]'s typical datacenter demand)."""

import pytest

from repro.errors import TraceError
from repro.traces.datacenter_load import DiurnalLoadPattern
from repro.units import SECONDS_PER_DAY, SECONDS_PER_HOUR


@pytest.fixture
def pattern():
    return DiurnalLoadPattern()


def peak_hour(pattern):
    """Hour of day, to a tenth, at which ``pattern`` is highest."""
    return max(range(240), key=lambda tenth: pattern.at(tenth / 10 * SECONDS_PER_HOUR)) / 10


class TestShape:
    def test_bounded(self, pattern):
        for h in range(0, 24):
            v = pattern.at(h * SECONDS_PER_HOUR)
            assert pattern.trough - 1e-9 <= v <= 1.0 + 1e-9

    def test_peak_is_one(self, pattern):
        assert pattern.at(peak_hour(pattern) * SECONDS_PER_HOUR) == pytest.approx(1.0, abs=1e-3)

    def test_evening_peak(self, pattern):
        # The evening bump is the daily maximum, per the paper's Fig. 6.
        assert 18.0 <= peak_hour(pattern) <= 22.0

    def test_overnight_trough(self, pattern):
        assert pattern.at(3 * SECONDS_PER_HOUR) < 0.65

    def test_morning_activity(self, pattern):
        assert pattern.at(10 * SECONDS_PER_HOUR) > pattern.at(3 * SECONDS_PER_HOUR)

    def test_wraps_daily(self, pattern):
        assert pattern.at(5 * SECONDS_PER_HOUR) == pytest.approx(
            pattern.at(5 * SECONDS_PER_HOUR + SECONDS_PER_DAY)
        )

    def test_continuous_at_midnight(self, pattern):
        before = pattern.at(23.99 * SECONDS_PER_HOUR)
        after = pattern.at(0.01 * SECONDS_PER_HOUR)
        assert abs(before - after) < 0.01


class TestValidation:
    def test_bad_trough(self):
        with pytest.raises(TraceError):
            DiurnalLoadPattern(trough=1.0)

    def test_bad_width(self):
        with pytest.raises(TraceError):
            DiurnalLoadPattern(morning_width_h=0.0)

    def test_bad_weight(self):
        with pytest.raises(TraceError):
            DiurnalLoadPattern(evening_weight=-1.0)

    def test_custom_trough(self):
        pattern = DiurnalLoadPattern(trough=0.3)
        assert min(pattern.at(h * SECONDS_PER_HOUR) for h in range(24)) >= 0.3 - 1e-9


class TestWeeklyStructure:
    def test_default_has_no_weekend_dip(self, pattern):
        from repro.units import SECONDS_PER_DAY

        weekday = pattern.at(2 * SECONDS_PER_DAY + 12 * 3600.0)
        weekend = pattern.at(5 * SECONDS_PER_DAY + 12 * 3600.0)
        assert weekday == pytest.approx(weekend)

    def test_weekend_scale_applies_on_days_5_and_6(self):
        from repro.units import SECONDS_PER_DAY

        p = DiurnalLoadPattern(weekend_scale=0.7)
        noon = 12 * 3600.0
        weekday = p.at(2 * SECONDS_PER_DAY + noon)
        saturday = p.at(5 * SECONDS_PER_DAY + noon)
        sunday = p.at(6 * SECONDS_PER_DAY + noon)
        monday = p.at(7 * SECONDS_PER_DAY + noon)
        assert saturday == pytest.approx(0.7 * weekday)
        assert sunday == pytest.approx(0.7 * weekday)
        assert monday == pytest.approx(weekday)

    def test_bad_weekend_scale_rejected(self):
        with pytest.raises(TraceError):
            DiurnalLoadPattern(weekend_scale=0.0)
        with pytest.raises(TraceError):
            DiurnalLoadPattern(weekend_scale=1.2)
