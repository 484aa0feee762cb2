"""Simulation clock."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.clock import SimClock
from repro.units import EPOCH_SECONDS, SECONDS_PER_DAY


class TestClock:
    def test_default_is_one_day_of_epochs(self):
        clock = SimClock()
        assert clock.n_epochs == 96
        assert clock.epoch_s == EPOCH_SECONDS

    def test_epoch_times(self):
        clock = SimClock(start_s=0.0, duration_s=3600.0, epoch_s=900.0)
        assert list(clock.epoch_times()) == [0.0, 900.0, 1800.0, 2700.0]

    def test_start_offset(self):
        clock = SimClock(start_s=SECONDS_PER_DAY, duration_s=1800.0, epoch_s=900.0)
        times = list(clock.epoch_times())
        assert times[0] == SECONDS_PER_DAY

    def test_partial_epoch_dropped(self):
        clock = SimClock(start_s=0.0, duration_s=1000.0, epoch_s=900.0)
        assert clock.n_epochs == 1

    def test_history_times_precede_start(self):
        clock = SimClock(start_s=SECONDS_PER_DAY)
        history = clock.history_times(4)
        assert len(history) == 4
        assert all(t < SECONDS_PER_DAY for t in history)
        assert history == sorted(history)
        assert history[-1] == SECONDS_PER_DAY - EPOCH_SECONDS

    def test_history_needs_positive_count(self):
        with pytest.raises(ConfigurationError):
            SimClock().history_times(0)

    def test_bad_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            SimClock(duration_s=0.0)

    def test_negative_start_rejected(self):
        with pytest.raises(ConfigurationError):
            SimClock(start_s=-1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["start_s", "duration_s", "epoch_s"])
    def test_non_finite_rejected(self, field, bad):
        with pytest.raises(ConfigurationError, match="finite"):
            SimClock(**{field: bad})
