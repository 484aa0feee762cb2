"""Persistence and moving-average predictor baselines."""

import pytest

from repro.core.predictor import (
    HoltPredictor,
    MovingAveragePredictor,
    PersistencePredictor,
)
from repro.errors import ConfigurationError


class TestPersistence:
    def test_predicts_last_value(self):
        p = PersistencePredictor()
        p.observe(3.0)
        p.observe(7.0)
        assert p.predict() == 7.0
        assert p.predict(horizon=5) == 7.0

    def test_ready_flag(self):
        p = PersistencePredictor()
        assert not p.ready
        p.observe(1.0)
        assert p.ready

    def test_predict_before_observe_rejected(self):
        with pytest.raises(ConfigurationError):
            PersistencePredictor().predict()

    def test_bad_horizon_rejected(self):
        p = PersistencePredictor()
        p.observe(1.0)
        with pytest.raises(ConfigurationError):
            p.predict(0)

    def test_nonnegative_clamp(self):
        p = PersistencePredictor(nonnegative=True)
        p.observe(-5.0)
        assert p.predict() == 0.0


class TestMovingAverage:
    def test_window_mean(self):
        p = MovingAveragePredictor(window=3)
        for v in (1.0, 2.0, 3.0, 4.0):
            p.observe(v)
        assert p.predict() == pytest.approx(3.0)  # mean of last 3

    def test_partial_window(self):
        p = MovingAveragePredictor(window=10)
        p.observe(4.0)
        p.observe(6.0)
        assert p.predict() == pytest.approx(5.0)

    def test_bad_window_rejected(self):
        with pytest.raises(ConfigurationError):
            MovingAveragePredictor(window=0)

    def test_predict_before_observe_rejected(self):
        with pytest.raises(ConfigurationError):
            MovingAveragePredictor().predict()


class TestSchedulerInterop:
    """The scheduler accepts any predictor behind the shared interface."""

    def test_scheduler_with_persistence(self):
        from repro.core.policies import UniformPolicy
        from repro.core.scheduler import AdaptiveScheduler

        s = AdaptiveScheduler(
            UniformPolicy(),
            renewable_predictor=PersistencePredictor(),
            demand_predictor=MovingAveragePredictor(window=2),
        )
        s.observe(500.0, 900.0)
        s.observe(450.0, 950.0)
        renewable, demand = s.forecast()
        assert renewable == 450.0
        assert demand == pytest.approx(925.0)

    def test_holt_lags_less_on_ramp(self):
        ramp = [float(10 * i) for i in range(30)]
        holt = HoltPredictor(alpha=0.8, beta=0.8)
        moving = MovingAveragePredictor(window=4)
        for v in ramp:
            holt.observe(v)
            moving.observe(v)
        truth = 300.0
        assert abs(holt.predict() - truth) < abs(moving.predict() - truth)
