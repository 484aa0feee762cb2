"""Holt double-exponential-smoothing predictor (Eq. 2-5)."""

import numpy as np
import pytest

from repro import ExperimentConfig
from repro.core.policies import make_policy
from repro.core import predictor
from repro.core.predictor import HoltPredictor
from repro.errors import ConfigurationError
from repro.obs.metrics import REGISTRY, obs_enabled, set_enabled
from repro.sim.engine import Simulation


class TestEquations:
    def test_first_observation_seeds_level(self):
        p = HoltPredictor(alpha=0.5, beta=0.5)
        p.observe(10.0)
        assert p.state_dict()["level"] == 10.0
        assert p.state_dict()["trend"] == 0.0

    def test_recurrence_matches_paper(self):
        alpha, beta = 0.6, 0.3
        p = HoltPredictor(alpha=alpha, beta=beta, nonnegative=False)
        p.observe(10.0)
        p.observe(14.0)
        p.observe(15.0)
        # Manual Eq. 2-3 with the standard initialisation S_1 after
        # absorbing O_1=14 with B_0 = O_1 - O_0 = 4:
        s1 = alpha * 14.0 + (1 - alpha) * (10.0 + 4.0)
        b1 = beta * (s1 - 10.0) + (1 - beta) * 4.0
        s2 = alpha * 15.0 + (1 - alpha) * (s1 + b1)
        b2 = beta * (s2 - s1) + (1 - beta) * b1
        assert p.state_dict()["level"] == pytest.approx(s2)
        assert p.state_dict()["trend"] == pytest.approx(b2)
        assert p.predict() == pytest.approx(s2 + b2)

    def test_horizon_extrapolates_trend(self):
        p = HoltPredictor(alpha=1.0, beta=1.0, nonnegative=False)
        for v in (0.0, 1.0, 2.0, 3.0):
            p.observe(v)
        assert p.predict(1) == pytest.approx(4.0)
        assert p.predict(3) == pytest.approx(6.0)

    def test_tracks_linear_series_exactly(self):
        p = HoltPredictor(alpha=0.8, beta=0.8)
        for v in np.arange(0.0, 50.0, 2.0):
            p.observe(float(v))
        assert p.predict() == pytest.approx(50.0, abs=0.5)

    def test_nonnegative_clamp(self):
        p = HoltPredictor(alpha=1.0, beta=1.0, nonnegative=True)
        p.observe(10.0)
        p.observe(1.0)
        p.observe(0.0)
        assert p.predict() == 0.0

    def test_without_clamp_can_go_negative(self):
        p = HoltPredictor(alpha=1.0, beta=1.0, nonnegative=False)
        p.observe(10.0)
        p.observe(1.0)
        p.observe(0.0)
        assert p.predict() < 0.0


class TestLifecycle:
    def test_predict_before_observe_rejected(self):
        with pytest.raises(ConfigurationError):
            HoltPredictor().predict()

    def test_bad_horizon_rejected(self):
        p = HoltPredictor()
        p.observe(1.0)
        with pytest.raises(ConfigurationError):
            p.predict(0)

    def test_ready_flag(self):
        p = HoltPredictor()
        assert not p.ready
        p.observe(1.0)
        assert p.ready

    @pytest.mark.parametrize("alpha,beta", [(-0.1, 0.5), (1.1, 0.5), (0.5, -0.1), (0.5, 2.0)])
    def test_bad_constants_rejected(self, alpha, beta):
        with pytest.raises(ConfigurationError):
            HoltPredictor(alpha=alpha, beta=beta)


class TestTraining:
    """Eq. 5: alpha/beta minimise squared one-step error."""

    def _solar_like(self, n=96):
        t = np.arange(n)
        return np.maximum(0.0, np.sin((t - 24) * np.pi / 48)) * 1000.0

    def test_sse_computes(self):
        history = self._solar_like()
        assert HoltPredictor.sse(history, 0.5, 0.3) > 0.0

    def test_sse_needs_history(self):
        with pytest.raises(ConfigurationError):
            HoltPredictor.sse([1.0, 2.0], 0.5, 0.5)

    def test_fit_beats_default_constants(self):
        history = self._solar_like()
        fitted = HoltPredictor.fit(history)
        fitted_sse = HoltPredictor.sse(history, fitted.alpha, fitted.beta)
        default_sse = HoltPredictor.sse(history, 0.5, 0.3)
        assert fitted_sse <= default_sse + 1e-9

    def test_fit_primes_state(self):
        fitted = HoltPredictor.fit(self._solar_like())
        assert fitted.ready
        assert fitted.predict() >= 0.0

    def test_fit_constants_in_bounds(self):
        fitted = HoltPredictor.fit(self._solar_like())
        assert 0.0 <= fitted.alpha <= 1.0
        assert 0.0 <= fitted.beta <= 1.0

    def test_fit_needs_history(self):
        with pytest.raises(ConfigurationError):
            HoltPredictor.fit([1.0, 2.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_fit_rejects_non_finite_history(self, bad):
        history = self._solar_like()
        history[40] = bad
        with pytest.raises(ConfigurationError, match="finite"):
            HoltPredictor.fit(history)

    def test_fitted_predictor_tracks_solar_ramp(self):
        # One-step forecasts of a smooth solar ramp should be close.
        history = self._solar_like()
        p = HoltPredictor.fit(history[:48])
        errors = []
        for obs in history[48:72]:
            errors.append(abs(p.predict() - obs))
            p.observe(float(obs))
        assert np.mean(errors) < 100.0  # within 10% of the 1 kW peak


class TestRefinement:
    """The L-BFGS-B step after the 11x11 grid changes the trained constants."""

    def test_leaves_the_grid_on_reference_rack(self, monkeypatch):
        histories = []
        fit = HoltPredictor.fit.__func__

        def capturing(cls, history, *args, **kwargs):
            histories.append(np.asarray(history, dtype=float))
            return fit(cls, history, *args, **kwargs)

        monkeypatch.setattr(HoltPredictor, "fit", classmethod(capturing))
        config = ExperimentConfig.fig8_default(seed=8084)
        Simulation.assemble(
            policy=make_policy("GreenHetero"),
            rack=config.build_rack(),
            weather=config.weather,
            clock=config.build_clock(),
            solar_scale=config.solar_scale,
            seed=config.seed,
        )
        renewable = histories[0]  # pretraining fits renewable, then demand

        grid = np.linspace(0.0, 1.0, 11)
        alphas, betas = np.repeat(grid, 11), np.tile(grid, 11)
        grid_best = HoltPredictor.sse_batch(renewable, alphas, betas).min()
        fitted = fit(HoltPredictor, renewable)
        on_grid = np.isclose(fitted.alpha, grid).any() and np.isclose(fitted.beta, grid).any()
        assert not on_grid, (fitted.alpha, fitted.beta)
        assert HoltPredictor.sse(renewable, fitted.alpha, fitted.beta) < grid_best


class TestStateDict:
    def _primed(self):
        p = HoltPredictor(alpha=0.6, beta=0.3)
        for v in (10.0, 14.0, 15.0, 13.0):
            p.observe(v)
        return p

    def test_round_trip_bit_identical(self):
        p = self._primed()
        q = HoltPredictor()
        q.load_state_dict(p.state_dict())
        assert q.state_dict() == p.state_dict()
        assert q.predict(3) == p.predict(3)

    def test_restored_predictor_keeps_learning(self):
        p = self._primed()
        q = HoltPredictor()
        q.load_state_dict(p.state_dict())
        p.observe(16.0)
        q.observe(16.0)
        assert q.predict() == p.predict()

    def test_unprimed_round_trip(self):
        p = HoltPredictor(alpha=0.5, beta=0.5)
        q = HoltPredictor()
        q.load_state_dict(p.state_dict())
        assert not q.ready
        assert q.state_dict() == p.state_dict()

    def test_malformed_state_rejected(self):
        with pytest.raises(ConfigurationError):
            HoltPredictor().load_state_dict({"alpha": 0.5})

    def test_invalid_smoothing_rejected(self):
        state = HoltPredictor(alpha=0.5, beta=0.5).state_dict()
        state["alpha"] = 7.0
        with pytest.raises(ConfigurationError):
            HoltPredictor().load_state_dict(state)


def _pretraining_histories(config):
    """The (renewable, demand) histories ``pretrained_predictors`` fits,
    captured without fitting them."""
    histories = []

    def capture(cls, history, *args, **kwargs):
        histories.append(list(history))
        return cls()

    clock = config.build_clock()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(HoltPredictor, "fit", classmethod(capture))
        Simulation.pretrained_predictors(
            config.build_rack(), clock,
            Simulation.default_trace(clock, config.weather, config.seed),
            config.solar_scale, config.diurnal_load,
        )
    return histories


#: The Fig. 8 reference rack at seed 2021 and the four constrained-supply
#: sweep configs (two racks at two scenario seeds).
MEMO_CONFIGS = [ExperimentConfig.fig8_default(seed=2021)] + [
    config
    for seed in (4042, 4043)
    for config in (
        ExperimentConfig.insufficient_supply("SPECjbb", seed=seed),
        ExperimentConfig.combination_sweep("Comb5", seed=seed),
    )
]


class TestFitMemo:
    """``fit`` memoizes its search on the exact history (DESIGN.md §15)."""

    @pytest.fixture
    def searches(self, monkeypatch):
        """An empty memo, and a log of the histories actually searched."""
        monkeypatch.setattr(predictor, "_FIT_MEMO", {})
        searched = []
        search = HoltPredictor._fit_impl.__func__

        def counting(cls, data):
            searched.append(data.copy())
            return search(cls, data)

        monkeypatch.setattr(HoltPredictor, "_fit_impl", classmethod(counting))
        return searched

    @pytest.mark.parametrize(
        "config", MEMO_CONFIGS,
        ids=["fig8-2021", "spec-4042", "comb5-4042", "spec-4043", "comb5-4043"],
    )
    def test_hit_equals_cold_search(self, config, searches):
        for history in _pretraining_histories(config):
            data = np.asarray(history, dtype=float)
            cold = HoltPredictor.fit(history)
            hit = HoltPredictor.fit(history)
            assert hit is not cold
            assert hit.state_dict() == cold.state_dict()
            assert (cold.alpha, cold.beta) == HoltPredictor._fit_impl(data)
        # Two histories per config, one search each (plus the two above).
        assert len(searches) == 4

    def test_one_ulp_is_a_miss(self, searches):
        history = np.asarray(_pretraining_histories(MEMO_CONFIGS[0])[0], dtype=float)
        HoltPredictor.fit(history)
        nudged = history.copy()
        i = int(np.argmax(nudged))
        nudged[i] = np.nextafter(nudged[i], np.inf)
        HoltPredictor.fit(nudged)
        HoltPredictor.fit(list(nudged))
        assert len(searches) == 2
        assert searches[1].tobytes() == nudged.tobytes()

    def test_key_includes_class(self, searches):
        class Subclass(HoltPredictor):
            pass

        history = TestTraining()._solar_like()
        HoltPredictor.fit(history)
        HoltPredictor.fit(history)
        fitted = Subclass.fit(history)
        assert type(fitted) is Subclass
        assert len(searches) == 2

    def test_every_call_counted_only_searches_timed(self, searches):
        fits = REGISTRY.get("repro_predictor_fits_total")
        spans = REGISTRY.get("repro_span_seconds").labels("predictor.fit")
        before = obs_enabled()
        set_enabled(True)
        try:
            fits0, spans0 = fits.labels().value, spans.count
            history = TestTraining()._solar_like()
            for _ in range(3):
                HoltPredictor.fit(history)
            assert fits.labels().value == fits0 + 3
            assert spans.count == spans0 + 1
        finally:
            set_enabled(before)

    def test_nonnegative_is_not_part_of_the_key(self, searches):
        history = TestTraining()._solar_like()
        clamped = HoltPredictor.fit(history)
        free = HoltPredictor.fit(history, nonnegative=False)
        assert len(searches) == 1
        assert (free.alpha, free.beta) == (clamped.alpha, clamped.beta)
        assert free.nonnegative is False

    def test_memo_stays_at_its_bound(self, searches, monkeypatch):
        monkeypatch.setattr(predictor, "FIT_MEMO_SIZE", 4)
        base = TestTraining()._solar_like()
        histories = [base + k for k in range(6)]
        for history in histories:
            HoltPredictor.fit(history)
        assert len(predictor._FIT_MEMO) == 4
        # First in, first out: the two oldest are searched again.
        HoltPredictor.fit(histories[5])
        HoltPredictor.fit(histories[0])
        assert len(searches) == 7
        assert len(predictor._FIT_MEMO) == 4
