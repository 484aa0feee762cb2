"""Multi-seed gain statistics."""

import pytest

from repro.analysis.comparison import GainStatistics, gain_statistics, seed_sweep
from repro.errors import ConfigurationError
from repro.sim.experiment import ExperimentConfig


class TestGainStatistics:
    def test_basic_interval(self):
        stats = gain_statistics([1.5, 1.6, 1.7])
        assert stats.mean == pytest.approx(1.6)
        assert stats.ci_low < 1.6 < stats.ci_high
        assert stats.n == 3

    def test_interval_narrows_with_samples(self):
        few = gain_statistics([1.5, 1.7])
        many = gain_statistics([1.5, 1.7, 1.5, 1.7, 1.5, 1.7, 1.6, 1.6])
        assert (many.ci_high - many.ci_low) < (few.ci_high - few.ci_low)

    def test_zero_variance(self):
        stats = gain_statistics([1.6, 1.6, 1.6])
        assert stats.ci_low == pytest.approx(1.6)
        assert stats.ci_high == pytest.approx(1.6)

    def test_confidence_level(self):
        wide = gain_statistics([1.4, 1.8], confidence=0.99)
        narrow = gain_statistics([1.4, 1.8], confidence=0.80)
        assert (wide.ci_high - wide.ci_low) > (narrow.ci_high - narrow.ci_low)

    def test_describe(self):
        text = gain_statistics([1.5, 1.7]).describe()
        assert "1.60x" in text and "n=2" in text

    def test_too_few_samples_rejected(self):
        with pytest.raises(ConfigurationError):
            gain_statistics([1.6])

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_sample_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="finite"):
            gain_statistics([1.5, bad, 1.6])

    def test_bad_confidence_rejected(self):
        with pytest.raises(ConfigurationError):
            gain_statistics([1.5, 1.6], confidence=1.0)


class TestSeedSweep:
    def test_sweep_over_three_seeds(self):
        cfg = ExperimentConfig.insufficient_supply(
            "Streamcluster", days=0.25, policies=("Uniform", "GreenHetero")
        )
        stats = seed_sweep(cfg, seeds=(1, 2, 3))
        assert stats.n == 3
        # The headline result must be robust across draws.
        assert stats.ci_low > 1.3
        assert all(g > 1.0 for g in stats.samples)

    def test_seeds_actually_vary(self):
        cfg = ExperimentConfig.insufficient_supply(
            "SPECjbb", days=0.25, policies=("Uniform", "GreenHetero")
        )
        stats = seed_sweep(cfg, seeds=(1, 2))
        assert stats.samples[0] != stats.samples[1]

    def test_unknown_policy_rejected(self):
        cfg = ExperimentConfig(days=0.1, policies=("Uniform", "GreenHetero"))
        with pytest.raises(ConfigurationError):
            seed_sweep(cfg, seeds=(1, 2), policy="Manual")

    def test_too_few_seeds_rejected(self):
        cfg = ExperimentConfig(days=0.1, policies=("Uniform", "GreenHetero"))
        with pytest.raises(ConfigurationError):
            seed_sweep(cfg, seeds=(1,))
