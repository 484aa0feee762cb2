"""Parallel experiment runner: fan-out semantics and bit-identity."""

import multiprocessing
import os

import pytest

from repro.core.predictor import HoltPredictor
from repro.errors import ConfigurationError
from repro.sim.experiment import ExperimentConfig
from repro.sim.runner import run_experiment, run_experiments

#: Small but real: two policies over a quarter day = 2 x 24 epochs.
CONFIG = ExperimentConfig(days=0.25, policies=("Uniform", "GreenHetero"), seed=7)


class TestParallelBitIdentity:
    def test_parallel_matches_serial_exactly(self):
        serial = run_experiment(CONFIG, jobs=1)
        parallel = run_experiment(CONFIG, jobs=4)
        for name in CONFIG.policies:
            # EpochRecords are frozen dataclasses: == is field-exact, so
            # this pins every telemetry channel bit-for-bit.
            assert list(serial.log(name)) == list(parallel.log(name))

    def test_policy_order_preserved(self):
        result = run_experiment(CONFIG, jobs=4)
        assert tuple(result.logs) == CONFIG.policies


class TestBatch:
    def test_batch_results_in_input_order(self):
        configs = [
            ExperimentConfig(days=0.1, policies=("Uniform",), seed=1),
            ExperimentConfig(days=0.1, policies=("Uniform",), seed=2),
        ]
        results = run_experiments(configs, jobs=2)
        assert [r.config.seed for r in results] == [1, 2]
        # Different seeds, different noise: the runs must not be shared.
        a = results[0].log("Uniform")
        b = results[1].log("Uniform")
        assert list(a) != list(b)

    def test_batch_matches_individual_runs(self):
        configs = [
            ExperimentConfig(days=0.1, policies=("Uniform",), seed=1),
            ExperimentConfig(days=0.1, policies=("Uniform", "GreenHetero-p"), seed=2),
        ]
        batch = run_experiments(configs, jobs=3)
        for config, result in zip(configs, batch):
            solo = run_experiment(config, jobs=1)
            for name in config.policies:
                assert list(solo.log(name)) == list(result.log(name))

    def test_empty_batch(self):
        assert run_experiments([], jobs=4) == []

    def test_bad_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment(CONFIG, jobs=0)
        with pytest.raises(ConfigurationError):
            run_experiments([CONFIG], jobs=-2)

    def test_jobs_none_uses_available_cores(self):
        result = run_experiment(
            ExperimentConfig(days=0.1, policies=("Uniform",), seed=3), jobs=None
        )
        assert len(result.log("Uniform")) > 0


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="patches reach the workers only through fork",
)
class TestFitsOncePerConfig:
    """Each config's predictors are fitted in the parent; workers never fit."""

    CONFIGS = [
        ExperimentConfig(days=0.1, policies=("Uniform", "GreenHetero"), seed=11),
        ExperimentConfig.insufficient_supply(
            "SPECjbb", days=0.1, policies=("Manual", "GreenHetero-a"), seed=12
        ),
    ]

    def test_workers_run_no_holt_search(self, monkeypatch):
        fit = HoltPredictor.fit.__func__
        primed = 2 * len(self.CONFIGS)  # a renewable and a demand fit each
        logs = {}
        for jobs in (1, 2):
            fitted_in = []

            def fit_then_forbid(cls, history, *args, **kwargs):
                # Every fit past the parent's priming raises, in the
                # parent or in a worker forked after it.
                if len(fitted_in) == primed:
                    raise AssertionError("a fit ran after priming")
                fitted_in.append(os.getpid())
                return fit(cls, history, *args, **kwargs)

            monkeypatch.setattr(HoltPredictor, "fit", classmethod(fit_then_forbid))
            logs[jobs] = run_experiments(self.CONFIGS, jobs=jobs)
            assert fitted_in == [os.getpid()] * primed
        for config, a, b in zip(self.CONFIGS, logs[1], logs[2]):
            for name in config.policies:
                assert list(a.log(name)) == list(b.log(name))
