"""Parallel experiment runner: fan-out semantics and bit-identity."""

import multiprocessing
import os
import signal
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import repro
from repro.core.predictor import HoltPredictor
from repro.errors import ConfigurationError
from repro.sim import runner
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
        # Workers see only what the parent held when they were forked,
        # and the pool outlives each call: retire it, so the workers
        # this test's jobs=2 call forks see the patch, and again after,
        # so no later call runs on workers that carry it.
        runner._retire_pool()
        fit = HoltPredictor.fit.__func__
        primed = 2 * len(self.CONFIGS)  # a renewable and a demand fit each
        parent = os.getpid()
        logs = {}
        try:
            for jobs in (1, 2):
                fitted_in = []

                def fit_then_forbid(cls, history, *args, **kwargs):
                    # Every fit in a worker, and every fit past the
                    # parent's priming, raises.  (A worker is forked
                    # after the first config is primed, not the last.)
                    if os.getpid() != parent or len(fitted_in) == primed:
                        raise AssertionError("a fit ran after priming")
                    fitted_in.append(os.getpid())
                    return fit(cls, history, *args, **kwargs)

                monkeypatch.setattr(HoltPredictor, "fit", classmethod(fit_then_forbid))
                logs[jobs] = run_experiments(self.CONFIGS, jobs=jobs)
                assert fitted_in == [parent] * primed
        finally:
            runner._retire_pool()
        for config, a, b in zip(self.CONFIGS, logs[1], logs[2]):
            for name in config.policies:
                assert list(a.log(name)) == list(b.log(name))


#: A config whose runs :func:`_die_on_marker` kills its worker on.
MARKER_SEED = 666


def _die_on_marker(config, *args):
    """:func:`repro.sim.runner._run_policy`, except that a worker handed
    the marker config dies by SIGKILL.  Module-level, so a task pickles
    it by name and every worker resolves it, whenever it was forked."""
    if config.seed == MARKER_SEED:
        os.kill(os.getpid(), signal.SIGKILL)
    return RUN_POLICY(config, *args)


RUN_POLICY = runner._run_policy


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:  # a zombie has exited; only its reaping is left
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


def _worker_pids():
    return sorted(child.pid for child in multiprocessing.active_children())


class TestOnePoolPerProcess:
    """Calls with the same ``jobs`` share one pool, which lives until the
    process exits or a dead worker breaks it."""

    CONFIGS = [
        ExperimentConfig(days=0.1, policies=("Uniform", "GreenHetero"), seed=21),
        ExperimentConfig(days=0.1, policies=("Manual",), seed=22),
    ]

    def test_consecutive_calls_reuse_one_pool(self):
        serial = run_experiments(self.CONFIGS, jobs=1)
        first = run_experiments(self.CONFIGS, jobs=2)
        pool, pids = runner._pool, _worker_pids()
        # A smaller batch reuses the pool rather than resizing it.
        second = run_experiments(self.CONFIGS[:1], jobs=2)
        assert runner._pool is pool and _worker_pids() == pids
        assert len(pids) >= 2
        for logs in (first, second):
            for a, b in zip(serial, logs):
                assert tuple(a.logs) == tuple(b.logs)
                for name in b.config.policies:
                    assert list(a.log(name)) == list(b.log(name))

    def test_another_count_replaces_the_pool(self):
        run_experiments(self.CONFIGS, jobs=2)
        pids = _worker_pids()
        run_experiments(self.CONFIGS, jobs=3)
        assert runner._pool[0] == 3
        assert not any(_alive(pid) for pid in pids)

    def test_broken_pool_raises_once_then_is_replaced(self, monkeypatch):
        run_experiments(self.CONFIGS, jobs=2)
        pool = runner._pool
        monkeypatch.setattr(runner, "_run_policy", _die_on_marker)
        doomed = ExperimentConfig(days=0.1, policies=("Uniform", "Manual"), seed=MARKER_SEED)
        with pytest.raises(BrokenProcessPool):
            run_experiments([doomed], jobs=2)
        assert runner._pool is None
        logs = run_experiments(self.CONFIGS, jobs=2)
        assert runner._pool is not pool
        for a, b in zip(run_experiments(self.CONFIGS, jobs=1), logs):
            for name in a.config.policies:
                assert list(a.log(name)) == list(b.log(name))

    def test_no_worker_outlives_its_process(self):
        script = (
            "import multiprocessing\n"
            "from repro.sim.experiment import ExperimentConfig\n"
            "from repro.sim.runner import run_experiments\n"
            "config = ExperimentConfig(days=0.05, policies=('Uniform', 'Manual'), seed=5)\n"
            "run_experiments([config], jobs=2)\n"
            "print(*[child.pid for child in multiprocessing.active_children()])\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120, check=True,
        )
        pids = [int(pid) for pid in done.stdout.split()]
        assert len(pids) == 2 and done.stderr == ""
        assert not any(_alive(pid) for pid in pids)
