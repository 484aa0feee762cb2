"""Parallel experiment runner: policy fan-out over a process pool.

:func:`run_experiment` replays one :class:`~repro.sim.experiment.ExperimentConfig`
once per policy and :func:`run_experiments` batches whole scenario grids
(the Fig. 9/10/13/14 sweeps, seed-robustness studies, capacity planning)
into one pool.  Every (config, policy) pair is an independent unit of
work: the stack is freshly assembled and identically seeded per policy,
so fanning the runs out over a :class:`~concurrent.futures.ProcessPoolExecutor`
merges **bit-identically** to the serial path — parallelism changes wall
time, never telemetry.

Four engine-level optimisations ride along (DESIGN.md §15):

* the synthesized irradiance trace is built **once per config** (via
  :meth:`Simulation.default_trace`) and shared across that config's
  policies instead of being re-synthesized inside every
  :meth:`Simulation.assemble`;
* the Holt predictors are pretrained **once per config**, in the
  parent: :meth:`Simulation.pretrained_predictors` fits each config's
  pair next to its trace, and the pair travels with every task, so no
  worker builds a pretraining history or runs a fit (or loads scipy
  for one).  Each config is primed just before its policies are
  submitted, so the workers run one config while the parent primes
  the next;
* the worker pool is forked **once per process**: the first
  ``jobs > 1`` call creates it and every later call with the same
  ``jobs`` reuses it.  Another ``jobs``, or a pool a dead worker broke
  (:class:`~concurrent.futures.process.BrokenProcessPool`, which that
  call raises), replaces it; ``concurrent.futures``' exit hook joins its
  workers when the process exits.  Workers inherit only what the
  parent held at the fork, so everything a run reads travels with its
  task;
* each policy's :class:`~repro.core.solver.PARSolver` memoizes repeated
  programs (keyed on the exact program, up to the solver's
  ``CACHE_SIZE`` entries), which the cyclic budgets of a
  constrained-supply sweep hit dozens of times per run.

``jobs=1`` is a zero-dependency serial fallback that never touches
``concurrent.futures``; ``jobs=None`` uses every available core.
"""

from __future__ import annotations

import atexit
import os
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.core.policies import make_policy
from repro.core.predictor import HoltPredictor
from repro.errors import ConfigurationError
from repro.sim.engine import Simulation
from repro.sim.experiment import ExperimentConfig, ExperimentResult
from repro.sim.faults import FaultInjector
from repro.sim.telemetry import TelemetryLog
from repro.traces.nrel import IrradianceTrace

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor


def _run_policy(
    config: ExperimentConfig,
    policy_name: str,
    trace: IrradianceTrace,
    predictors: tuple[HoltPredictor, HoltPredictor],
) -> TelemetryLog:
    """One unit of work: assemble and run a single policy's stack.

    Module-level so it pickles for the process pool; also the serial
    path, so both modes execute literally the same code.
    """
    sim = Simulation.assemble(
        policy=make_policy(policy_name),
        rack=config.build_rack(),
        weather=config.weather,
        clock=config.build_clock(),
        solar_scale=config.solar_scale,
        grid_budget_w=config.grid_budget_w,
        diurnal_load=config.diurnal_load,
        seed=config.seed,
        fit_kind=config.fit_kind,
        trace=trace,
        supply_fractions=config.supply_fractions,
        budget_reference_w=config.budget_reference_w,
        strict=config.strict,
        predictors=predictors,
    )
    if config.faults:
        # Fresh injector per policy run: the injector captures each
        # controller's healthy component values on first attach.
        sim.faults = FaultInjector.from_specs(config.faults)
    return sim.run()


#: The process's worker pool, kept across calls: ``(jobs, executor)``.
_pool: tuple[int, ProcessPoolExecutor] | None = None


def _worker_pool(jobs: int) -> ProcessPoolExecutor:
    """The process's pool of ``jobs`` workers, forked on first use."""
    global _pool
    if _pool is None or _pool[0] != jobs:
        _retire_pool()
        from concurrent.futures import ProcessPoolExecutor

        _pool = (jobs, ProcessPoolExecutor(max_workers=jobs))
    return _pool[1]


def _retire_pool() -> None:
    """Shut the pool down and join its workers; the next call forks anew."""
    global _pool
    if _pool is not None:
        _pool[1].shutdown(cancel_futures=True)
        _pool = None


# concurrent.futures' exit hook joins the workers before atexit runs;
# dropping the executor here, while every module is still loaded, keeps
# its collection out of interpreter teardown, where it prints a traceback.
atexit.register(_retire_pool)


def _primed_tasks(
    configs: Sequence[ExperimentConfig],
) -> Iterator[tuple[int, str, tuple[Any, ...]]]:
    """Each (config index, policy name, :func:`_run_policy` arguments),
    config by config.

    A config's trace and pretrained predictor pair are built just before
    its first task is yielded and shared by all of its policies.
    """
    for i, config in enumerate(configs):
        clock = config.build_clock()
        trace = Simulation.default_trace(clock, config.weather, config.seed)
        predictors = Simulation.pretrained_predictors(
            config.build_rack(), clock, trace, config.solar_scale, config.diurnal_load
        )
        for name in config.policies:
            yield i, name, (config, name, trace, predictors)


def run_experiments(
    configs: Sequence[ExperimentConfig], jobs: int | None = 1
) -> list[ExperimentResult]:
    """Run a batch of experiments, fanning (config, policy) pairs out.

    Parameters
    ----------
    configs:
        The scenarios to run; each yields one :class:`ExperimentResult`
        (in input order) with one telemetry log per configured policy.
    jobs:
        Worker processes.  ``1`` (default) runs serially in-process;
        ``None`` uses every available core.  Results are bit-identical
        regardless of ``jobs``.  Calls with the same ``jobs`` share one
        pool, kept until the process exits.
    """
    configs = list(configs)
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    results = [ExperimentResult(config=config) for config in configs]
    if jobs == 1 or sum(len(config.policies) for config in configs) <= 1:
        for i, name, args in _primed_tasks(configs):
            results[i].logs[name] = _run_policy(*args)
        return results

    from concurrent.futures.process import BrokenProcessPool

    pool = _worker_pool(jobs)
    pending = []
    try:
        for i, name, args in _primed_tasks(configs):
            pending.append((i, name, pool.submit(_run_policy, *args)))
        # Collect in submission order so each result's policy-log dict
        # is ordered exactly as the serial path builds it.
        for i, name, future in pending:
            results[i].logs[name] = future.result()
    except BaseException as exc:
        for *_, future in pending:
            future.cancel()
        if isinstance(exc, BrokenProcessPool):
            _retire_pool()
        raise
    return results


def run_experiment(config: ExperimentConfig, jobs: int | None = 1) -> ExperimentResult:
    """Run every configured policy over identical traces and noise.

    Each policy gets a freshly built stack seeded identically, so the
    solar trace, the offered load, and the measurement-noise stream are
    bit-identical across policies; see :func:`run_experiments` for
    ``jobs``.
    """
    return run_experiments([config], jobs=jobs)[0]
