"""Parallel experiment runner: policy fan-out over a process pool.

:func:`run_experiment` replays one :class:`~repro.sim.experiment.ExperimentConfig`
once per policy and :func:`run_experiments` batches whole scenario grids
(the Fig. 9/10/13/14 sweeps, seed-robustness studies, capacity planning)
into one pool.  Every (config, policy) pair is an independent unit of
work: the stack is freshly assembled and identically seeded per policy,
so fanning the runs out over a :class:`~concurrent.futures.ProcessPoolExecutor`
merges **bit-identically** to the serial path — parallelism changes wall
time, never telemetry.

Two engine-level optimisations ride along:

* the synthesized irradiance trace is built **once per config** (via
  :meth:`Simulation.default_trace`) and shared across that config's
  policies instead of being re-synthesized inside every
  :meth:`Simulation.assemble`;
* each policy's :class:`~repro.core.solver.PARSolver` memoizes repeated
  programs (keyed on the exact program, up to the solver's
  ``CACHE_SIZE`` entries), which the cyclic budgets of a
  constrained-supply sweep hit dozens of times per run.

``jobs=1`` is a zero-dependency serial fallback that never touches
``concurrent.futures``; ``jobs=None`` uses every available core.
"""

from __future__ import annotations

import os
from typing import Sequence

from repro.core.policies import make_policy
from repro.errors import ConfigurationError
from repro.sim.engine import Simulation
from repro.sim.experiment import ExperimentConfig, ExperimentResult
from repro.sim.faults import FaultInjector
from repro.sim.telemetry import TelemetryLog
from repro.traces.nrel import IrradianceTrace


def _run_policy(
    config: ExperimentConfig, policy_name: str, trace: IrradianceTrace
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
    )
    if config.faults:
        # Fresh injector per policy run: the injector captures each
        # controller's healthy component values on first attach.
        sim.faults = FaultInjector.from_specs(config.faults)
    return sim.run()


def _resolve_jobs(jobs: int | None, n_tasks: int) -> int:
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    return min(jobs, n_tasks)


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
        regardless of ``jobs``.
    """
    configs = list(configs)
    if not configs:
        return []
    tasks = [(i, name) for i, config in enumerate(configs) for name in config.policies]
    jobs = _resolve_jobs(jobs, len(tasks))
    # One trace per config, shared by all of its policies.
    traces = [
        Simulation.default_trace(config.build_clock(), config.weather, config.seed)
        for config in configs
    ]

    results = [ExperimentResult(config=config) for config in configs]
    if jobs == 1:
        for i, name in tasks:
            results[i].logs[name] = _run_policy(configs[i], name, traces[i])
        return results

    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [
            pool.submit(_run_policy, configs[i], name, traces[i]) for i, name in tasks
        ]
        # Collect in submission order so each result's policy-log dict
        # is ordered exactly as the serial path builds it.
        for (i, name), future in zip(tasks, futures):
            results[i].logs[name] = future.result()
    return results


def run_experiment(config: ExperimentConfig, jobs: int | None = 1) -> ExperimentResult:
    """Run every configured policy over identical traces and noise.

    Each policy gets a freshly built stack seeded identically, so the
    solar trace, the offered load, and the measurement-noise stream are
    bit-identical across policies; see :func:`run_experiments` for
    ``jobs``.
    """
    return run_experiments([config], jobs=jobs)[0]
