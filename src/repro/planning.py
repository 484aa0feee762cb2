"""Capacity planning: sizing the green infrastructure by simulation.

The paper motivates green datacenters with cost — expensive peak grid
power (Fig. 12's under-provisioning argument) and on-site renewables —
but leaves the operator's sizing questions open: *how much* solar, *how
much* battery, *how small* a grid feed does a given rack and workload
need?  This module answers them by searching over the simulator:

* :func:`size_solar` — smallest PV array (as a multiple of the rack's
  maximum draw) reaching a target renewable fraction;
* :func:`size_battery` — smallest battery bank reaching it at a fixed
  array;
* :func:`size_grid` — smallest grid budget sustaining a target share of
  the unconstrained performance (the Fig. 12 question, automated).

All searches are monotone bisections over short deterministic runs, so
results are reproducible and each evaluation is a fraction of a second.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.analysis.sustainability import sustainability_report
from repro.core.policies import make_policy
from repro.errors import ConfigurationError
from repro.power.battery import BatteryBank
from repro.sim.clock import SimClock
from repro.sim.engine import Simulation
from repro.sim.experiment import ExperimentConfig
from repro.units import SECONDS_PER_DAY


@dataclass(frozen=True)
class SizingResult:
    """Outcome of one sizing search.

    Attributes
    ----------
    value:
        The sized quantity (solar scale, battery count, or grid watts).
    achieved:
        The metric the sizing achieved at ``value``.
    target:
        What was asked for.
    evaluations:
        Simulator runs the search spent.
    """

    value: float
    achieved: float
    target: float
    evaluations: int


def _bisect_min(
    evaluate: Callable[[float], float],
    target: float,
    lo: float,
    hi: float,
    tolerance: float,
) -> SizingResult:
    """Smallest x in [lo, hi] with monotone ``evaluate(x) >= target``."""
    evaluations = 0

    def measured(x: float) -> float:
        nonlocal evaluations
        evaluations += 1
        return evaluate(x)

    hi_value = measured(hi)
    if hi_value < target:
        return SizingResult(hi, hi_value, target, evaluations)
    lo_value = measured(lo)
    if lo_value >= target:
        return SizingResult(lo, lo_value, target, evaluations)
    best = (hi, hi_value)
    while hi - lo > tolerance:
        mid = (lo + hi) / 2.0
        value = measured(mid)
        if value >= target:
            best = (mid, value)
            hi = mid
        else:
            lo = mid
    return SizingResult(best[0], best[1], target, evaluations)


def _run(config: ExperimentConfig, solar_scale: float, battery: BatteryBank | None):
    sim = Simulation.assemble(
        policy=make_policy("GreenHetero"),
        rack=config.build_rack(),
        weather=config.weather,
        clock=SimClock(
            start_s=config.start_day * SECONDS_PER_DAY,
            duration_s=config.days * SECONDS_PER_DAY,
            epoch_s=config.epoch_s,
        ),
        solar_scale=solar_scale,
        grid_budget_w=config.grid_budget_w,
        battery=battery,
        diurnal_load=config.diurnal_load,
        seed=config.seed,
    )
    return sim.run()


def size_solar(
    config: ExperimentConfig | None = None,
    target_renewable_fraction: float = 0.75,
    lo: float = 0.2,
    hi: float = 4.0,
    tolerance: float = 0.05,
) -> SizingResult:
    """Smallest solar scale reaching ``target_renewable_fraction``.

    The scale is the PV clear-sky peak as a multiple of the rack's
    maximum draw (the engine's sizing convention).
    """
    config = config or ExperimentConfig(policies=("GreenHetero",))
    if not 0.0 < target_renewable_fraction <= 1.0:
        raise ConfigurationError("target fraction must be in (0, 1]")

    def evaluate(scale: float) -> float:
        log = _run(config, scale, None)
        return sustainability_report(log, config.epoch_s).renewable_fraction

    return _bisect_min(evaluate, target_renewable_fraction, lo, hi, tolerance)


def size_battery(
    config: ExperimentConfig | None = None,
    target_renewable_fraction: float = 0.75,
    solar_scale: float = 1.4,
    lo: int = 1,
    hi: int = 40,
) -> SizingResult:
    """Smallest battery count (12 V x 100 Ah units) reaching the target."""
    config = config or ExperimentConfig(policies=("GreenHetero",))
    if not 0.0 < target_renewable_fraction <= 1.0:
        raise ConfigurationError("target fraction must be in (0, 1]")
    if lo < 1 or hi < lo:
        raise ConfigurationError("need 1 <= lo <= hi battery units")

    evaluations = 0

    def evaluate(count: int) -> float:
        nonlocal evaluations
        evaluations += 1
        log = _run(config, solar_scale, BatteryBank(count=count))
        return sustainability_report(log, config.epoch_s).renewable_fraction

    hi_value = evaluate(hi)
    if hi_value < target_renewable_fraction:
        return SizingResult(hi, hi_value, target_renewable_fraction, evaluations)
    lo_int, hi_int = lo, hi
    best = (hi, hi_value)
    while lo_int < hi_int:
        mid = (lo_int + hi_int) // 2
        value = evaluate(mid)
        if value >= target_renewable_fraction:
            best = (mid, value)
            hi_int = mid
        else:
            lo_int = mid + 1
    return SizingResult(float(best[0]), best[1], target_renewable_fraction, evaluations)


def size_grid(
    config: ExperimentConfig | None = None,
    target_performance_fraction: float = 0.9,
    lo: float = 0.0,
    hi: float = 2000.0,
    tolerance: float = 25.0,
) -> SizingResult:
    """Smallest grid budget sustaining a share of unconstrained performance.

    Automates Fig. 12's under-provisioning study: the reference is the
    same run with a ``hi``-watt grid feed.
    """
    base = config or ExperimentConfig(policies=("GreenHetero",))
    if not 0.0 < target_performance_fraction <= 1.0:
        raise ConfigurationError("target fraction must be in (0, 1]")

    from dataclasses import replace

    reference = _run(replace(base, grid_budget_w=hi), 1.4, None).mean_throughput()
    if reference <= 0:
        raise ConfigurationError("reference run produced no throughput")

    def evaluate(budget: float) -> float:
        log = _run(replace(base, grid_budget_w=budget), 1.4, None)
        return log.mean_throughput() / reference

    return _bisect_min(evaluate, target_performance_fraction, lo, hi, tolerance)
