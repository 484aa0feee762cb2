"""Differential checking of the PAR solver against its reference mechanisms.

For linear and quadratic fits the solver answers by analytic KKT
enumeration alone; the dense grid sweep and the SLSQP polish survive as
the cubic fallback and as independent references.  This module solves
seeded randomized programs with the production path
(:meth:`~repro.core.solver.PARSolver.solve`) and with each mechanism
*forced* (:meth:`~repro.core.solver.PARSolver.solve_via`), and
cross-checks them:

* every returned solution must be feasible (budget and per-server box);
* ``solve()`` must equal the forced KKT solution bit for bit (the exact
  path is KKT alone);
* neither the grid nor SLSQP may beat ``solve()`` by more than
  :data:`EXACT_REL_TOL` plus what the shared
  :data:`~repro.core.solver.FEASIBILITY_SLACK_W` of extra power can buy;
* on programs whose fits are all concave and positive over their boxes,
  SLSQP must also agree with KKT to
  :data:`SLSQP_REL_TOL`, and the grid may lag it by at most
  :data:`GRID_REL_SLACK` (its step is coarse, but a larger gap means a
  mechanism is broken).  Elsewhere SLSQP may stop at a local optimum or
  on the clamp's flat zero.

The corpus draws each group's fit from :data:`SHAPES`, the shapes the
live system produces: concave and convex quadratics, quadratics that dip
below zero inside the box (where the ``max(0, .)`` clamp acts), and
linear fits.  Cases are generated from a deterministic seed, so the
corpus doubles as a regression suite: a failure reproduces
bit-identically from its case seed.  Budgets are floored well above the
subset's power-on cliff — right at the cliff the coarse grid
legitimately loses whole groups, which would drown real failures in
step-size noise.

A second corpus, :func:`run_live`, takes its programs from the live
system: every program one seed-2021 Fig. 8 lap under GreenHetero poses
(its fits are the ones the online database actually produces, cliffs
included).  They get the feasibility and exact-path checks; the
SLSQP-agreement and grid-lag quality checks stay with the random corpus.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.database import FitKind, PerfPowerFit
from repro.core.solver import FEASIBILITY_SLACK_W, GroupModel, PARSolver
from repro.errors import ConfigurationError

#: Required relative agreement between the SLSQP path and exact KKT.
SLSQP_REL_TOL = 1e-3

#: The coarse grid sweep may lag the exact optimum by at most this
#: fraction (empirical over the deterministic corpus; generous because
#: 3-group racks sweep at the coarse granularity).
GRID_REL_SLACK = 0.25

#: Tight tolerance for "no reference mechanism beats the exact solve"
#: (pure float slack).
EXACT_REL_TOL = 1e-9

#: Seed of the Fig. 8 lap whose programs :func:`run_live` checks.
LIVE_SEED = 2021

#: Fit shapes :func:`random_case` draws from, one per group.
SHAPES = ("concave", "convex", "dipping", "linear")


@dataclass(frozen=True)
class CaseOutcome:
    """One differential case: the program, the per-method scores, and
    any cross-check failures (empty means the case passed)."""

    case_seed: int
    n_groups: int
    budget_w: float
    perf: tuple[tuple[str, float], ...]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class DifferentialReport:
    """Corpus-level result of :func:`run_differential` or :func:`run_live`."""

    n_cases: int
    seed: int
    failures: tuple[CaseOutcome, ...]
    #: Summary label: ``differential`` for the random corpus,
    #: ``differential[live]`` for :func:`run_live`.
    name: str = "differential"

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        if self.passed:
            return f"{self.name}: {self.n_cases} cases, all mechanisms agree"
        lines = [
            f"{self.name}: {len(self.failures)}/{self.n_cases} cases FAILED"
        ]
        for outcome in self.failures[:10]:
            lines.append(
                f"  case seed={outcome.case_seed} "
                f"(k={outcome.n_groups}, budget={outcome.budget_w:.1f} W): "
                + "; ".join(outcome.failures)
            )
        if len(self.failures) > 10:
            lines.append(f"  ... and {len(self.failures) - 10} more")
        return "\n".join(lines)


def random_fit(rng: random.Random, shape: str) -> PerfPowerFit:
    """One seeded fit of the given :data:`SHAPES` entry.

    * ``concave`` — increasing concave quadratic (vertex at or beyond the
      plateau, positive performance at the power-on point);
    * ``convex`` — a bowl ``l (p - v)^2 + c`` with ``l, c > 0``, its
      vertex left of or inside the box;
    * ``dipping`` — a concave or convex quadratic that crosses zero
      inside the box, so the ``max(0, .)`` clamp zeroes part of it;
    * ``linear`` — increasing, positive at the power-on point.
    """
    if shape not in SHAPES:
        raise ConfigurationError(f"unknown fit shape {shape!r}; expected one of {SHAPES}")
    min_p = rng.uniform(40.0, 120.0)
    max_p = min_p * rng.uniform(1.5, 3.0)
    span = max_p - min_p
    kind = FitKind.QUADRATIC
    if shape == "concave":
        l = -rng.uniform(0.01, 0.5)
        vertex = max_p * rng.uniform(1.0, 1.5)
        m = -2.0 * l * vertex
        perf_at_min = rng.uniform(10.0, 100.0)
        n = perf_at_min - (l * min_p**2 + m * min_p)
        coefficients: tuple[float, ...] = (l, m, n)
    elif shape == "linear":
        slope = rng.uniform(0.1, 10.0)
        coefficients = (slope, rng.uniform(10.0, 100.0) - slope * min_p)
        kind = FitKind.LINEAR
    else:
        if shape == "convex":
            l = rng.uniform(0.01, 0.5)
            vertex = rng.uniform(min_p - 0.5 * span, max_p)
            floor = rng.uniform(10.0, 100.0)
        elif rng.random() < 0.5:  # concave, negative below a zero crossing
            l = -rng.uniform(0.01, 0.5)
            vertex = max_p * rng.uniform(1.0, 1.5)
            crossing = min_p + rng.uniform(0.05, 0.5) * span
            floor = -l * (crossing - vertex) ** 2
        else:  # convex, negative around its vertex
            l = rng.uniform(0.01, 0.5)
            vertex = rng.uniform(min_p + 0.25 * span, max_p - 0.25 * span)
            crossing = rng.uniform(min_p, vertex)
            floor = -l * (crossing - vertex) ** 2
        coefficients = (l, -2.0 * l * vertex, l * vertex**2 + floor)
    return PerfPowerFit(
        coefficients=coefficients, min_power_w=min_p, max_power_w=max_p, kind=kind
    )


def random_case(
    rng: random.Random, safety_margin: float = 0.05
) -> tuple[tuple[GroupModel, ...], float]:
    """One seeded random PAR program.

    Each group's fit comes from :func:`random_fit`, its shape drawn from
    :data:`SHAPES`.  The budget is floored at 1.4x the all-groups power-on
    total to stay clear of the cliffs where the coarse grid legitimately
    drops groups.
    """
    k = rng.randint(1, 3)
    groups = []
    for i in range(k):
        count = rng.randint(1, 6)
        fit = random_fit(rng, rng.choice(SHAPES))
        groups.append(GroupModel(name=f"g{i}", count=count, fit=fit))
    power_on_total = sum(
        g.count * g.fit.min_power_w * (1.0 + safety_margin) for g in groups
    )
    budget = power_on_total * rng.uniform(1.4, 3.0)
    return tuple(groups), budget


def _slack_value(groups: tuple[GroupModel, ...]) -> float:
    """Most performance :data:`FEASIBILITY_SLACK_W` extra watts can buy.

    ``|f'|`` of a linear or quadratic fit peaks at an end of its box.
    """
    return FEASIBILITY_SLACK_W * max(
        abs(g.fit.derivative(p))
        for g in groups
        for p in (g.fit.min_power_w, g.fit.max_power_w)
    )


def _concave_positive(fit: PerfPowerFit) -> bool:
    """Strictly concave and positive over its whole box: the programs on
    which SLSQP's local search is also global."""
    return fit.l < 0 and min(fit.raw(fit.min_power_w), fit.raw(fit.max_power_w)) > 0


def check_case(
    solver: PARSolver,
    groups: tuple[GroupModel, ...],
    budget_w: float,
    case_seed: int,
    quality: bool = True,
) -> CaseOutcome:
    """Solve one program via ``solve()`` and each forced mechanism; cross-check.

    ``quality=False`` skips the SLSQP-agreement and grid-lag checks of
    concave positive programs and keeps the feasibility and exact-path ones.
    """
    solutions = {"solve": solver.solve(groups, budget_w)}
    solutions.update(
        (method, solver.solve_via(groups, budget_w, method))
        for method in PARSolver.METHODS
    )
    failures: list[str] = []

    for method, sol in solutions.items():
        total = sum(g.count * p for g, p in zip(groups, sol.per_server_w))
        if total > budget_w + FEASIBILITY_SLACK_W:
            failures.append(
                f"{method}: infeasible, allocates {total:.6f} W "
                f"over budget {budget_w:.6f} W"
            )
        for g, p in zip(groups, sol.per_server_w):
            if p > 0 and p > g.fit.max_power_w + 1e-9:
                failures.append(
                    f"{method}: group {g.name} allocated {p:.6f} W above "
                    f"its plateau {g.fit.max_power_w:.6f} W"
                )

    exact = solutions["solve"].expected_perf
    kkt = solutions["kkt"].expected_perf
    grid = solutions["grid"].expected_perf
    slsqp = solutions["slsqp"].expected_perf

    if solutions["solve"] != solutions["kkt"]:
        failures.append(
            f"solve ({exact:.9f}) is not the forced KKT solution ({kkt:.9f})"
        )
    # For linear and quadratic fits KKT is exact — nothing may beat it.
    ceiling = exact * (1.0 + EXACT_REL_TOL) + _slack_value(groups)
    for method, score in (("grid", grid), ("slsqp", slsqp)):
        if score > ceiling:
            failures.append(
                f"{method} ({score:.9f}) beats the exact solve ({exact:.9f})"
            )
    if quality and all(_concave_positive(g.fit) for g in groups):
        if abs(slsqp - kkt) > SLSQP_REL_TOL * max(abs(kkt), 1.0):
            failures.append(
                f"slsqp ({slsqp:.9f}) disagrees with KKT ({kkt:.9f}) "
                f"beyond rel tol {SLSQP_REL_TOL}"
            )
        if grid < (1.0 - GRID_REL_SLACK) * kkt:
            failures.append(
                f"grid ({grid:.9f}) lags KKT ({kkt:.9f}) by more than "
                f"{GRID_REL_SLACK:.0%}"
            )

    return CaseOutcome(
        case_seed=case_seed,
        n_groups=len(groups),
        budget_w=budget_w,
        perf=tuple((m, sol.expected_perf) for m, sol in solutions.items()),
        failures=tuple(failures),
    )


def run_differential(n_cases: int = 200, seed: int = 0) -> DifferentialReport:
    """Run the seeded corpus; deterministic for a given (n_cases, seed)."""
    solver = PARSolver()
    failures: list[CaseOutcome] = []
    for i in range(n_cases):
        case_seed = seed * 1_000_003 + i
        rng = random.Random(case_seed)
        groups, budget_w = random_case(rng, safety_margin=solver.safety_margin)
        outcome = check_case(solver, groups, budget_w, case_seed)
        if not outcome.ok:
            failures.append(outcome)
    return DifferentialReport(
        n_cases=n_cases, seed=seed, failures=tuple(failures)
    )


def live_programs() -> list[tuple[tuple[GroupModel, ...], float]]:
    """Every ``(groups, budget)`` program one Fig. 8 lap poses its solver.

    The lap is :meth:`ExperimentConfig.fig8_default` at :data:`LIVE_SEED` under
    GreenHetero, whose solver records each program before solving it.
    """
    # Imported here: the engine imports this package.
    from repro.core.policies import GreenHeteroPolicy
    from repro.sim.engine import Simulation
    from repro.sim.experiment import ExperimentConfig

    programs: list[tuple[tuple[GroupModel, ...], float]] = []

    class RecordingSolver(PARSolver):
        def solve(self, groups, total_power_w):
            programs.append((tuple(groups), total_power_w))
            return super().solve(groups, total_power_w)

    config = ExperimentConfig.fig8_default(seed=LIVE_SEED)
    Simulation.assemble(
        policy=GreenHeteroPolicy(solver=RecordingSolver()),
        rack=config.build_rack(),
        weather=config.weather,
        clock=config.build_clock(),
        solar_scale=config.solar_scale,
        grid_budget_w=config.grid_budget_w,
        seed=LIVE_SEED,
    ).run()
    return programs


def run_live() -> DifferentialReport:
    """Check every program of :func:`live_programs` (no quality checks)."""
    solver = PARSolver()
    programs = live_programs()
    failures = []
    for i, (groups, budget_w) in enumerate(programs):
        outcome = check_case(solver, groups, budget_w, i, quality=False)
        if not outcome.ok:
            failures.append(outcome)
    return DifferentialReport(
        n_cases=len(programs),
        seed=LIVE_SEED,
        failures=tuple(failures),
        name="differential[live]",
    )
