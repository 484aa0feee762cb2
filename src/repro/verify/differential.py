"""Differential checking of the PAR solver against independent references.

The solver answers every program by analytic KKT enumeration
(:meth:`~repro.core.solver.PARSolver.solve`).  This module poses it
seeded randomized programs and checks each answer against two
references that share none of its code:

* a dense simplex grid sweep (:func:`grid_best`), the only independent
  global search that works for any fit shape;
* a weak-duality bound (:func:`duality_bound`): for each powered subset
  ``S`` whose power-on total fits the budget ``B``,

      U_S = min over lambda >= 0 of
            lambda * B + sum_{i in S} count_i * max_{p in [lo_i, hi_i]}
                                                (predict_i(p) - lambda * p)

  and ``U = max_S U_S`` (groups outside ``S`` add their ``predict(0)``).
  Every allocation the solver may return scores at most ``U``, whatever
  the fits' shapes, and on programs whose fits are all concave and
  positive over their boxes strong duality makes ``U`` the optimum.

:func:`check_case` runs one fixed set of checks on every program:

* the solution is feasible (budget and per-server box);
* the grid does not beat ``solve()``;
* ``solve()`` projects no more than ``U``, which catches a solution that
  claims more performance than any allocation can deliver;
* on programs whose fits are all concave and positive over their boxes,
  ``solve()`` also reaches ``U`` (the bound *closes*, which proves
  global optimality), and the grid lags ``solve()`` by at most
  :data:`GRID_REL_SLACK` (its step is coarse, but a larger gap means a
  reference is broken).

Each comparison allows :data:`CERT_REL_TOL` relative plus what the
shared :data:`~repro.core.solver.FEASIBILITY_SLACK_W` of extra power can
buy.  The bound also closes on many programs outside the concave class;
each report counts the programs it closed.

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
included).  They get the same checks.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.database import FitKind, PerfPowerFit
from repro.core.solver import FEASIBILITY_SLACK_W, GroupModel, PARSolver
from repro.errors import ConfigurationError

#: The coarse grid sweep may lag the exact optimum by at most this
#: fraction (empirical over the deterministic corpus; generous because
#: 3-group racks sweep at the coarse granularity).
GRID_REL_SLACK = 0.25

#: Relative float slack of every comparison between ``solve()``, the
#: grid and the duality bound.
CERT_REL_TOL = 1e-9

#: Simplex step of the reference grid sweep for 1-2 groups, and the
#: coarser step for 3 or more groups that keeps the sweep cheap.
GRID_STEP = 0.01
COARSE_GRID_STEP = 0.04

#: Seed of the Fig. 8 lap whose programs :func:`run_live` checks.
LIVE_SEED = 2021

#: Fit shapes :func:`random_case` draws from, one per group.
SHAPES = ("concave", "convex", "dipping", "linear")


@dataclass(frozen=True)
class CaseOutcome:
    """One differential case: its program, scores and check failures.

    ``perf`` holds the scores of ``solve()``, the grid and the duality
    bound; an empty ``failures`` means the case passed.
    """

    case_seed: int
    n_groups: int
    budget_w: float
    perf: tuple[tuple[str, float], ...]
    failures: tuple[str, ...]
    #: ``solve()`` reached the duality bound: it is globally optimal.
    closed: bool = False
    #: Every fit is concave and positive over its box, so the bound
    #: must close.
    concave: bool = False

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
    #: Programs on which the duality bound closed, and how many of the
    #: programs were concave and positive (each of which must close).
    closed: int = 0
    concave: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        bound = (
            f"duality bound closed on {self.closed}/{self.n_cases} "
            f"({self.concave} concave-positive)"
        )
        if self.passed:
            return f"{self.name}: {self.n_cases} cases, all checks pass; {bound}"
        lines = [
            f"{self.name}: {len(self.failures)}/{self.n_cases} cases FAILED; {bound}"
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


def grid_best(
    groups: Sequence[GroupModel], budget_w: float, lows: Sequence[float]
) -> tuple[tuple[float, ...], float]:
    """Best point of a simplex grid over the groups' budget shares.

    Every share vector on a :data:`GRID_STEP` lattice (the coarser
    :data:`COARSE_GRID_STEP` for 3 or more groups) with shares summing
    to at most 1 is scored, a group below its lower bound ``lows[i]``
    (:meth:`PARSolver._lo`) producing nothing.  Vectorised: the 3-group
    simplex has ~10^4 points.  Returns the per-server powers and score
    of the best point.
    """
    k = len(groups)
    step = GRID_STEP if k <= 2 else COARSE_GRID_STEP
    fractions = np.linspace(0.0, 1.0, int(round(1.0 / step)) + 1)
    grids = np.meshgrid(*([fractions] * k), indexing="ij")
    etas = np.stack([g.ravel() for g in grids], axis=0)  # (k, n_points)
    etas = etas[:, etas.sum(axis=0) <= 1.0 + 1e-12]
    scores = np.zeros(etas.shape[1])
    for i, (group, lo) in enumerate(zip(groups, lows)):
        fit = group.fit
        per_server = etas[i] * budget_w / group.count
        raw = np.polyval(fit.coefficients, np.minimum(per_server, fit.max_power_w))
        scores += group.count * np.where(per_server < lo, 0.0, np.maximum(raw, 0.0))
    best = int(np.argmax(scores))
    best_p = tuple(float(etas[i, best] * budget_w / groups[i].count) for i in range(k))
    return best_p, float(scores[best])


def _dual(
    terms: Sequence[tuple[PerfPowerFit, int, float]], budget_w: float, lam: float
) -> tuple[float, float]:
    """``U_S(lam)`` of the powered groups ``terms`` (fit, count, lower
    bound), and its slope ``B - sum count * p`` at an inner argmax ``p``.

    On ``[lo, hi]`` the clamped projection is ``max(0, raw)``, so
    ``predict(p) - lam * p`` is the larger of ``-lam * p`` (largest at
    ``lo``) and ``raw(p) - lam * p``, a linear or quadratic function
    largest at ``lo``, at ``hi`` or, when concave, at its stationary
    point.  Those three points therefore attain the inner maximum; the
    zero of ``raw`` where the clamp kinks adds nothing.
    """
    value = lam * budget_w
    slope = budget_w
    for fit, count, lo in terms:
        hi = fit.max_power_w
        points = [lo, hi]
        if fit.l < 0:
            stationary = (lam - fit.m) / (2.0 * fit.l)
            if lo < stationary < hi:
                points.append(stationary)
        best, best_p = max((fit.predict(p) - lam * p, p) for p in points)
        value += count * best
        slope -= count * best_p
    return value, slope


def _subset_bound(
    terms: Sequence[tuple[PerfPowerFit, int, float]], budget_w: float
) -> float:
    """``min over lam >= 0 of U_S(lam)``, by bisection on its slope.

    ``U_S`` is convex in ``lam``.  Beyond the steepest slope of any
    ``raw`` over its box every inner argmax sits at ``lo``, where the
    slope ``B - sum count * lo`` is non-negative, so the minimum lies in
    ``[0, top]``.  Every evaluated ``U_S(lam)`` is itself a valid bound;
    the smallest one is returned once the bracket stops shrinking.
    """
    top = max(
        max(fit.derivative(lo), fit.derivative(fit.max_power_w), 0.0)
        for fit, _, lo in terms
    )
    bound, slope = _dual(terms, budget_w, 0.0)
    if slope >= 0:  # the budget buys every group's best point
        return bound
    left, right = 0.0, top
    while left < (mid := 0.5 * (left + right)) < right:
        value, slope = _dual(terms, budget_w, mid)
        bound = min(bound, value)
        if slope > 0:
            right = mid
        else:
            left = mid
    return bound


def duality_bound(
    groups: Sequence[GroupModel], budget_w: float, lows: Sequence[float]
) -> float:
    """Weak-duality bound ``U`` on every allocation's projected performance.

    See the module docstring; ``lows[i]`` is group ``i``'s lowest
    powered level (:meth:`PARSolver._lo`).
    """
    off = [g.count * g.fit.predict(0.0) for g in groups]
    bound = sum(off)  # nothing powered
    for powered in itertools.product((False, True), repeat=len(groups)):
        on = [i for i, p in enumerate(powered) if p]
        if not on or sum(groups[i].count * lows[i] for i in on) > budget_w:
            continue
        rest = sum(s for s, p in zip(off, powered) if not p)
        terms = [(groups[i].fit, groups[i].count, lows[i]) for i in on]
        bound = max(bound, rest + _subset_bound(terms, budget_w))
    return bound


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
    which the duality bound is the optimum."""
    return fit.l < 0 and min(fit.raw(fit.min_power_w), fit.raw(fit.max_power_w)) > 0


def check_case(
    solver: PARSolver,
    groups: tuple[GroupModel, ...],
    budget_w: float,
    case_seed: int,
) -> CaseOutcome:
    """Solve one program with ``solver.solve`` and run every check on it."""
    solution = solver.solve(groups, budget_w)
    lows = [solver._lo(g.fit) for g in groups]
    failures: list[str] = []

    total = sum(g.count * p for g, p in zip(groups, solution.per_server_w))
    if total > budget_w + FEASIBILITY_SLACK_W:
        failures.append(
            f"infeasible: allocates {total:.6f} W over budget {budget_w:.6f} W"
        )
    for g, p in zip(groups, solution.per_server_w):
        if p > 0 and p > g.fit.max_power_w + 1e-9:
            failures.append(
                f"group {g.name} allocated {p:.6f} W above "
                f"its plateau {g.fit.max_power_w:.6f} W"
            )

    exact = solution.expected_perf
    _, grid = grid_best(groups, budget_w, lows)
    bound = duality_bound(groups, budget_w, lows)
    slack = _slack_value(groups)
    if grid > exact * (1.0 + CERT_REL_TOL) + slack:
        failures.append(f"grid ({grid:.9f}) beats the exact solve ({exact:.9f})")
    if exact > bound * (1.0 + CERT_REL_TOL) + slack:
        failures.append(f"solve ({exact:.9f}) exceeds the duality bound ({bound:.9f})")
    closed = exact >= bound * (1.0 - CERT_REL_TOL) - slack
    concave = all(_concave_positive(g.fit) for g in groups)
    if concave:
        if not closed:
            failures.append(
                f"solve ({exact:.9f}) falls short of the duality bound "
                f"({bound:.9f}) on a concave program"
            )
        if grid < (1.0 - GRID_REL_SLACK) * exact:
            failures.append(
                f"grid ({grid:.9f}) lags the exact solve ({exact:.9f}) by more "
                f"than {GRID_REL_SLACK:.0%}"
            )

    return CaseOutcome(
        case_seed=case_seed,
        n_groups=len(groups),
        budget_w=budget_w,
        perf=(("solve", exact), ("grid", grid), ("bound", bound)),
        failures=tuple(failures),
        closed=closed,
        concave=concave,
    )


def _report(
    outcomes: list[CaseOutcome], seed: int, name: str = "differential"
) -> DifferentialReport:
    return DifferentialReport(
        n_cases=len(outcomes),
        seed=seed,
        failures=tuple(o for o in outcomes if not o.ok),
        name=name,
        closed=sum(o.closed for o in outcomes),
        concave=sum(o.concave for o in outcomes),
    )


def run_differential(n_cases: int = 200, seed: int = 0) -> DifferentialReport:
    """Run the seeded corpus; deterministic for a given (n_cases, seed)."""
    solver = PARSolver()
    outcomes = []
    for i in range(n_cases):
        case_seed = seed * 1_000_003 + i
        rng = random.Random(case_seed)
        groups, budget_w = random_case(rng, safety_margin=solver.safety_margin)
        outcomes.append(check_case(solver, groups, budget_w, case_seed))
    return _report(outcomes, seed)


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
    """Check every program of :func:`live_programs`."""
    solver = PARSolver()
    outcomes = [
        check_case(solver, groups, budget_w, i)
        for i, (groups, budget_w) in enumerate(live_programs())
    ]
    return _report(outcomes, LIVE_SEED, "differential[live]")
