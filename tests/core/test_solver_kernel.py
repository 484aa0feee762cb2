"""The table-driven KKT kernel answers exactly as the generator enumeration did.

The reference below is the enumeration the kernel replaced, kept verbatim:
``_kkt_candidates``/``_subset_candidates`` yield each KKT point as a
per-server power vector, ``_score`` sums ``count * predict(p)`` over the
groups, and :class:`PartialGroupSolver` re-ran ``_subset_candidates`` on
rebuilt ``GroupModel``s for every powered-count combination.  The kernel
must return the same ``(p, score)`` to the bit on every program, so every
assertion compares ``repr``s (exact for floats, signed zeros included).
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Sequence

import pytest

from repro.core.database import PerfPowerFit
from repro.core.solver import (
    FEASIBILITY_SLACK_W,
    GroupModel,
    PARSolver,
    PartialGroupSolver,
)
from repro.verify.differential import SHAPES, random_fit

#: Quadratic coefficients on both sides of the solver's ``1e-15`` linear test.
NEAR_LINEAR_L = (0.0, 1e-16, 1e-14)


class ReferenceSolver(PARSolver):
    """:class:`PARSolver` with the generator enumeration it used to run."""

    @staticmethod
    def _score(groups: Sequence[GroupModel], per_server_w: Sequence[float]) -> float:
        """Projected aggregate performance (clamped fits)."""
        return sum(g.count * g.fit.predict(p) for g, p in zip(groups, per_server_w))

    def _kkt_best(
        self, groups: Sequence[GroupModel], budget_w: float
    ) -> tuple[tuple[float, ...], float]:
        """Best-scoring KKT candidate (the first one on ties)."""
        best_p: tuple[float, ...] = (0.0,) * len(groups)
        best_score = 0.0
        for candidate in self._kkt_candidates(groups, budget_w):
            score = self._score(groups, candidate)
            if score > best_score:
                best_p, best_score = candidate, score
        return best_p, best_score

    def _kkt_candidates(
        self, groups: Sequence[GroupModel], budget_w: float
    ) -> Iterable[tuple[float, ...]]:
        k = len(groups)
        indices = range(k)
        for powered in itertools.product((False, True), repeat=k):
            if not any(powered):
                continue
            on = [i for i in indices if powered[i]]
            min_total = sum(groups[i].count * self._lo(groups[i].fit) for i in on)
            if min_total > budget_w:
                continue
            yield from self._subset_candidates(groups, on, budget_w)

    def _subset_candidates(
        self, groups: Sequence[GroupModel], on: list[int], budget_w: float
    ) -> Iterable[tuple[float, ...]]:
        """KKT points for a fixed powered subset."""
        k = len(groups)

        def assemble(values: dict[int, float]) -> tuple[float, ...] | None:
            p = [0.0] * k
            total = 0.0
            for i in on:
                v = values[i]
                fit = groups[i].fit
                lo = self._lo(fit)
                if v < lo - 1e-9 or v > fit.max_power_w + 1e-9:
                    return None
                v = min(max(v, lo), fit.max_power_w)
                p[i] = v
                total += groups[i].count * v
            if total > budget_w + FEASIBILITY_SLACK_W:
                return None
            return tuple(p)

        # Each powered group is at LO, HI, or FREE.
        for assignment in itertools.product(("lo", "hi", "free"), repeat=len(on)):
            fixed: dict[int, float] = {}
            free: list[int] = []
            for i, tag in zip(on, assignment):
                fit = groups[i].fit
                if tag == "lo":
                    fixed[i] = self._lo(fit)
                elif tag == "hi":
                    fixed[i] = fit.max_power_w
                else:
                    free.append(i)

            if not free:
                candidate = assemble(fixed)
                if candidate is not None:
                    yield candidate
                continue

            # Budget-slack stationary point: f_i'(p_i) = 0 for free i.  A
            # linear free group has none (or is flat, tying its bounds).
            linear = [i for i in free if abs(groups[i].fit.l) < 1e-15]
            if not linear:
                interior: dict[int, float] = dict(fixed)
                for i in free:
                    fit = groups[i].fit
                    interior[i] = -fit.m / (2.0 * fit.l)
                candidate = assemble(interior)
                if candidate is not None:
                    yield candidate

            # Budget-tight stationary point: f_i'(p_i) = lambda for free i,
            # sum count_i p_i = budget, so p_i = (lambda - m_i) / (2 l_i).
            if len(linear) > 1:
                # Equal slopes make a flat edge whose ends are enumerated
                # elsewhere; unequal slopes admit no common lambda.
                continue
            rest = budget_w - sum(groups[i].count * fixed[i] for i in fixed)
            absorber: int | None = None
            if linear or len(free) == 1:
                # One free group takes what the others leave: a linear one
                # (lambda is its slope) or a lone one of any curvature (a
                # vertex of the box-plus-budget polytope).
                absorber = linear[0] if linear else free[0]
                lam = groups[absorber].fit.m
            else:
                denom = sum(groups[i].count / (2.0 * groups[i].fit.l) for i in free)
                if abs(denom) < 1e-15:
                    continue  # a flat family whose ends are enumerated
                offset = sum(
                    groups[i].count * groups[i].fit.m / (2.0 * groups[i].fit.l)
                    for i in free
                )
                lam = (rest + offset) / denom
            tight: dict[int, float] = dict(fixed)
            for i in free:
                if i != absorber:
                    fit = groups[i].fit
                    tight[i] = (lam - fit.m) / (2.0 * fit.l)
                    rest -= groups[i].count * tight[i]
            if absorber is not None:
                tight[absorber] = rest / groups[absorber].count
            candidate = assemble(tight)
            if candidate is not None:
                yield candidate


class ReferencePartialSolver(ReferenceSolver, PartialGroupSolver):
    """:class:`PartialGroupSolver` with the loop it used to run."""

    def _solve_impl(self, groups, total_power_w):
        n = len(groups)
        best_p: tuple[float, ...] = (0.0,) * n
        best_k: tuple[int, ...] = (0,) * n
        best_score = 0.0
        if total_power_w == 0:
            return self._to_solution(groups, best_p, 0.0, "kkt", 0.0, best_k)

        for k in itertools.product(*(range(g.count + 1) for g in groups)):
            if not any(k):
                continue
            min_total = sum(
                ki * self._lo(g.fit) for ki, g in zip(k, groups) if ki > 0
            )
            if min_total > total_power_w:
                continue
            scaled = [
                GroupModel(g.name, ki, g.fit)
                for g, ki in zip(groups, k)
                if ki > 0
            ]
            on = list(range(len(scaled)))
            for candidate in self._subset_candidates(scaled, on, total_power_w):
                score = self._score(scaled, candidate)
                if score > best_score + 1e-12:
                    # Re-expand the candidate onto the original group axes.
                    expanded = [0.0] * n
                    j = 0
                    for i, ki in enumerate(k):
                        if ki > 0:
                            expanded[i] = candidate[j]
                            j += 1
                    best_p = tuple(expanded)
                    best_k = tuple(k)
                    best_score = score

        method = "kkt-partial" if best_score > 0.0 else "kkt"
        return self._to_solution(
            groups, best_p, best_score, method, total_power_w, best_k
        )


def _fit(rng: random.Random) -> PerfPowerFit:
    """A :func:`random_fit` shape, or a linear fit given a tiny quadratic term."""
    shape = rng.choice(SHAPES + ("near-linear",))
    if shape != "near-linear":
        return random_fit(rng, shape)
    base = random_fit(rng, "linear")
    l = rng.choice(NEAR_LINEAR_L) * rng.choice((1.0, -1.0))
    return PerfPowerFit(
        coefficients=(l,) + base.coefficients,
        min_power_w=base.min_power_w,
        max_power_w=base.max_power_w,
    )


def _program(
    rng: random.Random, max_groups: int, max_count: int
) -> tuple[float, list[GroupModel], float]:
    """A seeded program: safety margin, groups and a budget.

    The budget runs from 0 to 3x the power-on total, cliffs included: a
    tenth of the programs sit exactly on some subset's power-on total.
    """
    margin = rng.choice((0.0, 0.05))
    solver = PARSolver(safety_margin=margin)
    groups = [
        GroupModel(f"g{i}", rng.randint(1, max_count), _fit(rng))
        for i in range(rng.randint(1, max_groups))
    ]
    lows = [g.count * solver._lo(g.fit) for g in groups]
    draw = rng.random()
    if draw < 0.05:
        budget = 0.0
    elif draw < 0.15:
        subset = [w for w in lows if rng.random() < 0.5] or lows[:1]
        budget = sum(subset)
    else:
        budget = rng.uniform(0.0, 3.0 * sum(lows))
    return margin, groups, budget


def test_kkt_best_is_bit_identical():
    rng = random.Random(20211019)
    for case in range(10_000):
        margin, groups, budget = _program(rng, max_groups=4, max_count=6)
        got = PARSolver(safety_margin=margin)._kkt_best(groups, budget)
        want = ReferenceSolver(safety_margin=margin)._kkt_best(groups, budget)
        assert repr(got) == repr(want), (case, margin, groups, budget)


def test_partial_solver_is_bit_identical():
    rng = random.Random(20211020)
    for case in range(1_000):
        margin, groups, budget = _program(rng, max_groups=3, max_count=3)
        got = PartialGroupSolver(safety_margin=margin)
        want = ReferencePartialSolver(safety_margin=margin)
        got, want = got.solve(groups, budget), want.solve(groups, budget)
        assert repr(got) == repr(want), (case, margin, groups, budget)


@pytest.mark.parametrize("l", NEAR_LINEAR_L)
def test_near_linear_pair_is_bit_identical(l):
    # Two (near-)linear groups free together: the kernel, like the
    # enumeration, skips their tight point when both are linear.
    groups = [
        GroupModel("a", 2, PerfPowerFit((l, 2.0, 10.0), 50.0, 120.0)),
        GroupModel("b", 3, PerfPowerFit((-l, 3.0, -40.0), 40.0, 90.0)),
    ]
    for budget in (0.0, 220.0, 230.0, 300.0, 500.0, 1000.0):
        got = PARSolver(safety_margin=0.0)._kkt_best(groups, budget)
        want = ReferenceSolver(safety_margin=0.0)._kkt_best(groups, budget)
        assert repr(got) == repr(want), budget
