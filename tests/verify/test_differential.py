"""The differential solver corpus: the regression gate for the solver."""

import random

import numpy as np
import pytest

from repro.core.database import FitKind
from repro.core.solver import FEASIBILITY_SLACK_W, GroupModel, PARSolver
from repro.errors import ConfigurationError
from repro.verify import run_differential, run_live
from repro.verify.differential import (
    check_case,
    live_programs,
    random_case,
    random_fit,
)


class TestCorpus:
    def test_regression_corpus_passes(self):
        # The acceptance-criteria corpus: 200 deterministic seeded cases.
        report = run_differential(n_cases=200, seed=0)
        assert report.passed, report.summary()
        assert report.n_cases == 200

    def test_corpus_is_deterministic(self):
        a = run_differential(n_cases=5, seed=3)
        b = run_differential(n_cases=5, seed=3)
        assert a == b

    def test_alternate_seed_also_clean(self):
        report = run_differential(n_cases=25, seed=99)
        assert report.passed, report.summary()


class TestCaseGeneration:
    def test_random_case_budget_clears_power_on(self):
        rng = random.Random(11)
        for _ in range(20):
            groups, budget = random_case(rng)
            power_on = sum(
                g.count * g.fit.min_power_w * 1.05 for g in groups
            )
            assert budget >= 1.4 * power_on - 1e-9

    def test_concavity_of_generated_fits(self):
        rng = random.Random(12)
        for _ in range(20):
            fit = random_fit(rng, "concave")
            l, m, _ = fit.coefficients
            assert l < 0  # strictly concave
            vertex = -m / (2.0 * l)
            assert vertex >= fit.max_power_w - 1e-9  # increasing

    def test_corpus_covers_every_live_shape(self):
        rng = random.Random(13)
        fits = [g.fit for _ in range(40) for g in random_case(rng)[0]]
        assert any(f.l < 0 for f in fits)
        assert any(f.l > 0 for f in fits)
        assert any(f.kind is FitKind.LINEAR for f in fits)
        # Some quadratic dips below zero inside its box (the clamp acts).
        assert any(
            f.kind is FitKind.QUADRATIC
            and min(f.raw(p) for p in np.linspace(f.min_power_w, f.max_power_w, 201)) < 0
            for f in fits
        )

    def test_solve_equals_forced_kkt_bit_for_bit(self):
        solver = PARSolver()
        rng = random.Random(15)
        kinds = set()
        for _ in range(60):
            groups, budget = random_case(rng, solver.safety_margin)
            kinds.update(g.fit.kind for g in groups)
            assert solver.solve(groups, budget) == solver.solve_via(
                groups, budget, "kkt"
            )
        assert kinds == {FitKind.LINEAR, FitKind.QUADRATIC}

    def test_unknown_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            random_fit(random.Random(0), "sigmoid")


class TestCheckCase:
    def test_detects_an_infeasible_mechanism(self):
        import dataclasses

        rng = random.Random(21)
        groups, budget = random_case(rng)

        class OverdrawingSolver(PARSolver):
            def solve_via(self, groups, total_power_w, method):
                # A broken mechanism: hands out twice what it solved for.
                sol = super().solve_via(groups, total_power_w, method)
                return dataclasses.replace(
                    sol,
                    per_server_w=tuple(2.0 * p for p in sol.per_server_w),
                )

        outcome = check_case(
            OverdrawingSolver(), groups, budget, case_seed=21
        )
        assert not outcome.ok
        assert any(
            "infeasible" in f or "plateau" in f for f in outcome.failures
        )

    def test_detects_an_inexact_solve(self):
        rng = random.Random(22)
        groups, budget = random_case(rng)

        class GridSolver(PARSolver):
            # A broken production path: answers with the coarse grid.
            def solve(self, groups, total_power_w):
                return self.solve_via(groups, total_power_w, "grid")

        outcome = check_case(GridSolver(), groups, budget, 22)
        assert any("forced KKT" in f for f in outcome.failures)

    def test_solutions_stay_within_budget(self):
        solver = PARSolver()
        rng = random.Random(31)
        for i in range(10):
            groups, budget = random_case(
                rng, safety_margin=solver.safety_margin
            )
            for method in PARSolver.METHODS:
                sol = solver.solve_via(groups, budget, method)
                total = sum(
                    g.count * p for g, p in zip(groups, sol.per_server_w)
                )
                assert total <= budget + FEASIBILITY_SLACK_W


class TestLiveCorpus:
    def test_live_lap_passes(self):
        report = run_live()
        assert report.passed, report.summary()
        # One program per 15-minute epoch of the Fig. 8 day.
        assert report.n_cases == 96
        assert report.summary().startswith("differential[live]: 96 cases")

    def test_live_programs_come_from_the_lap(self):
        programs = live_programs()
        assert all(len(groups) == 2 for groups, _ in programs)
        assert len({budget for _, budget in programs}) > 1
        assert live_programs() == programs  # deterministic

    def test_quality_checks_are_optional(self):
        rng = random.Random(41)
        groups = tuple(
            GroupModel(f"g{i}", 3, random_fit(rng, "concave")) for i in range(2)
        )
        budget = 3.0 * sum(g.count * g.fit.max_power_w for g in groups)

        class IdleGridSolver(PARSolver):
            # A grid that powers nothing lags the exact optimum by 100%.
            def _grid_best(self, groups, budget_w):
                return (0.0,) * len(groups), 0.0

        solver = IdleGridSolver()
        outcome = check_case(solver, groups, budget, 41)
        assert any("lags" in f for f in outcome.failures)
        assert check_case(solver, groups, budget, 41, quality=False).ok
