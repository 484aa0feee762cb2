"""The differential solver corpus: the regression gate for the solver."""

import dataclasses
import random

import numpy as np
import pytest

from repro.core.database import FitKind, PerfPowerFit
from repro.core.solver import FEASIBILITY_SLACK_W, GroupModel, PARSolver
from repro.errors import ConfigurationError
from repro.verify import differential, run_differential, run_live
from repro.verify.differential import (
    check_case,
    duality_bound,
    grid_best,
    live_programs,
    random_case,
    random_fit,
)


def concave_program():
    """Two concave groups ``1000 - c (p - 250)^2``, positive over their
    [50, 200] W boxes.  At 900 W the optimum stands both free, at 116.7
    and 183.3 W, where their marginals ``2c (250 - p)`` are equal."""
    groups = tuple(
        GroupModel(name, 3, PerfPowerFit((-c, 500.0 * c, 1000.0 - 62_500.0 * c), 50.0, 200.0))
        for name, c in (("a", 0.01), ("b", 0.02))
    )
    return groups, 900.0


class TestCorpus:
    def test_regression_corpus_passes(self):
        # The acceptance-criteria corpus: 200 deterministic seeded cases.
        report = run_differential(n_cases=200, seed=0)
        assert report.passed, report.summary()
        assert report.n_cases == 200
        # The bound closes on every concave-positive program (a check) and
        # on most of the others.
        assert (report.closed, report.concave) == (180, 24)
        assert report.summary().endswith("closed on 180/200 (24 concave-positive)")

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

    def test_unknown_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            random_fit(random.Random(0), "sigmoid")


class TestCheckCase:
    def test_detects_an_infeasible_mechanism(self):
        rng = random.Random(21)
        groups, budget = random_case(rng)

        class OverdrawingSolver(PARSolver):
            def solve(self, groups, total_power_w):
                # A broken solve: hands out twice what it solved for.
                sol = super().solve(groups, total_power_w)
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
        groups, budget = concave_program()

        class GridSolver(PARSolver):
            # A broken solve: answers with the reference grid's point.
            def solve(self, groups, total_power_w):
                lows = [self._lo(g.fit) for g in groups]
                p, score = grid_best(groups, total_power_w, lows)
                return dataclasses.replace(
                    super().solve(groups, total_power_w),
                    per_server_w=p,
                    expected_perf=score,
                )

        assert check_case(PARSolver(), groups, budget, 22).ok
        outcome = check_case(GridSolver(), groups, budget, 22)
        assert any("falls short of the duality bound" in f for f in outcome.failures)

    def test_detects_a_one_watt_shift(self):
        # Both groups stand free at the optimum; moving 1 W from one to
        # the other stays feasible but loses a little performance.
        groups, budget = concave_program()

        class ShiftingSolver(PARSolver):
            def solve(self, groups, total_power_w):
                sol = super().solve(groups, total_power_w)
                a, b = groups
                p = (
                    sol.per_server_w[0] + 1.0 / a.count,
                    sol.per_server_w[1] - 1.0 / b.count,
                )
                return dataclasses.replace(
                    sol, per_server_w=p,
                    expected_perf=sum(g.count * g.fit.predict(x) for g, x in zip(groups, p)),
                )

        exact = PARSolver().solve(groups, budget)
        lows = [PARSolver()._lo(g.fit) for g in groups]
        for g, lo, p in zip(groups, lows, exact.per_server_w):
            assert lo + 1.0 < p < g.fit.max_power_w - 1.0
        outcome = check_case(ShiftingSolver(), groups, budget, 23)
        assert not outcome.closed
        # Feasible, and no grid point beats it: only the bound notices.
        assert len(outcome.failures) == 1
        assert "falls short of the duality bound" in outcome.failures[0]

    def test_detects_an_inflated_projection(self):
        groups, budget = concave_program()

        class BoastingSolver(PARSolver):
            def solve(self, groups, total_power_w):
                sol = super().solve(groups, total_power_w)
                return dataclasses.replace(
                    sol, expected_perf=sol.expected_perf * (1.0 + 1e-6)
                )

        outcome = check_case(BoastingSolver(), groups, budget, 24)
        assert any("exceeds the duality bound" in f for f in outcome.failures)

    def test_detects_a_lagging_grid(self, monkeypatch):
        groups, budget = concave_program()
        # A grid that powers nothing lags the exact optimum by 100%.
        monkeypatch.setattr(
            differential, "grid_best", lambda groups, budget_w, lows: ((0.0,) * len(groups), 0.0)
        )
        outcome = check_case(PARSolver(), groups, budget, 25)
        assert any("lags" in f for f in outcome.failures)

    def test_solutions_stay_within_budget(self):
        solver = PARSolver()
        rng = random.Random(31)
        for i in range(10):
            groups, budget = random_case(
                rng, safety_margin=solver.safety_margin
            )
            lows = [solver._lo(g.fit) for g in groups]
            for p in (
                solver.solve(groups, budget).per_server_w,
                grid_best(groups, budget, lows)[0],
            ):
                total = sum(g.count * q for g, q in zip(groups, p))
                assert total <= budget + FEASIBILITY_SLACK_W


class TestDualityBound:
    def test_closes_on_a_linear_program(self):
        # B saturates at 80 W and A takes the other 700 W at 140 W: the
        # linear program's optimum, 9500, which the bound proves.
        groups = [
            GroupModel("A", 5, PerfPowerFit((10.0, -500.0), 100.0, 150.0, FitKind.LINEAR)),
            GroupModel("B", 5, PerfPowerFit((20.0, -600.0), 55.0, 80.0, FitKind.LINEAR)),
        ]
        assert PARSolver(safety_margin=0.0).solve(groups, 1100.0).expected_perf == 9500.0
        assert duality_bound(groups, 1100.0, [100.0, 55.0]) == pytest.approx(9500.0, rel=1e-12)

    def test_bounds_every_grid_point(self):
        # Weak duality holds whatever the fit's shape: no feasible point,
        # such as the grid's best, scores above the bound.
        solver = PARSolver()
        rng = random.Random(32)
        for _ in range(40):
            groups, budget = random_case(rng, solver.safety_margin)
            lows = [solver._lo(g.fit) for g in groups]
            bound = duality_bound(groups, budget, lows)
            assert grid_best(groups, budget, lows)[1] <= bound * (1 + 1e-12)

    def test_nothing_powered_below_every_cliff(self):
        groups, _ = concave_program()
        lows = [g.fit.min_power_w * 1.05 for g in groups]
        assert duality_bound(groups, 0.5 * min(lows), lows) == 0.0


class TestLiveCorpus:
    def test_live_lap_passes(self):
        report = run_live()
        assert report.passed, report.summary()
        # One program per 15-minute epoch of the Fig. 8 day.
        assert report.n_cases == 96
        assert report.summary().startswith("differential[live]: 96 cases")
        # Every concave-positive program closes (a check); the others may not.
        assert report.closed >= report.concave > 0

    def test_live_programs_come_from_the_lap(self):
        programs = live_programs()
        assert all(len(groups) == 2 for groups, _ in programs)
        assert len({budget for _, budget in programs}) > 1
        assert live_programs() == programs  # deterministic
