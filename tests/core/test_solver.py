"""The PAR solver (Eq. 6-8)."""

import itertools

import numpy as np
import pytest

from repro.core import solver as solver_module
from repro.core.database import FitKind, PerfPowerFit
from repro.core.solver import MAX_GROUPS, GroupModel, PARSolver
from repro.errors import ConfigurationError, SolverError


def make_fit(l, m, n, lo, hi):
    return PerfPowerFit(coefficients=(l, m, n), min_power_w=lo, max_power_w=hi)


def concave_group(name="A", count=5, t_max=100.0, lo=95.0, hi=150.0):
    """A concave quadratic peaking exactly at hi."""
    # f(p) = t_max * (1 - ((hi - p)/(hi - lo))^2), scaled so f(hi) = t_max.
    span = hi - lo
    l = -t_max / span**2
    m = 2 * t_max * hi / span**2
    n = t_max - t_max * hi**2 / span**2
    return GroupModel(name=name, count=count, fit=make_fit(l, m, n, lo, hi))


def three_groups():
    return [
        concave_group("A", 5, t_max=100.0, lo=95.0, hi=150.0),
        concave_group("B", 5, t_max=40.0, lo=58.0, hi=75.0),
        concave_group("C", 5, t_max=60.0, lo=52.0, hi=80.0),
    ]


def linear_group(name, count, slope, intercept, lo, hi):
    fit = PerfPowerFit(
        coefficients=(slope, intercept), min_power_w=lo, max_power_w=hi,
        kind=FitKind.LINEAR,
    )
    return GroupModel(name=name, count=count, fit=fit)


@pytest.fixture
def solver():
    return PARSolver(safety_margin=0.0)


class TestBasics:
    def test_zero_budget(self, solver):
        sol = solver.solve([concave_group()], 0.0)
        assert sol.ratios == (0.0,)
        assert sol.expected_perf == 0.0

    def test_budget_below_power_on(self, solver):
        g = concave_group(count=5, lo=95.0)
        sol = solver.solve([g], 400.0)  # 5 * 95 = 475 needed
        assert sol.expected_perf == 0.0

    def test_abundant_budget_saturates(self, solver):
        g = concave_group(count=5, t_max=100.0, hi=150.0)
        sol = solver.solve([g], 10000.0)
        assert sol.expected_perf == pytest.approx(500.0, rel=0.01)
        assert sol.per_server_w[0] == pytest.approx(150.0)

    def test_never_over_allocates_beyond_plateau(self, solver):
        g = concave_group(count=5, hi=150.0)
        sol = solver.solve([g], 10000.0)
        # Surplus stays unallocated (flows to the battery per the paper).
        assert sum(sol.ratios) < 1.0

    def test_ratios_sum_at_most_one(self, solver):
        groups = [concave_group("A", 5), concave_group("B", 5, t_max=50.0, lo=50.0, hi=80.0)]
        for budget in (500.0, 800.0, 1200.0, 2000.0):
            sol = solver.solve(groups, budget)
            assert sum(sol.ratios) <= 1.0 + 1e-9

    def test_allocation_feasible(self, solver):
        groups = [concave_group("A", 5), concave_group("B", 5, t_max=50.0, lo=50.0, hi=80.0)]
        for budget in (500.0, 700.0, 900.0, 1150.0):
            sol = solver.solve(groups, budget)
            total = sum(g.count * p for g, p in zip(groups, sol.per_server_w))
            assert total <= budget + 1e-6

    def test_empty_groups_rejected(self, solver):
        with pytest.raises(SolverError):
            solver.solve([], 100.0)

    def test_negative_budget_rejected(self, solver):
        with pytest.raises(ConfigurationError):
            solver.solve([concave_group()], -1.0)

    @pytest.mark.parametrize("budget", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("warm_solves", [0, 8])
    def test_non_finite_budget_rejected(self, budget, warm_solves):
        # Validation runs before the memo lookup, on an empty memo or not.
        solver = PARSolver()
        for i in range(warm_solves):
            solver.solve(three_groups(), 500.0 + 100.0 * i)
        with pytest.raises(ConfigurationError, match="finite"):
            solver.solve(three_groups(), budget)

    def test_too_many_groups_rejected(self, solver):
        groups = [concave_group(str(i)) for i in range(MAX_GROUPS + 1)]
        with pytest.raises(SolverError):
            solver.solve(groups, 1000.0)

    def test_negative_safety_margin_rejected(self):
        with pytest.raises(SolverError):
            PARSolver(safety_margin=-0.1)

    def test_more_than_three_coefficients_rejected(self, solver):
        # The KKT scan reads only the quadratic and linear terms, so a
        # cubic would be solved as its quadratic part: 50 W per server
        # (916,667) where the cubic peaks at 100 W (1,333,333).
        fit = PerfPowerFit((-1 / 3, 0.0, 1e4, 0.0), 50.0, 150.0)
        with pytest.raises(SolverError, match="at most quadratic"):
            solver.solve([GroupModel("cubic", 2, fit)], 400.0)
        for coefficients in ((-1.0, 300.0, -5000.0), (300.0, -5000.0)):
            GroupModel("ok", 2, PerfPowerFit(coefficients, 50.0, 150.0))


class TestOptimality:
    """KKT must match brute force on quadratic instances."""

    def _brute_force(self, groups, budget, steps=400):
        best = 0.0
        if len(groups) == 2:
            g0, g1 = groups
            for eta in np.linspace(0, 1, steps + 1):
                p0 = eta * budget / g0.count
                p1 = (1 - eta) * budget / g1.count
                for q0 in (0.0, min(p0, g0.fit.max_power_w)):
                    for q1 in (0.0, min(p1, g1.fit.max_power_w)):
                        perf = g0.count * g0.fit.predict(q0) + g1.count * g1.fit.predict(q1)
                        best = max(best, perf)
        return best

    def test_matches_brute_force_two_groups(self, solver):
        groups = [
            concave_group("A", 5, t_max=100.0, lo=95.0, hi=150.0),
            concave_group("B", 5, t_max=60.0, lo=52.0, hi=80.0),
        ]
        for budget in (550.0, 700.0, 900.0, 1100.0, 1200.0):
            sol = solver.solve(groups, budget)
            brute = self._brute_force(groups, budget)
            assert sol.expected_perf >= brute * 0.995

    def test_water_filling_equalises_marginals(self, solver):
        # With both groups strictly interior, marginal perf/W must match.
        groups = [
            concave_group("A", 1, t_max=100.0, lo=50.0, hi=200.0),
            concave_group("B", 1, t_max=80.0, lo=50.0, hi=200.0),
        ]
        sol = solver.solve(groups, 250.0)
        pa, pb = sol.per_server_w
        if 50.0 < pa < 200.0 and 50.0 < pb < 200.0:
            da = groups[0].fit.derivative(pa)
            db = groups[1].fit.derivative(pb)
            assert da == pytest.approx(db, rel=0.05)

    def test_prefers_efficient_group(self, solver):
        fast = concave_group("fast", 5, t_max=200.0, lo=50.0, hi=80.0)
        slow = concave_group("slow", 5, t_max=20.0, lo=95.0, hi=150.0)
        sol = solver.solve([fast, slow], 400.0)
        # Budget fits the fast group exactly; powering slow instead or
        # splitting below fast's saturation would lose throughput.
        assert sol.per_server_w[0] == pytest.approx(80.0, rel=0.02)
        assert sol.expected_perf == pytest.approx(1000.0, rel=0.02)

    def test_powers_off_group_when_better(self, solver):
        # 500 W: either 5 "big" at their 95 W minimum (tiny perf) or
        # 5 "small" saturated (big perf).  The solver must switch the
        # big group off.
        big = concave_group("big", 5, t_max=10.0, lo=95.0, hi=150.0)
        small = concave_group("small", 5, t_max=100.0, lo=52.0, hi=80.0)
        sol = solver.solve([big, small], 450.0)
        assert sol.per_server_w[0] == 0.0
        assert sol.per_server_w[1] > 0.0

    def test_three_groups(self, solver):
        groups = three_groups()
        sol = solver.solve(groups, 1000.0)
        assert sol.expected_perf > 0.0
        total = sum(g.count * p for g, p in zip(groups, sol.per_server_w))
        assert total <= 1000.0 + 1e-6

    def test_non_concave_fit_handled_by_grid(self, solver):
        # A convex (bowl) fit from degenerate samples: optimum at a box
        # corner, which KKT's lo/hi assignments visit exactly (the name
        # predates the exact path).
        convex = GroupModel("X", 2, make_fit(0.5, -50.0, 2000.0, 60.0, 100.0))
        sol = solver.solve([convex], 200.0)
        assert sol.expected_perf == 2 * convex.fit.predict(100.0)
        assert sol.method == "kkt"


class TestExactPath:
    """Linear and quadratic fits are solved by KKT enumeration alone."""

    def linear_pair(self):
        return [
            linear_group("A", 5, 10.0, -500.0, 100.0, 150.0),
            linear_group("B", 5, 20.0, -600.0, 55.0, 80.0),
        ]

    def test_linear_budget_tight_vertex(self, solver):
        # B saturates at 80 W; A takes the remaining 700 W / 5 = 140 W.
        # KKT used to skip this vertex (a lone free linear group) and
        # return 7500 with A at its lower bound.
        sol = solver.solve(self.linear_pair(), 1100.0)
        assert sol.per_server_w == (140.0, 80.0)
        assert sol.expected_perf == 9500.0

    def test_linear_and_quadratic_free_together(self, solver):
        # One linear and one quadratic group both free: lambda is the
        # linear slope, so the quadratic sits where f'(p) = 2 and the
        # linear group absorbs the rest of the budget.
        quad = GroupModel("Q", 2, make_fit(-0.1, 22.0, -500.0, 50.0, 150.0))
        lin = linear_group("L", 3, 2.0, 0.0, 40.0, 200.0)
        sol = solver.solve([quad, lin], 600.0)
        assert sol.per_server_w[0] == pytest.approx(100.0)  # -0.2 p + 22 = 2
        assert sol.per_server_w[1] == pytest.approx((600.0 - 200.0) / 3)
        assert sol.expected_perf == pytest.approx(2 * 700.0 + 3 * 2.0 * 400.0 / 3)


class TestSafetyMargin:
    def test_margin_lifts_lower_bound(self):
        solver = PARSolver(safety_margin=0.10)
        g = concave_group("A", 1, lo=100.0, hi=200.0)
        sol = solver.solve([g], 105.0)
        # 105 < 100 * 1.10: the margin forbids powering this server.
        assert sol.expected_perf == 0.0

    def test_margin_respected_in_allocations(self):
        solver = PARSolver(safety_margin=0.05)
        g = concave_group("A", 1, lo=100.0, hi=200.0)
        sol = solver.solve([g], 500.0)
        assert sol.per_server_w[0] >= 100.0 * 1.05 - 1e-9


class TestCompositions:
    def test_ten_percent_grid_size(self):
        # Compositions of 10 steps into 2 groups: 11 vectors.
        assert len(PARSolver.compositions(2, 0.1)) == 11

    def test_three_groups_composition_count(self):
        # Stars and bars: C(10 + 2, 2) = 66.
        assert len(PARSolver.compositions(3, 0.1)) == 66

    def test_all_sum_to_one(self):
        for ratios in PARSolver.compositions(3, 0.1):
            assert sum(ratios) == pytest.approx(1.0)

    def test_bad_granularity_rejected(self):
        with pytest.raises(SolverError):
            PARSolver.compositions(2, 0.3)

    def test_bad_k_rejected(self):
        with pytest.raises(SolverError):
            PARSolver.compositions(0, 0.1)

    def test_built_once_returned_fresh(self):
        first = PARSolver.compositions(3, 0.1)
        first.append((0.0, 0.0, 0.0))
        again = PARSolver.compositions(3, 0.1)
        assert type(again) is list and len(again) == 66
        assert again is not first
        # Same vectors, same order as the stars-and-bars enumeration.
        expected = []
        for combo in itertools.combinations_with_replacement(range(3), 10):
            expected.append(tuple(combo.count(i) * 0.1 for i in range(3)))
        assert again == expected

    def test_exhaustive_finds_best(self):
        # Objective peaked at (0.6, 0.4).
        def objective(trials):
            return [-abs(ratios[0] - 0.6) for ratios in trials]

        best, value = PARSolver.exhaustive(2, objective, 0.1)
        assert best == pytest.approx((0.6, 0.4))
        assert value == pytest.approx(0.0)


class TestMemoization:
    def groups(self):
        return [
            concave_group("A", 5),
            concave_group("B", 5, t_max=50.0, lo=50.0, hi=80.0),
        ]

    def test_cached_solutions_match_cold_solves_over_budget_cycle(self):
        # The constrained-supply sweep re-poses the same programs every
        # time the budget cycle wraps; a warm solver must answer exactly
        # as a fresh one.
        from repro.sim.experiment import ExperimentConfig

        warm = PARSolver(safety_margin=0.0)
        budgets = [f * 1370.0 for f in ExperimentConfig.INSUFFICIENT_SWEEP] * 3
        for budget in budgets:
            cold = PARSolver(safety_margin=0.0).solve(self.groups(), budget)
            assert warm.solve(self.groups(), budget) == cold
        sweep = len(ExperimentConfig.INSUFFICIENT_SWEEP)
        assert warm.cache_misses == sweep
        assert warm.cache_hits == len(budgets) - sweep

    def test_hit_returns_the_memoized_object(self):
        solver = PARSolver(safety_margin=0.0)
        first = solver.solve(self.groups(), 900.0)
        second = solver.solve(self.groups(), 900.0)
        assert second is first  # frozen, so sharing is safe

    def test_budget_change_misses(self):
        solver = PARSolver(safety_margin=0.0)
        solver.solve(self.groups(), 900.0)
        solver.solve(self.groups(), 901.0)
        assert solver.cache_misses == 2
        assert solver.cache_hits == 0

    def test_fit_change_misses(self):
        solver = PARSolver(safety_margin=0.0)
        solver.solve([concave_group("A", 5, t_max=100.0)], 900.0)
        solver.solve([concave_group("A", 5, t_max=101.0)], 900.0)
        assert solver.cache_misses == 2

    def test_cache_info(self):
        solver = PARSolver(safety_margin=0.0)
        assert solver.cache_info() == {
            "hits": 0, "misses": 0, "stale_hits": 0, "size": 0, "hit_rate": 0.0,
        }
        solver.solve(self.groups(), 900.0)
        solver.solve(self.groups(), 900.0)
        assert solver.cache_info() == {
            "hits": 1, "misses": 1, "stale_hits": 0, "size": 1, "hit_rate": 0.5,
        }

    def test_budgets_a_quantum_apart_are_two_programs(self):
        # Budgets closer than any meter can tell apart are still two
        # programs: neither answer may replay the other's allocation.
        groups = self.groups()
        solver = PARSolver()
        above = solver.solve(groups, 600.0000004)
        exact = solver.solve(groups, 600.0)
        assert solver.cache_misses == 2 and solver.cache_hits == 0
        assert above == PARSolver().solve(groups, 600.0000004)
        assert exact == PARSolver().solve(groups, 600.0)
        assert above != exact

    def test_fifo_eviction_bounds_the_cache(self, monkeypatch):
        monkeypatch.setattr(solver_module, "CACHE_SIZE", 4)
        solver = PARSolver(safety_margin=0.0)
        for budget in (600.0, 700.0, 800.0, 900.0, 1000.0):
            solver.solve(self.groups(), budget)
        assert solver.cache_info()["size"] == 4
        # The oldest entry (600 W) was evicted: solving it again misses.
        solver.solve(self.groups(), 600.0)
        assert solver.cache_misses == 6

    def test_validation_still_runs_on_would_be_hits(self):
        solver = PARSolver(safety_margin=0.0)
        solver.solve(self.groups(), 900.0)
        with pytest.raises(ConfigurationError):
            solver.solve(self.groups(), -1.0)

    def test_partial_group_solver_shares_the_cache_machinery(self):
        from repro.core.solver import PartialGroupSolver

        solver = PartialGroupSolver(safety_margin=0.0)
        first = solver.solve(self.groups(), 700.0)
        second = solver.solve(self.groups(), 700.0)
        assert second is first
        assert solver.cache_hits == 1
        assert first.powered_counts is not None


class TestSolveCounters:
    def test_solve_calls_no_labels(self, monkeypatch):
        # Every repro_solver_solves_total and cache-lookup child the solve
        # path increments is resolved at import.
        from repro.obs.metrics import REGISTRY, _Family

        groups = [concave_group("A", 5, lo=95.0, hi=150.0)]
        # The solver.solve span resolves its histogram child on first use.
        PARSolver().solve(groups, 740.0)
        solves = REGISTRY.get("repro_solver_solves_total")
        kkt0, cached0 = solves.labels("kkt").value, solves.labels("cached").value

        def refuse(self, *values):
            raise AssertionError(f"{self.name}.labels{values} on the solve path")

        monkeypatch.setattr(_Family, "labels", refuse)
        solver = PARSolver(safety_margin=0.0)
        solver.solve(groups, 740.0)  # miss
        solver.solve(groups, 740.0)  # hit
        monkeypatch.undo()
        info = solver.cache_info()
        assert (info["misses"], info["hits"]) == (1, 1)
        assert solves.labels("kkt").value == kkt0 + 1
        assert solves.labels("cached").value == cached0 + 1
