"""Partial-group allocation (the k-of-n extension beyond the paper)."""

import pytest

from repro.core.database import PerfPowerFit
from repro.core.policies import GreenHeteroPartialPolicy, make_policy
from repro.core.enforcer import ServerPowerController
from repro.core.solver import GroupModel, PARSolver, PartialGroupSolver
from repro.errors import PowerError
from repro.servers.rack import Rack


def concave(t_max, lo, hi):
    span = hi - lo
    return PerfPowerFit(
        coefficients=(
            -t_max / span**2,
            2 * t_max * hi / span**2,
            t_max - t_max * hi**2 / span**2,
        ),
        min_power_w=lo,
        max_power_w=hi,
    )


BIG = GroupModel("big", 5, concave(100.0, 100.0, 150.0))
SMALL = GroupModel("small", 5, concave(60.0, 52.0, 80.0))


class TestPartialGroupSolver:
    def test_never_worse_than_group_granular(self):
        base = PARSolver(safety_margin=0.0)
        partial = PartialGroupSolver(safety_margin=0.0)
        for budget in (300.0, 500.0, 700.0, 900.0, 1100.0, 1300.0):
            a = base.solve([BIG, SMALL], budget).expected_perf
            b = partial.solve([BIG, SMALL], budget).expected_perf
            assert b >= a - 1e-9, budget

    def test_wins_at_the_cliff(self):
        # 600 W: all-on choices are poor — five big servers crawl at
        # their 100 W minimum (and 500 W leaves the small group dark),
        # while the small group alone caps out at 400 W.  Powering a
        # *subset* of big servers well plus most of the small group
        # beats both by a wide margin.
        base = PARSolver(safety_margin=0.0)
        partial = PartialGroupSolver(safety_margin=0.0)
        a = base.solve([BIG, SMALL], 600.0)
        b = partial.solve([BIG, SMALL], 600.0)
        assert b.expected_perf > a.expected_perf * 1.2
        assert b.powered_counts is not None
        assert 0 < b.powered_counts[0] < 5

    def test_full_budget_powers_everything(self):
        partial = PartialGroupSolver(safety_margin=0.0)
        sol = partial.solve([BIG, SMALL], 10000.0)
        assert sol.powered_counts == (5, 5)

    def test_budget_respected(self):
        partial = PartialGroupSolver(safety_margin=0.0)
        for budget in (250.0, 650.0, 1000.0):
            sol = partial.solve([BIG, SMALL], budget)
            total = sum(
                k * p for k, p in zip(sol.powered_counts, sol.per_server_w)
            )
            assert total <= budget + 1e-6

    def test_zero_budget(self):
        sol = PartialGroupSolver().solve([BIG, SMALL], 0.0)
        assert sol.powered_counts == (0, 0)
        assert sol.expected_perf == 0.0

    def test_method_label(self):
        sol = PartialGroupSolver(safety_margin=0.0).solve([BIG, SMALL], 700.0)
        assert sol.method == "kkt-partial"


class TestEnforcerPartial:
    def test_powers_first_k_servers(self):
        rack = Rack([("E5-2620", 4), ("i5-4460", 2)], "Streamcluster")
        states = ServerPowerController.apply(rack, (300.0, 180.0), powered_counts=(2, 2))
        e5 = states[0]
        assert e5 == rack.curve(0).state_for_budget(150.0)
        assert e5.active
        # The two powered servers draw within the group budget.
        assert 2 * rack.curve(0).sample_at_state(e5).power_w <= 300.0 + 1e-6

    def test_zero_count_turns_group_off(self):
        rack = Rack([("E5-2620", 2), ("i5-4460", 2)], "Streamcluster")
        states = ServerPowerController.apply(rack, (0.0, 150.0), powered_counts=(0, 2))
        assert states[0].is_off

    def test_zero_count_is_off_whatever_the_budget(self):
        rack = Rack([("E5-2620", 2), ("i5-4460", 2)], "Streamcluster")
        states = ServerPowerController.apply(rack, (500.0, 150.0), powered_counts=(0, 2))
        assert states[0].is_off

    def test_bad_count_rejected(self):
        rack = Rack([("E5-2620", 2)], "Streamcluster")
        with pytest.raises(PowerError):
            ServerPowerController.apply(rack, (100.0,), powered_counts=(3,))
        with pytest.raises(PowerError):
            ServerPowerController.apply(rack, (100.0,), powered_counts=(-1,))

    def test_count_length_mismatch_rejected(self):
        rack = Rack([("E5-2620", 2)], "Streamcluster")
        with pytest.raises(PowerError):
            ServerPowerController.apply(rack, (100.0,), powered_counts=(1, 1))


class TestPolicy:
    def test_registered(self):
        assert make_policy("GreenHetero+").name == "GreenHetero+"

    def test_plan_carries_counts(self):
        from tests.core.test_policies import make_ctx

        plan = GreenHeteroPartialPolicy().allocate_plan(make_ctx(budget=700.0))
        assert plan.powered_counts is not None
        assert len(plan.powered_counts) == 2

    def test_default_policies_plan_has_no_counts(self):
        from tests.core.test_policies import make_ctx

        plan = make_policy("GreenHetero").allocate_plan(make_ctx(budget=700.0))
        assert plan.powered_counts is None

    def test_end_to_end_never_worse(self):
        from repro.sim.experiment import ExperimentConfig
        from repro.sim.runner import run_experiment

        cfg = ExperimentConfig.insufficient_supply(
            "SPECjbb", days=0.25, policies=("Uniform", "GreenHetero", "GreenHetero+")
        )
        result = run_experiment(cfg)
        assert result.gain("GreenHetero+") >= result.gain("GreenHetero") - 0.03


class TestCombinatoricGuard:
    def test_huge_racks_rejected_with_guidance(self):
        from repro.errors import SolverError

        groups = [
            GroupModel("a", 40, concave(100.0, 100.0, 150.0)),
            GroupModel("b", 40, concave(60.0, 52.0, 80.0)),
            GroupModel("c", 40, concave(60.0, 52.0, 80.0)),
        ]
        with pytest.raises(SolverError, match="group-granular"):
            PartialGroupSolver().solve(groups, 5000.0)

    def test_paper_scale_racks_fine(self):
        groups = [
            GroupModel("a", 5, concave(100.0, 100.0, 150.0)),
            GroupModel("b", 5, concave(60.0, 52.0, 80.0)),
            GroupModel("c", 5, concave(60.0, 52.0, 80.0)),
        ]
        sol = PartialGroupSolver(safety_margin=0.0).solve(groups, 1500.0)
        assert sol.expected_perf > 0
