"""Property-based tests on the control plane (policies, selector, enforcer).

Complements ``test_properties.py`` (substrate invariants) with laws on
the decision layer: every policy's PAR vector is a valid sub-simplex
point for arbitrary databases and budgets; the source selector's budget
never exceeds what its chosen sources can deliver; the partial-group
solver dominates the group-granular one everywhere.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.database import PerfPowerFit, ProfilingDatabase
from repro.core.policies import (
    AllocationContext,
    GroupInfo,
    make_policy,
)
from repro.core.solver import GroupModel, PARSolver, PartialGroupSolver
from repro.core.sources import PowerCase, SourceSelector
from repro.power.battery import BatteryBank
from repro.power.grid import GridSource

# ----------------------------------------------------------------------
# Random databases and contexts
# ----------------------------------------------------------------------


def _concave_fit(t_max: float, lo: float, hi: float) -> PerfPowerFit:
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


group_params = st.tuples(
    st.floats(min_value=10.0, max_value=500.0),   # t_max
    st.floats(min_value=30.0, max_value=120.0),   # lo
    st.floats(min_value=15.0, max_value=120.0),   # span
    st.integers(min_value=1, max_value=6),        # count
)


@st.composite
def contexts(draw):
    n_groups = draw(st.integers(min_value=1, max_value=3))
    db = ProfilingDatabase()
    groups = []
    for i in range(n_groups):
        t_max, lo, span, count = draw(group_params)
        key = (f"plat{i}", "wl")
        fit = _concave_fit(t_max, lo, lo + span)
        db.ensure_entry(key, idle_power_w=lo * 0.8, max_power_w=lo + span)
        entry = db._entries[key]
        entry.min_active_power_w = lo
        entry.fit = fit
        groups.append(GroupInfo(f"plat{i}", count, key))
    budget = draw(st.floats(min_value=0.0, max_value=3000.0))
    return AllocationContext(budget_w=budget, groups=tuple(groups), database=db)


@given(ctx=contexts(), policy_name=st.sampled_from(
    ["Uniform", "GreenHetero-p", "GreenHetero-a", "GreenHetero", "OnOff", "GreenHetero+"]
))
@settings(max_examples=80, deadline=None)
def test_policies_emit_valid_par_vectors(ctx, policy_name):
    policy = make_policy(policy_name)
    plan = policy.allocate_plan(ctx)
    assert len(plan.ratios) == len(ctx.groups)
    assert all(r >= -1e-12 for r in plan.ratios)
    assert sum(plan.ratios) <= 1.0 + 1e-6
    if plan.powered_counts is not None:
        assert len(plan.powered_counts) == len(ctx.groups)
        for k, g in zip(plan.powered_counts, ctx.groups):
            assert 0 <= k <= g.count


@given(ctx=contexts())
@settings(max_examples=50, deadline=None)
def test_partial_solver_dominates_group_granular(ctx):
    groups = ctx.group_models()
    base = PARSolver(safety_margin=0.0).solve(groups, ctx.budget_w)
    partial = PartialGroupSolver(safety_margin=0.0).solve(groups, ctx.budget_w)
    assert partial.expected_perf >= base.expected_perf - 1e-6


@given(ctx=contexts())
@settings(max_examples=50, deadline=None)
def test_partial_solver_feasible(ctx):
    groups = ctx.group_models()
    sol = PartialGroupSolver(safety_margin=0.0).solve(groups, ctx.budget_w)
    total = sum(k * p for k, p in zip(sol.powered_counts, sol.per_server_w))
    assert total <= ctx.budget_w + 1e-4
    assert sum(sol.ratios) <= 1.0 + 1e-6


# ----------------------------------------------------------------------
# Source selector
# ----------------------------------------------------------------------


@given(
    renewable=st.floats(min_value=0.0, max_value=3000.0),
    demand=st.floats(min_value=0.0, max_value=3000.0),
    soc=st.floats(min_value=0.6, max_value=1.0),
    grid_budget=st.floats(min_value=0.0, max_value=2000.0),
)
@settings(max_examples=100, deadline=None)
def test_selector_budget_is_deliverable(renewable, demand, soc, grid_budget):
    battery = BatteryBank(initial_soc_fraction=soc)
    grid = GridSource(budget_w=grid_budget)
    selector = SourceSelector()
    decision = selector.decide(renewable, demand, battery, grid, 900.0)
    deliverable = (
        renewable
        + (battery.max_discharge_power_w(900.0) if decision.use_battery else 0.0)
        + grid.budget_w
    )
    assert decision.rack_budget_w <= deliverable + 1e-6
    assert decision.rack_budget_w <= demand + 1e-6
    assert decision.rack_budget_w >= 0.0


@given(
    demand=st.floats(min_value=1.0, max_value=3000.0),
    soc=st.floats(min_value=0.6, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_selector_night_is_never_case_a(demand, soc):
    battery = BatteryBank(initial_soc_fraction=soc)
    selector = SourceSelector()
    decision = selector.decide(0.0, demand, battery, GridSource(), 900.0)
    assert decision.case is PowerCase.C


@given(
    renewable=st.floats(min_value=10.0, max_value=5000.0),
    demand=st.floats(min_value=1.0, max_value=3000.0),
)
@settings(max_examples=60, deadline=None)
def test_selector_case_a_iff_renewable_covers(renewable, demand):
    assume(abs(renewable - demand) > 1.0)  # avoid boundary ties
    selector = SourceSelector()
    decision = selector.decide(
        renewable, demand, BatteryBank(), GridSource(), 900.0
    )
    if renewable > demand:
        assert decision.case is PowerCase.A
        assert decision.rack_budget_w >= decision.predicted_demand_w - 1e-9
    else:
        assert decision.case is not PowerCase.A
