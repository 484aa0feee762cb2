"""The receding-horizon planner: forecast chaining, pricing, policies."""

import pytest

from repro.core.database import PerfPowerFit
from repro.core.predictor import HoltPredictor
from repro.core.solver import GroupModel
from repro.errors import ConfigurationError
from repro.shift.planner import (
    IdleInputs,
    PlanInputs,
    Placement,
    ShiftPlan,
    ShiftPlanner,
    _SupplyState,
    chain_forecast,
)
from repro.shift.queue import JobQueue, ShiftJob

EPOCH = 900.0


def make_inputs(
    renewable=(0.0,) * 8,
    interactive=(0.0,) * 8,
    committed=(),
    capacity=1000.0,
    battery_wh=0.0,
    battery_rate=0.0,
    grid=1000.0,
    models=(),
    time_s=0.0,
):
    return PlanInputs(
        time_s=time_s,
        epoch_s=EPOCH,
        renewable_w=tuple(renewable),
        interactive_w=tuple(interactive),
        committed_w=tuple(committed),
        batch_capacity_w=capacity,
        battery_usable_wh=battery_wh,
        battery_max_discharge_w=battery_rate,
        grid_budget_w=grid,
        batch_models=tuple(models),
    )


def queue_of(*jobs):
    q = JobQueue()
    for j in jobs:
        q.submit(j)
    return q


def job(job_id="j0", energy_wh=75.0, power_w=300.0,
        earliest_start_s=0.0, deadline_s=8 * EPOCH, value=1.0):
    # 75 Wh at 300 W = one epoch.
    return ShiftJob(
        job_id=job_id,
        energy_wh=energy_wh,
        power_w=power_w,
        earliest_start_s=earliest_start_s,
        deadline_s=deadline_s,
        value=value,
    )


class TestChainForecast:
    """Satellite: H-step chaining must equal Holt's direct h-step ray."""

    def test_matches_direct_multi_step_forecast(self):
        p = HoltPredictor(alpha=0.6, beta=0.2)
        for v in (100.0, 120.0, 138.0, 155.0, 171.0):
            p.observe(v)
        chained = chain_forecast(p, 8)
        direct = tuple(p.predict(h) for h in range(1, 9))
        assert chained == pytest.approx(direct)

    def test_original_predictor_not_mutated(self):
        p = HoltPredictor(alpha=0.5, beta=0.5)
        p.observe(10.0)
        p.observe(12.0)
        before = p.state_dict()
        chain_forecast(p, 5)
        assert p.state_dict() == before

    def test_nonnegative_clamp_respected_along_chain(self):
        p = HoltPredictor(alpha=1.0, beta=1.0, nonnegative=True)
        p.observe(10.0)
        p.observe(4.0)  # steep negative trend
        assert all(v >= 0.0 for v in chain_forecast(p, 8))

    def test_non_holt_predictor_uses_direct_forecast(self):
        class Flat:
            def predict(self, h=1):
                return 42.0

        assert chain_forecast(Flat(), 3) == (42.0, 42.0, 42.0)

    def test_bad_horizon_rejected(self):
        with pytest.raises(ConfigurationError):
            chain_forecast(HoltPredictor(), 0)


class TestSupplyAccounting:
    def test_renewable_first_then_battery_then_grid(self):
        # Epoch 0 has 200 W renewable free, 50 Wh battery, plenty grid.
        planner = ShiftPlanner(horizon=8)
        plan = planner.plan(
            queue_of(job(power_w=400.0, energy_wh=100.0)),
            make_inputs(
                renewable=(200.0,) + (0.0,) * 7,
                battery_wh=30.0,
                battery_rate=200.0,
            ),
        )
        (placement,) = plan.placements
        assert placement.renewable_wh == pytest.approx(50.0)
        assert placement.battery_wh == pytest.approx(30.0)
        assert placement.grid_wh == pytest.approx(20.0)

    def test_interactive_reserves_renewable(self):
        planner = ShiftPlanner(horizon=8)
        plan = planner.plan(
            queue_of(job()),
            make_inputs(renewable=(500.0,) * 8, interactive=(450.0,) * 8),
        )
        (placement,) = plan.placements
        # Only 50 W of renewable headroom: 12.5 Wh of the 75 Wh epoch.
        assert placement.renewable_wh == pytest.approx(12.5)
        assert placement.grid_wh == pytest.approx(62.5)

    def test_capacity_excludes_oversized_jobs(self):
        planner = ShiftPlanner(horizon=8)
        plan = planner.plan(
            queue_of(job(power_w=1500.0, energy_wh=375.0)),
            make_inputs(capacity=1000.0),
        )
        assert plan.placements == ()
        assert plan.unplaced == ("j0",)

    def test_grid_budget_gates_feasibility(self):
        planner = ShiftPlanner(horizon=8)
        plan = planner.plan(
            queue_of(job(power_w=300.0)),
            make_inputs(grid=100.0),
        )
        assert plan.placements == ()

    def test_multi_epoch_job_cannot_double_spend_battery(self):
        # 60 Wh of battery cannot fund two 75 Wh epochs with no grid.
        planner = ShiftPlanner(horizon=8)
        plan = planner.plan(
            queue_of(job(energy_wh=150.0)),
            make_inputs(grid=0.0, battery_wh=60.0, battery_rate=500.0),
        )
        assert plan.placements == ()


class TestShiftPolicy:
    def test_defers_into_renewable_epochs(self):
        # Renewable appears only at offset 5; with a steep grid price the
        # job must wait for it.
        planner = ShiftPlanner(horizon=8, grid_penalty_per_kwh=20.0)
        plan = planner.plan(
            queue_of(job()),
            make_inputs(renewable=(0.0,) * 5 + (400.0,) * 3),
        )
        (placement,) = plan.placements
        assert placement.start_offset == 5
        assert placement.grid_wh == pytest.approx(0.0)
        assert placement.grid_avoided_wh > 0.0

    def test_runs_immediately_when_renewable_is_free_now(self):
        planner = ShiftPlanner(horizon=8, grid_penalty_per_kwh=20.0)
        plan = planner.plan(
            queue_of(job()),
            make_inputs(renewable=(400.0,) * 8),
        )
        (placement,) = plan.placements
        assert placement.start_offset == 0

    def test_forced_start_beats_negative_utility_at_deadline(self):
        # Last chance to start is *now*; steep grid pricing must not
        # cause a miss.
        planner = ShiftPlanner(horizon=8, grid_penalty_per_kwh=1000.0)
        plan = planner.plan(
            queue_of(job(deadline_s=EPOCH)),
            make_inputs(),
        )
        (placement,) = plan.placements
        assert placement.start_offset == 0
        assert placement.utility < 0.0

    def test_earliest_start_respected(self):
        planner = ShiftPlanner(horizon=8)
        plan = planner.plan(
            queue_of(job(earliest_start_s=3 * EPOCH)),
            make_inputs(renewable=(400.0,) * 8),
        )
        (placement,) = plan.placements
        assert placement.start_offset >= 3

    def test_exhaustive_and_greedy_agree_on_small_instances(self):
        inputs = make_inputs(renewable=(0.0, 300.0, 0.0, 300.0) + (0.0,) * 4)
        jobs = [job(job_id="a"), job(job_id="b")]
        exact = ShiftPlanner(horizon=4, grid_penalty_per_kwh=20.0)
        greedy = ShiftPlanner(
            horizon=4, grid_penalty_per_kwh=20.0, exhaustive_limit=0
        )
        plan_exact = exact.plan(queue_of(*jobs), inputs)
        plan_greedy = greedy.plan(queue_of(*jobs), inputs)
        assert plan_exact.method == "exhaustive"
        assert plan_greedy.method == "greedy"
        placed = lambda plan: sorted(
            (p.job_id, p.start_offset) for p in plan.placements
        )
        assert placed(plan_exact) == placed(plan_greedy)

    def test_start_now_quotes_cover_startable_pending_jobs(self):
        planner = ShiftPlanner(horizon=8, grid_penalty_per_kwh=20.0)
        plan = planner.plan(
            queue_of(job(job_id="now"), job(job_id="later",
                                            earliest_start_s=4 * EPOCH)),
            make_inputs(),
        )
        quoted = dict(plan.start_now_grid_wh)
        assert quoted == {"now": pytest.approx(75.0)}


class TestEmptyQueue:
    @pytest.mark.parametrize("policy", ["shift", "no_shift"])
    def test_nothing_pending_is_an_empty_plan(self, policy):
        queue = queue_of(job("run", power_w=300.0))
        queue.mark_running("run", 0.0)
        # Committed draw above the 1000 W batch capacity at offset 3.
        inputs = make_inputs(committed=(300.0, 300.0, 0.0, 1500.0))
        planner = ShiftPlanner(horizon=6, policy=policy)
        plan = planner.plan(queue, inputs)
        assert plan.method == "empty"
        assert plan.placements == () and plan.unplaced == ()
        assert plan.start_now_grid_wh == ()
        # The same batch draw the supply ledger commits.
        ledger = _SupplyState(inputs, planner.horizon + 1)
        assert plan.batch_power_w == tuple(
            ledger.batch_power_at(1000.0, h) for h in range(planner.horizon)
        )
        assert plan.batch_power_w[3] == 1000.0
        assert plan.batch_power_w[4:] == (1000.0, 1000.0)

    def test_no_running_jobs_draw_nothing(self):
        plan = ShiftPlanner(horizon=4).plan(JobQueue(), make_inputs())
        assert plan.method == "empty"
        assert plan.batch_power_w == (0.0,) * 4

    @pytest.mark.parametrize("committed", [(), (300.0, 300.0, 0.0, 1500.0)])
    def test_idle_inputs_plan_as_full_inputs_do(self, committed):
        queue = queue_of(job("run", power_w=300.0))
        queue.mark_running("run", 0.0)
        full = make_inputs(committed=committed, time_s=EPOCH)
        idle = IdleInputs(EPOCH, EPOCH, tuple(committed), full.batch_capacity_w)
        planner = ShiftPlanner(horizon=6)
        assert planner.plan(queue, idle) == planner.plan(queue, full)

    def test_idle_inputs_cannot_place_a_pending_job(self):
        idle = IdleInputs(0.0, EPOCH, (), 1000.0)
        with pytest.raises(ConfigurationError, match="PlanInputs"):
            ShiftPlanner().plan(queue_of(job("wait")), idle)

    @pytest.mark.parametrize("epoch_s, capacity", [(0.0, 1000.0), (EPOCH, -1.0)])
    def test_idle_inputs_validated(self, epoch_s, capacity):
        with pytest.raises(ConfigurationError):
            IdleInputs(0.0, epoch_s, (), capacity)


class TestNoShiftPolicy:
    def test_places_at_earliest_feasible_epoch(self):
        planner = ShiftPlanner(horizon=8, policy="no_shift",
                               grid_penalty_per_kwh=20.0)
        plan = planner.plan(
            queue_of(job()),
            make_inputs(renewable=(0.0,) * 5 + (400.0,) * 3),
        )
        (placement,) = plan.placements
        assert placement.start_offset == 0
        assert placement.grid_wh > 0.0
        assert plan.method == "no_shift"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="policy"):
            ShiftPlanner(policy="asap")


class TestPriceValidation:
    @pytest.mark.parametrize(
        "name", ["grid_penalty_per_kwh", "battery_penalty_per_kwh", "perf_weight"]
    )
    @pytest.mark.parametrize("value", [-1e-9, -1.0, float("nan")])
    def test_negative_or_nan_price_rejected(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            ShiftPlanner(**{name: value})

    def test_zero_prices_accepted(self):
        planner = ShiftPlanner(
            grid_penalty_per_kwh=0.0, battery_penalty_per_kwh=0.0, perf_weight=0.0
        )
        plan = planner.plan(queue_of(job()), make_inputs())
        assert [p.start_offset for p in plan.placements] == [0]


class TestPerfPricing:
    def make_model(self):
        # Concave quadratic peaking at max_power_w.
        lo, hi, t_max = 95.0, 150.0, 100.0
        span = hi - lo
        fit = PerfPowerFit(
            coefficients=(
                -t_max / span**2,
                2 * t_max * hi / span**2,
                t_max - t_max * hi**2 / span**2,
            ),
            min_power_w=lo,
            max_power_w=hi,
        )
        return GroupModel(name="A", count=5, fit=fit)

    def test_marginal_perf_positive_with_models(self):
        planner = ShiftPlanner(horizon=4)
        plan = planner.plan(
            queue_of(job(power_w=600.0, energy_wh=150.0)),
            make_inputs(models=(self.make_model(),), renewable=(800.0,) * 8),
        )
        (placement,) = plan.placements
        assert placement.marginal_perf > 0.0


class TestSerialization:
    def test_plan_roundtrip(self):
        planner = ShiftPlanner(horizon=8, grid_penalty_per_kwh=20.0)
        plan = planner.plan(
            queue_of(job(), job(job_id="j1", earliest_start_s=2 * EPOCH)),
            make_inputs(renewable=(0.0,) * 4 + (400.0,) * 4),
        )
        restored = ShiftPlan.from_dict(plan.to_dict())
        assert restored == plan
        assert restored.to_dict() == plan.to_dict()

    def test_malformed_plan_rejected(self):
        with pytest.raises(ConfigurationError, match="malformed"):
            ShiftPlan.from_dict({"time_s": 0.0})
        with pytest.raises(ConfigurationError, match="malformed"):
            Placement.from_dict({"job_id": "x"})

    def test_plan_without_start_now_quotes_rejected(self):
        # Every writer emits the quotes the grid-avoided telemetry reads,
        # so a plan document without them is malformed, not empty.
        plan = ShiftPlanner(horizon=8).plan(queue_of(job()), make_inputs())
        document = plan.to_dict()
        assert document["start_now_grid_wh"]
        del document["start_now_grid_wh"]
        with pytest.raises(ConfigurationError, match="start_now_grid_wh"):
            ShiftPlan.from_dict(document)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            make_inputs(renewable=())
        with pytest.raises(ConfigurationError):
            make_inputs(grid=-1.0)
        with pytest.raises(ConfigurationError):
            ShiftPlanner(horizon=0)
