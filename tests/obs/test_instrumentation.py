"""The built-in instrumentation on solver/scheduler/sim/shift hot paths.

These tests read *deltas* of the process-wide default registry, so they
stay correct regardless of what other tests already recorded.
"""

import json

import pytest

from repro.core.database import PerfPowerFit, ProfilingDatabase
from repro.core.policies import make_policy
from repro.core import predictor
from repro.core.predictor import HoltPredictor
from repro.core.solver import GroupModel, PARSolver
from repro.errors import ConfigurationError
from repro.obs.metrics import REGISTRY, obs_enabled, set_enabled
from repro.obs.tracing import set_trace_sink
from repro.servers.rack import Rack
from repro.shift import planner as planner_module
from repro.shift.planner import PlanInputs, ShiftPlanner
from repro.shift.queue import JobQueue, ShiftJob
from repro.sim.clock import SimClock
from repro.sim.engine import Simulation
from repro.traces.nrel import Weather
from repro.units import SECONDS_PER_DAY


@pytest.fixture
def enabled():
    before = obs_enabled()
    set_enabled(True)
    yield
    set_enabled(before)


def counter_value(name, *labels):
    return REGISTRY.get(name).labels(*labels).value


def span_count(span):
    return REGISTRY.get("repro_span_seconds").labels(span).count


def concave_group(name="A"):
    fit = PerfPowerFit(coefficients=(-0.033, 9.9, -642.5), min_power_w=95.0,
                       max_power_w=150.0)
    return GroupModel(name=name, count=5, fit=fit)


class TestSolverInstrumentation:
    def test_solve_times_and_counts(self, enabled):
        solver = PARSolver(safety_margin=0.0)
        before = span_count("solver.solve")
        solver.solve([concave_group()], 600.0)
        assert span_count("solver.solve") == before + 1
        solver.solve([concave_group()], 600.0)  # cache hit: still timed
        assert span_count("solver.solve") == before + 2

    def test_invalid_input_is_not_timed(self, enabled):
        before = span_count("solver.solve")
        with pytest.raises(ConfigurationError):
            PARSolver().solve([concave_group()], float("nan"))
        assert span_count("solver.solve") == before

    def test_cache_hit_and_miss_counters(self, enabled):
        solver = PARSolver(safety_margin=0.0)
        hits0 = counter_value("repro_solver_cache_lookups_total", "hit")
        miss0 = counter_value("repro_solver_cache_lookups_total", "miss")
        solver.solve([concave_group()], 600.0)
        solver.solve([concave_group()], 600.0)  # identical program: hit
        assert counter_value("repro_solver_cache_lookups_total", "miss") == miss0 + 1
        assert counter_value("repro_solver_cache_lookups_total", "hit") == hits0 + 1

    def test_per_instance_cache_info_unchanged(self, enabled):
        # The obs counters are additive; the per-solver ints the tests
        # and the daemon's cache-stats op rely on keep exact semantics.
        solver = PARSolver(safety_margin=0.0)
        solver.solve([concave_group()], 600.0)
        solver.solve([concave_group()], 600.0)
        info = solver.cache_info()
        assert info["hits"] == 1
        assert info["misses"] == 1

    def test_disabled_does_not_count(self, enabled):
        set_enabled(False)
        before = span_count("solver.solve")
        PARSolver(safety_margin=0.0).solve([concave_group()], 600.0)
        assert span_count("solver.solve") == before


class TestPredictorInstrumentation:
    def test_fit_counted_and_timed(self, enabled, monkeypatch):
        monkeypatch.setattr(predictor, "_FIT_MEMO", {})
        fits0 = counter_value("repro_predictor_fits_total")
        secs0 = span_count("predictor.fit")
        HoltPredictor.fit([10.0, 12.0, 14.0, 17.0, 19.0])
        assert counter_value("repro_predictor_fits_total") == fits0 + 1
        assert span_count("predictor.fit") == secs0 + 1
        # A memo hit is a fit but not a search: counted, not timed.
        HoltPredictor.fit([10.0, 12.0, 14.0, 17.0, 19.0])
        assert counter_value("repro_predictor_fits_total") == fits0 + 2
        assert span_count("predictor.fit") == secs0 + 1


def three_epoch_sim():
    return Simulation.assemble(
        policy=make_policy("GreenHetero"),
        rack=Rack([("E5-2620", 2), ("i5-4460", 2)], "SPECjbb"),
        weather=Weather.HIGH,
        clock=SimClock(start_s=SECONDS_PER_DAY, duration_s=3 * 900.0),
        seed=7,
    )


class TestSimulationInstrumentation:
    def test_epochs_spans_and_histograms(self, enabled):
        sim = three_epoch_sim()
        phase0 = {
            phase: span_count(phase)
            for phase in ("sim.step", "controller.epoch", "scheduler.forecast",
                          "scheduler.select", "scheduler.solve")
        }
        log = sim.run()
        assert len(log) == 3
        for phase, before in phase0.items():
            assert span_count(phase) == before + 3, phase

    def test_span_tree_roots_every_epoch_at_sim_step(self, enabled, tmp_path):
        sim = three_epoch_sim()
        path = tmp_path / "trace.jsonl"
        set_trace_sink(path)
        try:
            sim.run()
        finally:
            set_trace_sink(None)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        by_id = {r["span_id"]: r for r in records}
        steps = [r for r in records if r["name"] == "sim.step"]
        assert len(steps) == 3
        assert all(r["parent_id"] is None for r in steps)
        epochs = [r for r in records if r["name"] == "controller.epoch"]
        assert len(epochs) == 3
        for record in epochs:
            assert by_id[record["parent_id"]]["name"] == "sim.step"
        # Source selection runs the forecast, so that phase nests one
        # level deeper; every other phase hangs off the epoch.
        expected_parent = {
            "scheduler.profile": "controller.epoch",
            "scheduler.select": "controller.epoch",
            "scheduler.forecast": "scheduler.select",
            "scheduler.solve": "controller.epoch",
            "solver.solve": "scheduler.solve",
        }
        for name, parent_name in expected_parent.items():
            records_of = [r for r in records if r["name"] == name]
            assert len(records_of) == 3, name
            for record in records_of:
                parent = by_id[record["parent_id"]]
                assert parent["name"] == parent_name, name
                assert record["trace_id"] == parent["trace_id"]


class TestShiftInstrumentation:
    def test_plan_counts_candidates_and_placements(self, enabled):
        queue = JobQueue()
        queue.submit(ShiftJob(
            job_id="j0", energy_wh=75.0, power_w=300.0,
            earliest_start_s=0.0, deadline_s=8 * 900.0, value=1.0,
        ))
        inputs = PlanInputs(
            time_s=0.0,
            epoch_s=900.0,
            renewable_w=(400.0,) * 8,
            interactive_w=(0.0,) * 8,
            committed_w=(),
            batch_capacity_w=1000.0,
            battery_usable_wh=0.0,
            battery_max_discharge_w=0.0,
            grid_budget_w=1000.0,
            batch_models=(),
        )
        plans0 = counter_value("repro_shift_plans_total", "exhaustive")
        cand0 = counter_value("repro_shift_candidates_total")
        placed0 = counter_value("repro_shift_placements_total")
        secs0 = span_count("shift.plan")
        plan = ShiftPlanner(horizon=8).plan(queue, inputs)
        assert plan.method == "exhaustive"
        assert counter_value("repro_shift_plans_total", "exhaustive") == plans0 + 1
        assert counter_value("repro_shift_candidates_total") > cand0
        assert counter_value("repro_shift_placements_total") == placed0 + len(plan.placements)
        assert span_count("shift.plan") == secs0 + 1

    def test_empty_queue_plans_are_counted_as_empty(self, enabled):
        inputs = PlanInputs(
            time_s=0.0, epoch_s=900.0, renewable_w=(400.0,) * 8,
            interactive_w=(0.0,) * 8, committed_w=(), batch_capacity_w=1000.0,
            battery_usable_wh=0.0, battery_max_discharge_w=0.0,
            grid_budget_w=1000.0, batch_models=(),
        )
        plans0 = counter_value("repro_shift_plans_total", "empty")
        greedy0 = counter_value("repro_shift_plans_total", "greedy")
        secs0 = span_count("shift.plan")
        plan = ShiftPlanner(horizon=8).plan(JobQueue(), inputs)
        assert plan.method == "empty"
        assert counter_value("repro_shift_plans_total", "empty") == plans0 + 1
        assert counter_value("repro_shift_plans_total", "greedy") == greedy0
        assert span_count("shift.plan") == secs0 + 1

    def test_one_span_and_one_counter_increment_per_plan(self, enabled, monkeypatch):
        queue = JobQueue()
        for i in range(3):
            queue.submit(ShiftJob(
                job_id=f"j{i}", energy_wh=75.0, power_w=300.0,
                earliest_start_s=0.0, deadline_s=8 * 900.0, value=1.0,
            ))
        inputs = PlanInputs(
            time_s=0.0, epoch_s=900.0,
            renewable_w=(0.0, 0.0) + (400.0,) * 6, interactive_w=(0.0,) * 8,
            committed_w=(), batch_capacity_w=1000.0, battery_usable_wh=0.0,
            battery_max_discharge_w=0.0, grid_budget_w=1000.0,
        )
        increments = []
        family = planner_module._CANDIDATES_TOTAL

        class Recorder:
            def inc(self, amount=1.0):
                increments.append(amount)
                family.inc(amount)

        monkeypatch.setattr(planner_module, "_CANDIDATES_TOTAL", Recorder())
        cand0 = counter_value("repro_shift_candidates_total")
        spans0 = span_count("shift.plan")
        plan = ShiftPlanner(horizon=8).plan(queue, inputs)
        assert plan.method == "exhaustive" and len(plan.placements) == 3
        assert span_count("shift.plan") == spans0 + 1
        # Once per plan, by the number of candidates the search priced.
        assert len(increments) == 1 and increments[0] >= 3
        assert counter_value("repro_shift_candidates_total") == cand0 + increments[0]


class TestDatabaseInstrumentation:
    KEY = ("E5-2620", "SPECjbb")

    def _db(self, l=-2.0):
        db = ProfilingDatabase()
        powers = (100.0, 110.0, 120.0, 135.0, 150.0)
        samples = [(p, l * p * p + 600.0 * p - 20000.0) for p in powers]
        db.ingest_training_run(self.KEY, 88.0, samples)
        return db

    def test_refit_counted_and_curvature_exported(self, enabled):
        refits0 = counter_value("repro_database_refits_total")
        db = self._db()  # the training run refits once
        fit = db.refit(self.KEY)
        assert counter_value("repro_database_refits_total") == refits0 + 2
        gauge = REGISTRY.get("repro_database_fit_curvature").labels(*self.KEY)
        assert gauge.value == fit.l
        assert gauge.value == pytest.approx(-2.0)  # negative: concave

    def test_curvature_follows_the_latest_fit(self, enabled):
        db = self._db(l=-2.0)
        for p in (100.0, 120.0, 140.0, 150.0):
            db.add_sample(self.KEY, p, 2.0 * p * p - 200.0 * p + 10000.0)
        fit = db.refit(self.KEY)
        assert REGISTRY.get("repro_database_fit_curvature").labels(*self.KEY).value == fit.l

    def test_exposed_with_labels(self, enabled):
        self._db()
        text = REGISTRY.expose()
        assert "# TYPE repro_database_refits_total counter" in text
        assert 'repro_database_fit_curvature{platform="E5-2620",workload="SPECjbb"}' in text

    def test_disabled_does_not_count(self, enabled):
        db = self._db()
        set_enabled(False)
        refits0 = counter_value("repro_database_refits_total")
        db.refit(self.KEY)
        assert counter_value("repro_database_refits_total") == refits0

    def test_no_curvature_before_the_first_fit(self, enabled):
        key = ("Xeon-Phi", "Unfitted-workload")
        ProfilingDatabase().ensure_entry(key, 100.0, 200.0)
        assert 'workload="Unfitted-workload"' not in REGISTRY.expose()
