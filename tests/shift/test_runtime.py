"""ShiftRuntime against a real simulated rack, plus the benchmark's
acceptance criteria (grid savings with zero deadline misses)."""

import json

import pytest

from repro.core.policies import make_policy
from repro.power.battery import BatteryBank
from repro.shift.bench import (
    BENCH_BATTERY_COUNT,
    BENCH_BATTERY_PENALTY_PER_KWH,
    BENCH_GRID_PENALTY_PER_KWH,
    build_bench_rack,
    bench_jobs,
    run_shift_bench,
)
from repro.shift.planner import ShiftPlanner
from repro.shift import runtime as runtime_module
from repro.shift.queue import JobStatus, ShiftJob
from repro.shift.runtime import ShiftRuntime
from repro.sim.clock import SimClock
from repro.sim.engine import Simulation
from repro.sim.faults import FaultInjector
from repro.traces.nrel import Weather
from repro.units import SECONDS_PER_DAY


def make_sim(shift=None, days=0.5, seed=2021):
    sim = Simulation.assemble(
        policy=make_policy("GreenHetero"),
        rack=build_bench_rack(),
        weather=Weather.HIGH,
        clock=SimClock(start_s=SECONDS_PER_DAY, duration_s=days * SECONDS_PER_DAY),
        seed=seed,
        battery=BatteryBank(count=BENCH_BATTERY_COUNT),
    )
    if shift is not None:
        sim.shift = shift
    return sim


def small_job(clock, job_id="j0", epochs=2, power_w=620.0, start_offset=0):
    return ShiftJob(
        job_id=job_id,
        energy_wh=power_w * epochs * clock.epoch_s / 3600.0,
        power_w=power_w,
        earliest_start_s=clock.start_s + start_offset * clock.epoch_s,
        deadline_s=clock.start_s + clock.duration_s,
    )


class TestInertness:
    def test_rack_without_submissions_is_untouched(self):
        """A runtime that never sees a job must not perturb telemetry."""
        plain = make_sim().run()
        routed = make_sim(shift=ShiftRuntime()).run()
        assert [r.budget_w for r in routed] == [r.budget_w for r in plain]
        assert [r.throughput for r in routed] == [r.throughput for r in plain]
        assert [r.grid_to_load_w for r in routed] == [r.grid_to_load_w for r in plain]


class TestExecution:
    def test_jobs_run_to_completion_with_telemetry(self):
        runtime = ShiftRuntime(planner=ShiftPlanner(horizon=8))
        sim = make_sim(shift=runtime)
        job = small_job(sim.clock, epochs=2)
        runtime.submit(job)
        sim.run()
        assert runtime.queue.status("j0") == JobStatus.DONE
        assert runtime.queue.epochs_run("j0") == 2
        assert len(runtime.log.records) == sim.clock.n_epochs
        started = [r for r in runtime.log if r.jobs_started]
        assert len(started) == 1
        assert started[0].batch_power_w == pytest.approx(job.power_w)
        # Once the job finishes, gating drops batch draw back to zero.
        assert runtime.log.records[-1].batch_power_w == 0.0
        assert runtime.log.records[-1].deadline_misses == 0

    def test_impossible_job_is_missed_and_accounted(self):
        runtime = ShiftRuntime()
        sim = make_sim(shift=runtime)
        # Deadline two epochs in, duration four epochs: unreachable.
        runtime.submit(
            ShiftJob(
                job_id="doomed",
                energy_wh=620.0,
                power_w=620.0,
                earliest_start_s=sim.clock.start_s,
                deadline_s=sim.clock.start_s + 2 * sim.clock.epoch_s,
            )
        )
        sim.run()
        assert runtime.queue.status("doomed") == JobStatus.MISSED
        assert runtime.log.records[-1].deadline_misses == 1

    def test_state_roundtrip_mid_run(self):
        runtime = ShiftRuntime()
        sim = make_sim(shift=runtime)
        runtime.submit(small_job(sim.clock, "a", start_offset=0))
        runtime.submit(small_job(sim.clock, "b", start_offset=40))
        for _ in range(4):
            sim.step()
        state = runtime.state_dict()
        clone = ShiftRuntime()
        clone.load_state_dict(state)
        assert clone.state_dict() == state
        assert clone.activated
        assert [e["job_id"] for e in clone.queue.state_dict()["jobs"]] == ["a", "b"]
        # The status totals survive the restore; the epoch log does not.
        assert len(clone.log.records) == 0
        assert clone.summary() == runtime.summary()
        assert clone.summary()["epochs"] == 4


class TestRunningTotals:
    def test_summary_totals_equal_the_log(self):
        runtime = ShiftRuntime(
            planner=ShiftPlanner(horizon=8, grid_penalty_per_kwh=8.0)
        )
        sim = make_sim(shift=runtime)
        runtime.submit(small_job(sim.clock, epochs=2))
        sim.run()
        summary = runtime.summary()
        assert summary["epochs"] == len(runtime.log.records) == sim.clock.n_epochs
        assert summary["grid_avoided_wh"] == sum(
            r.grid_avoided_wh for r in runtime.log
        )
        assert summary["grid_avoided_wh"] > 0.0

    def test_fresh_runtime_reports_float_zero(self):
        summary = ShiftRuntime().summary()
        assert summary["epochs"] == 0
        assert summary["grid_avoided_wh"] == 0.0
        assert isinstance(summary["grid_avoided_wh"], float)


class TestBaselineQuotes:
    """A job's run-immediately quote lives only while the job is pending."""

    def quoted_ids_by_epoch(self, sim):
        runtime = sim.shift
        seen = []
        while sim.epoch_index < sim.clock.n_epochs:
            sim.step()
            pending = {job.job_id for job in runtime.queue.pending()}
            quoted = set(runtime._start_baseline_wh)
            assert quoted <= pending, (sim.epoch_index, quoted, pending)
            seen.append(quoted)
        return seen

    def test_shifted_day_keeps_only_pending_quotes(self):
        runtime = ShiftRuntime(
            planner=ShiftPlanner(
                horizon=8,
                grid_penalty_per_kwh=BENCH_GRID_PENALTY_PER_KWH,
                battery_penalty_per_kwh=BENCH_BATTERY_PENALTY_PER_KWH,
            )
        )
        sim = make_sim(shift=runtime, days=1.0)
        for job in bench_jobs(sim.clock, runtime.batch_capacity_w(sim.controller), 4):
            runtime.submit(job)
        seen = self.quoted_ids_by_epoch(sim)
        assert any(seen)  # some job waited for the sun with a quote held
        assert runtime.queue.counts()[JobStatus.DONE] == 4
        assert runtime._start_baseline_wh == {}

    def test_missed_job_drops_its_quote(self):
        runtime = ShiftRuntime()
        sim = make_sim(shift=runtime, days=0.25)
        # Only one of the two fits the batch groups, and neither can wait:
        # one starts, the other is quoted, then misses its deadline.
        power_w = 0.7 * runtime.batch_capacity_w(sim.controller)
        for job_id in ("a", "b"):
            runtime.submit(
                ShiftJob(
                    job_id=job_id,
                    energy_wh=power_w * 2 * sim.clock.epoch_s / 3600.0,
                    power_w=power_w,
                    earliest_start_s=sim.clock.start_s,
                    deadline_s=sim.clock.start_s + 2 * sim.clock.epoch_s,
                )
            )
        seen = self.quoted_ids_by_epoch(sim)
        assert seen[0]  # the waiting job was quoted
        assert runtime.queue.counts()[JobStatus.MISSED] == 1
        assert runtime._start_baseline_wh == {}


class TestFaultReplanning:
    def test_renewable_dropout_triggers_replacement(self):
        """Satellite: the planner must replan around an injected dropout.

        Without the fault the job chases the morning sun.  With PV dead
        for the whole run, the same job must still complete (forced by
        its deadline) — the receding-horizon replan absorbs the dropout
        instead of executing a stale sunny-day plan.
        """
        day = SECONDS_PER_DAY

        def run(faults=None):
            runtime = ShiftRuntime(
                planner=ShiftPlanner(horizon=8, grid_penalty_per_kwh=8.0)
            )
            sim = make_sim(shift=runtime)
            if faults:
                sim.faults = faults
            runtime.submit(small_job(sim.clock, epochs=2))
            sim.run()
            return runtime

        sunny = run()
        dark = run(
            FaultInjector().add_renewable_dropout(day, 2 * day, factor=0.0)
        )
        assert sunny.queue.status("j0") == JobStatus.DONE
        assert dark.queue.status("j0") == JobStatus.DONE
        assert dark.log.records[-1].deadline_misses == 0
        # The sunny run found renewable-covered epochs worth waiting for;
        # the dark run had nothing to chase and saved no grid energy.
        assert sunny.grid_avoided_wh > 0.0
        assert dark.grid_avoided_wh == pytest.approx(0.0)


class TestBenchAcceptance:
    """The headline claim, asserted — not just written to the JSON."""

    @pytest.fixture(scope="class")
    def payload(self):
        return run_shift_bench(days=1.0, seed=2021)

    def test_shift_reduces_grid_energy(self, payload):
        grid = payload["comparison"]["grid_kwh"]
        assert grid["shift"] < grid["no_shift"]
        assert grid["saved"] > 0.0

    def test_zero_deadline_misses_in_both_arms(self, payload):
        misses = payload["comparison"]["deadline_misses"]
        assert misses == {"shift": 0, "no_shift": 0}

    def test_all_jobs_complete_in_both_arms(self, payload):
        jobs = payload["comparison"]["jobs"]
        for arm in ("shift", "no_shift"):
            assert jobs[arm]["done"] == payload["config"]["n_jobs"]

    def test_planner_reports_grid_avoided(self, payload):
        assert payload["comparison"]["planner"]["grid_avoided_wh"] > 0.0


# ----------------------------------------------------------------------
# Pass-through epochs: with nothing pending the runtime builds no
# lookahead, yet plans, telemetry and checkpoints equal the full path's.
# ----------------------------------------------------------------------
EPOCHS = 12


class FullInputRuntime(ShiftRuntime):
    """The reference: every epoch builds the full lookahead and plans it."""

    def _plan(self, controller, time_s, interactive_now_w, grid_budget_w=None):
        inputs = self.plan_inputs(controller, time_s, interactive_now_w, grid_budget_w)
        plan = self.planner.plan(self.queue, inputs)
        self.last_plan = plan
        return plan


def forced_job(sim, epochs, power_w=620.0):
    """A job whose deadline leaves no slack: it starts this epoch and runs
    ``epochs`` epochs with nothing left pending."""
    epoch_s = sim.clock.epoch_s
    return ShiftJob(
        job_id=f"forced@{sim.epoch_index}",
        energy_wh=power_w * epochs * epoch_s / 3600.0,
        power_w=power_w,
        earliest_start_s=sim.clock_s,
        deadline_s=sim.clock_s + epochs * epoch_s,
    )


def no_jobs(sim):
    pass


def running_job(sim):
    sim.shift.submit(forced_job(sim, epochs=2 * EPOCHS))


def finished_job(sim):
    sim.shift.submit(forced_job(sim, epochs=2))


def snapshot(sim):
    runtime = sim.shift
    return (
        runtime.last_plan,
        runtime.log.records[-1],
        repr(sim.log[-1]),
        json.dumps(runtime.state_dict(), sort_keys=True),
        json.dumps(sim.state_dict(), sort_keys=True, default=str),
    )


class TestEquivalence:
    @pytest.mark.parametrize(
        "setup, expect",
        [
            (no_jobs, "fresh"),
            (running_job, JobStatus.RUNNING),
            (finished_job, JobStatus.DONE),
        ],
    )
    def test_matches_full_input_path(self, setup, expect):
        fast = make_sim(shift=ShiftRuntime(), days=0.25)
        full = make_sim(shift=FullInputRuntime(), days=0.25)
        setup(fast)
        setup(full)
        pass_through = 0
        for _ in range(EPOCHS):
            idle = not fast.shift.queue.pending()
            fast.step()
            full.step()
            assert snapshot(fast) == snapshot(full)
            if idle:
                pass_through += 1
        # Every job leaves pending at the first epoch, so all later
        # epochs (every epoch of a fresh runtime) are pass-through.
        assert pass_through >= EPOCHS - 1
        counts = fast.shift.queue.counts()
        if expect == "fresh":
            assert not fast.shift.activated
            assert sum(counts.values()) == 0
        else:
            assert counts[expect] == 1
            assert fast.shift.last_plan.method == "empty"

    def test_plan_now_matches_full_input_path(self):
        fast = make_sim(shift=ShiftRuntime(), days=0.25)
        full = make_sim(shift=FullInputRuntime(), days=0.25)
        for sim in (fast, full):
            running_job(sim)
            sim.step()
        assert not fast.shift.queue.pending()
        assert fast.shift.plan_now(fast.controller, fast.clock_s) == (
            full.shift.plan_now(full.controller, full.clock_s)
        )


class TestNoLookahead:
    def test_pass_through_epoch_builds_no_lookahead(self, monkeypatch):
        calls = {"chain_forecast": 0, "PlanInputs": 0}
        real_chain = runtime_module.chain_forecast
        real_inputs = runtime_module.PlanInputs

        def chain_spy(*args, **kwargs):
            calls["chain_forecast"] += 1
            return real_chain(*args, **kwargs)

        def inputs_spy(*args, **kwargs):
            calls["PlanInputs"] += 1
            return real_inputs(*args, **kwargs)

        monkeypatch.setattr(runtime_module, "chain_forecast", chain_spy)
        monkeypatch.setattr(runtime_module, "PlanInputs", inputs_spy)
        sim = make_sim(shift=ShiftRuntime(), days=0.25)
        for _ in range(3):
            sim.step()
        assert calls == {"chain_forecast": 0, "PlanInputs": 0}
        running_job(sim)
        sim.step()  # the job is pending here: a full plan
        assert calls["chain_forecast"] > 0 and calls["PlanInputs"] == 1
        full_path = dict(calls)
        for _ in range(3):
            sim.step()  # running, nothing pending
        sim.shift.plan_now(sim.controller, sim.clock_s)
        assert sim.shift.queue.counts()[JobStatus.RUNNING] == 1
        assert calls == full_path


class TestRackConstants:
    def test_follow_a_workload_switch(self):
        """The cached rack shape is rebuilt when the controller's rack is
        replaced, so the batch capacity and caps track the new workloads."""
        runtime = ShiftRuntime()
        sim = make_sim(shift=runtime)
        controller = sim.controller
        capacity = runtime.batch_capacity_w(controller)
        assert capacity == controller.rack.curve(0).max_draw_w * 5
        controller.switch_workload(["SPECjbb", "Streamcluster"])
        assert runtime.deferrable_indices(controller) == [1]
        assert runtime.batch_capacity_w(controller) == (
            controller.rack.curve(1).max_draw_w * 5
        )
        assert runtime._group_caps(controller, 100.0) == (float("inf"), 100.0)
        controller.switch_workload("SPECjbb")
        assert runtime.deferrable_indices(controller) == []
        assert runtime.batch_capacity_w(controller) == 0
