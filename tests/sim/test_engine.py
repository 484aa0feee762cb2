"""Simulation engine assembly and execution."""

import numpy as np
import pytest

from repro.core.controller import EpochDirectives
from repro.core.policies import make_policy
from repro.errors import ConfigurationError
from repro.servers.rack import Rack
from repro.sim.clock import SimClock
from repro.sim.engine import Simulation
from repro.sim.experiment import ExperimentConfig
from repro.traces.nrel import Weather
from repro.shift.queue import ShiftJob
from repro.shift.runtime import ShiftRuntime
from repro.units import SECONDS_PER_DAY
from repro.verify import InvariantAuditor


def assemble(policy="GreenHetero", hours=2.0, **kwargs):
    rack = Rack([("E5-2620", 5), ("i5-4460", 5)], kwargs.pop("workload", "SPECjbb"))
    clock = SimClock(start_s=SECONDS_PER_DAY, duration_s=hours * 3600.0)
    return Simulation.assemble(
        policy=make_policy(policy), rack=rack, clock=clock, seed=11, **kwargs
    )


class TestAssembly:
    def test_default_stack(self):
        sim = assemble()
        assert sim.controller.pdu.grid.budget_w > 0
        assert sim.controller.pdu.battery.is_full
        assert sim.clock.n_epochs == 8

    def test_solar_sized_to_rack(self):
        sim = assemble(solar_scale=1.5)
        assert sim.controller.pdu.renewable.rated_peak_w == pytest.approx(
            1.5 * sim.controller.rack.max_draw_w
        )

    def test_grid_budget_override(self):
        sim = assemble(grid_budget_w=777.0)
        assert sim.controller.pdu.grid.budget_w == 777.0

    @pytest.mark.parametrize("strict", [False, True])
    def test_the_auditor_owns_strictness(self, strict):
        sim = assemble(strict=strict)
        assert sim.auditor.strict is strict
        assert not hasattr(sim, "strict")

    def test_grid_budget_default_underprovisioned(self):
        sim = assemble(grid_budget_w=None)
        assert sim.controller.pdu.grid.budget_w < sim.controller.rack.max_draw_w

    def test_predictors_pretrained(self):
        sim = assemble()
        assert sim.controller.scheduler.renewable_predictor.ready
        assert sim.controller.scheduler.demand_predictor.ready

    def test_bad_solar_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            assemble(solar_scale=0.0)

    def test_constrained_mode_disables_grid(self):
        sim = assemble(supply_fractions=(0.6, 0.8))
        assert sim.controller.pdu.grid.budget_w == 0.0
        envelope = sim.controller.rack.envelope_w
        assert sim.rack_budgets_w == (0.6 * envelope, 0.8 * envelope)

    def test_bad_supply_fractions_rejected(self):
        with pytest.raises(ConfigurationError):
            assemble(supply_fractions=(0.5, -0.1))
        with pytest.raises(ConfigurationError):
            assemble(supply_fractions=())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_supply_fraction_rejected(self, bad):
        # NaN slips past a ``<= 0`` test and inf would read as uncapped.
        with pytest.raises(ConfigurationError, match="finite"):
            assemble(supply_fractions=(0.5, bad))

    def test_budget_reference_without_supply_fractions_rejected(self):
        with pytest.raises(ConfigurationError, match="budget_reference_w"):
            assemble(budget_reference_w=800.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -800.0])
    def test_bad_budget_reference_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="finite"):
            assemble(supply_fractions=(0.5,), budget_reference_w=bad)


class TestPretrainedPredictors:
    def test_given_pair_runs_like_assembled_pair(self):
        # The experiment runner's path (one pair per config, handed to
        # every policy) against assemble's own, on the Fig. 8 day.
        config = ExperimentConfig.fig8_default(seed=2021)
        clock = config.build_clock()
        trace = Simulation.default_trace(clock, config.weather, config.seed)
        pair = Simulation.pretrained_predictors(
            config.build_rack(), clock, trace, config.solar_scale, config.diurnal_load
        )
        before = [p.state_dict() for p in pair]

        def run(**kwargs):
            return list(Simulation.assemble(
                policy=make_policy("GreenHetero"), rack=config.build_rack(),
                clock=config.build_clock(), solar_scale=config.solar_scale,
                seed=config.seed, trace=trace, **kwargs,
            ).run())

        given = run(predictors=pair)
        assert len(given) == clock.n_epochs
        assert given == run()
        # The stack observed copies; the shared pair is left as fitted.
        assert [p.state_dict() for p in pair] == before


class TestExecution:
    def test_run_fills_log(self):
        sim = assemble()
        log = sim.run()
        assert len(log) == sim.clock.n_epochs

    def test_step_incremental(self):
        sim = assemble(hours=0.5)
        sim.step()
        assert len(sim.log) == 1
        sim.step()
        assert len(sim.log) == 2
        # run() stops at the clock's end; step() goes on past it (served
        # racks step indefinitely on wrapping traces).
        sim.run()
        assert len(sim.log) == 2
        record = sim.step()
        assert len(sim.log) == 3 and sim.epoch_index == 3
        assert record.time_s == sim.clock.start_s + 2 * sim.clock.epoch_s

    def test_deterministic_per_seed(self):
        a = assemble().run()
        b = assemble().run()
        assert np.allclose(a.throughputs, b.throughputs)
        assert np.allclose(a.epus, b.epus)

    def test_constrained_mode_budget_cycles(self):
        sim = assemble(supply_fractions=(0.5, 0.9), hours=1.0)
        log = sim.run()
        envelope = sim.controller.rack.envelope_w
        assert log[0].budget_w <= 0.5 * envelope + 1e-6
        assert log[1].budget_w > log[0].budget_w

    def test_budget_reference_used(self):
        sim = assemble(
            supply_fractions=(0.5,), budget_reference_w=800.0, hours=0.5,
            workload="Streamcluster",
        )
        log = sim.run()
        assert log[0].budget_w == pytest.approx(400.0)

    def test_interactive_load_varies_with_diurnal_pattern(self):
        sim = assemble(hours=8.0, diurnal_load=True)
        log = sim.run()
        loads = log.series("load_fraction")
        assert loads.std() > 0.0

    def test_batch_load_constant(self):
        sim = assemble(hours=2.0, workload="Streamcluster")
        log = sim.run()
        assert np.allclose(log.series("load_fraction"), 1.0)


class TestSupplyFractionConflicts:
    def test_caller_battery_rejected(self):
        from repro.power.battery import BatteryBank

        with pytest.raises(ConfigurationError):
            assemble(supply_fractions=(0.6, 0.8), battery=BatteryBank())

    def test_caller_grid_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            assemble(supply_fractions=(0.6, 0.8), grid_budget_w=500.0)

    def test_battery_and_grid_still_accepted_alone(self):
        from repro.power.battery import BatteryBank

        sim = assemble(battery=BatteryBank(count=3), grid_budget_w=500.0)
        assert sim.controller.pdu.grid.budget_w == 500.0


class TestStepReturnValue:
    def test_step_returns_the_epoch_record(self):
        from repro.core.controller import EpochRecord

        sim = assemble(hours=0.5)
        record = sim.step()
        assert isinstance(record, EpochRecord)
        assert record is sim.log[0]
        assert record.time_s == sim.clock.start_s

    def test_run_completes_a_partially_stepped_simulation(self):
        stepped = assemble()
        first = stepped.step()
        log = stepped.run()
        assert len(log) == stepped.clock.n_epochs
        # One shared per-epoch code path: step-then-run equals run.
        reference = assemble().run()
        assert log[0] == first
        assert list(log) == list(reference)

    def test_run_on_finished_simulation_is_a_no_op(self):
        sim = assemble(hours=0.5)
        log = sim.run()
        assert list(sim.run()) == list(log)


def audited_directives(sim):
    """Swap in an auditor that records each epoch's directives."""
    seen = []
    sim.auditor = InvariantAuditor(checks=(lambda ctx: seen.append(ctx.directives) or [],))
    return seen


class TestEpochDirectives:
    def test_audit_sees_the_shift_gating_and_the_callers_share(self):
        sim = assemble(workload="Streamcluster")
        sim.shift = ShiftRuntime()
        sim.shift.submit(ShiftJob(
            job_id="j0", energy_wh=100.0, power_w=400.0,
            earliest_start_s=sim.clock_s, deadline_s=sim.clock_s + 8 * 900.0,
            value=1.0,
        ))
        seen = audited_directives(sim)
        sim.step(directives=EpochDirectives(grid_budget_w=321.0))
        (directives,) = seen
        assert directives.grid_budget_w == 321.0
        assert directives.group_caps_w is not None
        assert directives.demand_w is not None

    def test_constrained_mode_adds_the_cycled_rack_budget(self):
        sim = assemble(supply_fractions=(0.5, 0.9), hours=1.0)
        seen = audited_directives(sim)
        sim.run()
        envelope = sim.controller.rack.envelope_w
        assert [d.rack_budget_w for d in seen] == [0.5 * envelope, 0.9 * envelope] * 2

    def test_callers_rack_budget_wins(self):
        sim = assemble(supply_fractions=(0.5,), hours=0.5)
        record = sim.step(directives=EpochDirectives(rack_budget_w=300.0))
        assert record.budget_w == 300.0

    def test_given_load_fraction_is_used(self):
        sim = assemble(hours=0.5)
        assert sim.step(load_fraction=0.3).load_fraction == 0.3


class TestMixedRackLeadWorkload:
    def test_interactive_group_drives_the_offered_load(self):
        # Batch group first: the generator must still follow the
        # interactive group's diurnal request stream, not group 0's
        # saturating batch load.
        rack = Rack(
            [("E5-2620", 5), ("i5-4460", 5)], ["Streamcluster", "Memcached"]
        )
        clock = SimClock(start_s=SECONDS_PER_DAY, duration_s=8 * 3600.0)
        sim = Simulation.assemble(
            policy=make_policy("GreenHetero"), rack=rack, clock=clock, seed=11
        )
        assert sim.load_generator.workload.name == "Memcached"
        log = sim.run()
        assert log.series("load_fraction").std() > 0.0

    def test_all_batch_rack_falls_back_to_group_zero(self):
        rack = Rack([("E5-2620", 5), ("i5-4460", 5)], "Streamcluster")
        clock = SimClock(start_s=SECONDS_PER_DAY, duration_s=2 * 3600.0)
        sim = Simulation.assemble(
            policy=make_policy("GreenHetero"), rack=rack, clock=clock, seed=11
        )
        assert sim.load_generator.workload.name == "Streamcluster"
        assert np.allclose(sim.run().series("load_fraction"), 1.0)
