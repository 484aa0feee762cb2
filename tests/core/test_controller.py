"""The GreenHetero rack controller: one epoch end to end."""

import numpy as np
import pytest

from repro.core.controller import EpochDirectives, GreenHeteroController, N_SUBSTEPS
from repro.core.enforcer import ServerPowerController
from repro.core.monitor import Monitor
from repro.core.policies import make_policy
from repro.core.predictor import HoltPredictor
from repro.core.scheduler import AdaptiveScheduler
from repro.core.solver import PARSolver, _compositions
from repro.core.sources import PowerCase
from repro.errors import ConfigurationError
from repro.power.battery import BatteryBank
from repro.power.grid import GridSource
from repro.power.pdu import PDU
from repro.power.solar import SolarFarm
from repro.servers.power_model import ResponseCurve
from repro.servers.rack import Rack
from repro.traces.nrel import Weather, synthesize_irradiance
from tests.core.samples import sample_count

NOON = 12 * 3600.0
MIDNIGHT = 0.0


def make_controller(policy_name="GreenHetero", solar_peak=1900.0, grid_w=1000.0, seed=3):
    rack = Rack([("E5-2620", 5), ("i5-4460", 5)], "SPECjbb")
    trace = synthesize_irradiance(days=2, weather=Weather.HIGH, seed=seed)
    pdu = PDU(
        SolarFarm.sized_for(trace, solar_peak),
        BatteryBank(),
        GridSource(budget_w=grid_w),
    )
    return GreenHeteroController(
        rack=rack, pdu=pdu, policy=make_policy(policy_name), monitor=Monitor(seed=seed)
    )


def spc_throughput(ctl, group_budgets_w, load_fraction):
    """Noise-free rack throughput at the states the SPC enforces."""
    states = ServerPowerController.apply(ctl.rack, group_budgets_w)
    return ctl._rack_throughput(states, load_fraction)


class TestEpochExecution:
    def test_record_fields_consistent(self):
        ctl = make_controller()
        record = ctl.run_epoch(NOON)
        assert record.time_s == NOON
        assert record.case in (PowerCase.A, PowerCase.B, PowerCase.C)
        assert 0.0 <= record.epu <= 1.0
        assert record.throughput >= 0.0
        assert len(record.ratios) == 2
        assert sum(record.ratios) <= 1.0 + 1e-9
        assert record.group_budgets_w == pytest.approx(
            tuple(r * record.budget_w for r in record.ratios)
        )

    def test_first_epoch_runs_training(self):
        ctl = make_controller("GreenHetero")
        record = ctl.run_epoch(NOON)
        assert set(record.trained_pairs) == {
            ("E5-2620", "SPECjbb"),
            ("i5-4460", "SPECjbb"),
        }

    def test_training_only_once(self):
        ctl = make_controller("GreenHetero")
        ctl.run_epoch(NOON)
        record = ctl.run_epoch(NOON + 900.0)
        assert record.trained_pairs == ()

    def test_uniform_policy_never_trains(self):
        ctl = make_controller("Uniform")
        record = ctl.run_epoch(NOON)
        assert record.trained_pairs == ()
        assert len(ctl.scheduler.database) == 0

    def test_manual_policy_gets_oracle(self):
        ctl = make_controller("Manual")
        record = ctl.run_epoch(NOON)
        assert sum(record.ratios) == pytest.approx(1.0)

    def test_database_grows_under_adaptive_policy(self):
        ctl = make_controller("GreenHetero")
        ctl.run_epoch(NOON)
        key = ("E5-2620", "SPECjbb")
        after_training = sample_count(ctl.scheduler.database, key)
        ctl.run_epoch(NOON + 900.0)
        assert sample_count(ctl.scheduler.database, key) > after_training

    def test_database_frozen_under_static_policy(self):
        ctl = make_controller("GreenHetero-a")
        ctl.run_epoch(NOON)
        key = ("E5-2620", "SPECjbb")
        after_training = sample_count(ctl.scheduler.database, key)
        ctl.run_epoch(NOON + 900.0)
        assert sample_count(ctl.scheduler.database, key) == after_training

    def test_night_uses_battery(self):
        ctl = make_controller()
        record = ctl.run_epoch(MIDNIGHT)
        assert record.case is PowerCase.C
        assert record.battery_to_load_w > 0.0

    def test_noon_uses_renewable(self):
        ctl = make_controller()
        record = ctl.run_epoch(NOON)
        assert record.renewable_to_load_w > 0.0

    def test_bad_load_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            make_controller().run_epoch(NOON, load_fraction=1.5)

    def test_bad_epoch_length_rejected(self):
        rack = Rack([("i5-4460", 2)], "SPECjbb")
        trace = synthesize_irradiance(days=1, seed=1)
        pdu = PDU(SolarFarm.sized_for(trace, 300.0), BatteryBank(), GridSource())
        for epoch_s in (0.0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                GreenHeteroController(rack, pdu, make_policy("Uniform"), epoch_s=epoch_s)


class TestOnePolicy:
    """The scheduler holds the policy; the controller only reads it."""

    def test_policy_is_the_schedulers(self):
        ctl = make_controller()
        assert ctl.policy is ctl.scheduler.policy
        policy = make_policy("Uniform")
        scheduler = AdaptiveScheduler(policy)
        given = GreenHeteroController(ctl.rack, ctl.pdu, policy, scheduler=scheduler)
        assert given.scheduler is scheduler
        assert given.policy is policy

    def test_policy_other_than_the_schedulers_rejected(self):
        base = make_controller()
        scheduler = AdaptiveScheduler(make_policy("Uniform"))
        with pytest.raises(ConfigurationError, match="scheduler"):
            GreenHeteroController(
                base.rack, base.pdu, make_policy("Uniform"), scheduler=scheduler
            )

    def test_policy_is_read_only(self):
        ctl = make_controller()
        with pytest.raises(AttributeError):
            ctl.policy = make_policy("Uniform")


class TestEnergyAccounting:
    def test_epu_consistent_with_useful_power(self):
        ctl = make_controller()
        record = ctl.run_epoch(NOON)
        if record.budget_w > 0:
            assert record.epu == pytest.approx(
                min(record.useful_power_w / record.budget_w, 1.0)
            )

    def test_battery_soc_decreases_overnight(self):
        ctl = make_controller()
        before = ctl.pdu.battery.soc_wh
        record = ctl.run_epoch(MIDNIGHT)
        assert record.battery_soc_wh < before

    def test_budget_override_forces_budget(self):
        ctl = make_controller()
        record = ctl.run_epoch(NOON, 1.0, EpochDirectives(rack_budget_w=700.0))
        assert record.budget_w == 700.0
        assert record.case is PowerCase.B


class TestLoadBalancing:
    def test_offered_load_reroutes_to_survivors(self):
        # At a budget where uniform sleeps the Xeons, interactive load
        # must still be served by the i5s (low offered load).
        ctl = make_controller("Uniform")
        # 70 W/server (below the 0.2-load demand): E5s sleep.
        record = ctl.run_epoch(NOON, 0.2, EpochDirectives(rack_budget_w=700.0))
        assert record.throughput > 0.0

    def test_spc_throughput_follows_offered_load(self):
        ctl = make_controller("GreenHetero")
        full = spc_throughput(ctl, (5 * 150.0, 5 * 80.0), 1.0)
        half = spc_throughput(ctl, (5 * 150.0, 5 * 80.0), 0.4)
        assert 0.0 < half < full


class TestRackPhysicsOncePerOperatingPoint:
    """States, load and counts hold for a whole epoch, so the physics
    runs once per operating point; the meters still read every substep."""

    @staticmethod
    def count_serves(monkeypatch):
        calls = []
        original = ResponseCurve.serve

        def spy(curve, state, offered_ops):
            calls.append(curve.spec.name)
            return original(curve, state, offered_ops)

        monkeypatch.setattr(ResponseCurve, "serve", spy)
        return calls

    def test_one_serve_per_group_per_epoch(self, monkeypatch):
        ctl = make_controller("GreenHetero")
        ctl.run_epoch(NOON)  # the training run samples curves too
        observed = []
        original = ctl.monitor.observe_epoch

        def observe(samples, renewable_w):
            observed.append((len(samples), len(renewable_w)))
            return original(samples, renewable_w)

        ctl.monitor.observe_epoch = observe
        calls = self.count_serves(monkeypatch)
        execute = ctl._execute_substeps
        during = []

        def execute_substeps(*args, **kwargs):
            start = len(calls)
            record = execute(*args, **kwargs)
            during.extend(calls[start:])
            return record

        ctl._execute_substeps = execute_substeps
        ctl.run_epoch(NOON + 900.0)
        assert sorted(during) == ["E5-2620", "i5-4460"]
        # One meter call reads both groups and the PV at every substep.
        assert observed == [(2, N_SUBSTEPS)]

    def test_manual_oracle_meters_every_trial(self, monkeypatch):
        ctl = make_controller("Manual")
        budget_w = 900.0
        compositions = list(_compositions(2, 0.1))
        expected = [
            spc_throughput(ctl, tuple(r * budget_w for r in ratios), 1.0)
            for ratios in compositions
        ]
        metered = []
        ctl.monitor.observe_throughputs = lambda perfs: metered.append(perfs) or perfs
        calls = self.count_serves(monkeypatch)
        measure = ctl._make_oracle(budget_w, 1.0)
        assert measure(compositions) == expected
        # Every trial is metered, in trial order, in one batch.
        assert metered == [expected]
        # Distinct power-state pairs are fewer than the 11 compositions.
        assert len(calls) < 2 * len(compositions)


class TestManualTrialTable:
    """Manual's oracle maps each share to a power state once per epoch;
    every trial must still read and meter exactly as enforcing each
    composition through the SPC does."""

    RACKS = {
        "2-group": [("E5-2620", 5), ("i5-4460", 5)],
        "3-group": [("E5-2620", 5), ("E5-2603", 5), ("i5-4460", 5)],
    }

    @staticmethod
    def controller(groups):
        rack = Rack(groups, "SPECjbb")
        trace = synthesize_irradiance(days=2, weather=Weather.HIGH, seed=5)
        pdu = PDU(SolarFarm.sized_for(trace, 1900.0), BatteryBank(), GridSource(budget_w=1000.0))
        return GreenHeteroController(
            rack=rack, pdu=pdu, policy=make_policy("Manual"), monitor=Monitor(seed=5)
        )

    @staticmethod
    def reference_oracle(ctl, budget_w, load_fraction):
        def measure(ratios):
            perf = spc_throughput(ctl, tuple(r * budget_w for r in ratios), load_fraction)
            return ctl.monitor._jitter(perf, ctl.monitor.perf_noise)

        return measure

    @staticmethod
    def budgets(ctl):
        """0 W; every budget at which some share puts a group's servers
        exactly on a state's draw, with both float neighbours; and
        seeded random budgets up to the envelope."""
        out = [0.0]
        for g, group in enumerate(ctl.rack.groups):
            for draw in ctl.rack.curve(g)._state_draws[1:]:
                for steps in range(1, 11):
                    exact = draw * group.count / (steps * 0.1)
                    out += [np.nextafter(exact, 0.0), exact, np.nextafter(exact, np.inf)]
        rng = np.random.default_rng(2021)
        out += list(rng.uniform(0.0, ctl.rack.envelope_w, 40))
        return [float(b) for b in out]

    @pytest.mark.parametrize("rack", sorted(RACKS))
    @pytest.mark.parametrize("load_fraction", [1.0, 0.4])
    def test_table_oracle_matches_per_composition_mapping(self, rack, load_fraction):
        table_ctl = self.controller(self.RACKS[rack])
        reference_ctl = self.controller(self.RACKS[rack])
        k = len(self.RACKS[rack])
        compositions = list(_compositions(k, 0.1))
        for budget_w in self.budgets(table_ctl):
            table = table_ctl._make_oracle(budget_w, load_fraction)
            reference = self.reference_oracle(reference_ctl, budget_w, load_fraction)
            got = table(compositions)
            want = [reference(ratios) for ratios in compositions]
            assert got == want, budget_w
        # The same number of meter draws, in the same order.
        assert table_ctl.monitor.state_dict() == reference_ctl.monitor.state_dict()

    def test_manual_picks_match(self):
        table_ctl = self.controller(self.RACKS["3-group"])
        reference_ctl = self.controller(self.RACKS["3-group"])
        for budget_w in self.budgets(table_ctl)[::7]:
            reference = self.reference_oracle(reference_ctl, budget_w, 1.0)
            assert PARSolver.exhaustive(
                3, table_ctl._make_oracle(budget_w, 1.0)
            ) == PARSolver.exhaustive(3, lambda trials: [reference(r) for r in trials])

    @pytest.mark.parametrize("rack", sorted(RACKS))
    def test_day_matches_per_trial_metering(self, rack):
        """A day of Manual epochs: the batch oracle against the per-trial
        loop it replaced, each trial mapped, measured and metered on its
        own and the first strictly best kept."""
        batch_ctl = self.controller(self.RACKS[rack])
        loop_ctl = self.controller(self.RACKS[rack])
        k = len(self.RACKS[rack])

        def per_trial_oracle(budget_w, load_fraction):
            def measure(trials):
                values = []
                for ratios in trials:
                    states = [
                        loop_ctl.rack.curve(g).state_for_budget(
                            share * budget_w / group.count
                        )
                        for g, (share, group) in enumerate(zip(ratios, loop_ctl.rack.groups))
                    ]
                    perf = loop_ctl._rack_throughput(states, load_fraction)
                    values.append(loop_ctl.monitor._jitter(perf, loop_ctl.monitor.perf_noise))
                return values

            return measure

        loop_ctl._make_oracle = per_trial_oracle
        picks = set()
        for epoch in range(96):
            time_s = epoch * 900.0
            got, want = batch_ctl.run_epoch(time_s), loop_ctl.run_epoch(time_s)
            assert got.ratios == want.ratios, epoch
            picks.add(got.ratios)
        # The day's budgets move Manual between several compositions.
        assert len(picks) > 1 and all(len(ratios) == k for ratios in picks)
        assert batch_ctl.monitor.state_dict() == loop_ctl.monitor.state_dict()


class ConstantSource:
    """A renewable source with flat output (PDU duck-types power_at)."""

    def __init__(self, power_w: float) -> None:
        self.power_w = power_w

    def power_at(self, time_s: float) -> float:
        return self.power_w


class TestPredictorFeedback:
    """The renewable feedback is metered per substep, jittered once.

    Regression for a double-jitter bug: the controller used to feed the
    predictor ``observe_renewable(record.renewable_w)`` — re-metering an
    epoch *mean* that conceptually already passed through the sensor —
    which both mis-scaled the noise (a mean of 6 readings has sigma/sqrt(6))
    and consumed an extra RNG draw.
    """

    PV_W = 500.0

    def make_controller(self, seed=42):
        import numpy as np

        rack = Rack([("E5-2620", 5), ("i5-4460", 5)], "SPECjbb")
        pdu = PDU(ConstantSource(self.PV_W), BatteryBank(), GridSource(budget_w=1000.0))
        monitor = Monitor(
            power_noise=0.0, perf_noise=0.0, renewable_noise=0.01, seed=seed
        )
        ctl = GreenHeteroController(
            rack=rack, pdu=pdu, policy=make_policy("Uniform"), monitor=monitor
        )
        ctl.scheduler.renewable_predictor = HoltPredictor.fit([self.PV_W] * 96)
        ctl.scheduler.demand_predictor = HoltPredictor.fit([1000.0] * 96)
        return ctl, np.random.default_rng(seed)

    def expected_readings(self, rng, n):
        # With only renewable_noise non-zero, the Monitor's RNG advances
        # exactly once per observe_renewable call; replay it.
        return [
            max(0.0, self.PV_W * (1.0 + 0.01 * float(rng.standard_normal())))
            for _ in range(n)
        ]

    def test_feedback_is_mean_of_substep_meter_readings(self):
        ctl, rng = self.make_controller()
        fed = []
        original = ctl.scheduler.observe

        def spy(renewable_w, demand_w):
            fed.append(renewable_w)
            original(renewable_w, demand_w)

        ctl.scheduler.observe = spy
        record = ctl.run_epoch(NOON)

        # Draw 1 is the epoch-start reading; draws 2..7 are the six
        # substeps whose mean is the one-and-only predictor feedback.
        readings = self.expected_readings(rng, 1 + N_SUBSTEPS)
        expected = sum(readings[1:]) / N_SUBSTEPS
        assert fed == [pytest.approx(expected, rel=1e-12)]
        assert record.renewable_metered_w == pytest.approx(expected, rel=1e-12)
        # The noise-free channel is untouched by the metering.
        assert record.renewable_w == pytest.approx(self.PV_W)

    def test_no_second_jitter_of_the_epoch_mean(self):
        ctl, rng = self.make_controller()
        record = ctl.run_epoch(NOON)
        readings = self.expected_readings(rng, 1 + N_SUBSTEPS)
        # The buggy path would consume an 8th draw to re-jitter the mean;
        # the RNG must sit exactly at draw 7 afterwards.
        next_value = float(rng.standard_normal())
        actual_next = float(ctl.monitor._rng.standard_normal())
        assert actual_next == next_value
        assert record.renewable_metered_w == pytest.approx(
            sum(readings[1:]) / N_SUBSTEPS, rel=1e-12
        )
