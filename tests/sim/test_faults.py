"""Failure injection: the controller must degrade gracefully."""

import numpy as np
import pytest

from repro.core.cluster import ClusterCoordinator, GridSplit
from repro.core.controller import ChargeSource
from repro.core.policies import make_policy
from repro.errors import ConfigurationError
from repro.servers.rack import Rack
from repro.sim.clock import SimClock
from repro.sim.engine import Simulation
from repro.sim.experiment import ExperimentConfig
from repro.sim.faults import FaultInjector, FaultWindow, parse_fault_spec
from repro.sim.runner import run_experiment
from repro.units import SECONDS_PER_DAY

DAY = SECONDS_PER_DAY


def assemble(faults=None, hours=6.0, start_hour=0.0, **kwargs):
    rack = Rack([("E5-2620", 5), ("i5-4460", 5)], "SPECjbb")
    clock = SimClock(start_s=DAY + start_hour * 3600.0, duration_s=hours * 3600.0)
    sim = Simulation.assemble(
        policy=make_policy("GreenHetero"), rack=rack, clock=clock, seed=13, **kwargs
    )
    sim.faults = faults
    return sim


class TestFaultWindow:
    def test_half_open_interval(self):
        w = FaultWindow(10.0, 20.0, 0.5)
        assert w.active_at(10.0)
        assert w.active_at(19.999)
        assert not w.active_at(20.0)
        assert not w.active_at(9.999)

    def test_bad_window_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultWindow(20.0, 10.0, 0.5)
        with pytest.raises(ConfigurationError):
            FaultWindow(0.0, 10.0, 1.5)


class TestRenewableDropout:
    def test_noon_dropout_kills_solar(self):
        faults = FaultInjector().add_renewable_dropout(
            DAY + 12 * 3600.0, DAY + 14 * 3600.0, factor=0.0
        )
        sim = assemble(faults, hours=6.0, start_hour=10.0)
        log = sim.run()
        hours = (log.times_s - DAY) / 3600.0
        dropped = (hours >= 12.0) & (hours < 14.0)
        healthy = ~dropped
        assert log.series("renewable_w")[dropped].max() == 0.0
        assert log.series("renewable_w")[healthy].max() > 100.0

    def test_rack_survives_on_battery(self):
        faults = FaultInjector().add_renewable_dropout(
            DAY + 12 * 3600.0, DAY + 13 * 3600.0
        )
        sim = assemble(faults, hours=3.0, start_hour=11.0)
        log = sim.run()
        # Battery/grid carries the load: no zero-throughput epochs.
        assert log.throughputs.min() > 0.0

    def test_partial_dropout_scales(self):
        faults = FaultInjector().add_renewable_dropout(
            DAY + 12 * 3600.0, DAY + 13 * 3600.0, factor=0.5
        )
        healthy = assemble(None, hours=1.0, start_hour=12.0).run()
        faulty = assemble(faults, hours=1.0, start_hour=12.0).run()
        ratio = faulty.series("renewable_w")[0] / healthy.series("renewable_w")[0]
        assert ratio == pytest.approx(0.5, abs=0.05)


class TestBatteryOutage:
    def test_night_outage_routes_to_grid(self):
        faults = FaultInjector().add_battery_outage(DAY, DAY + 2 * 3600.0)
        sim = assemble(faults, hours=2.0, start_hour=0.0)
        log = sim.run()
        assert log.series("battery_to_load_w").max() == pytest.approx(0.0, abs=1e-6)
        assert log.series("grid_to_load_w").max() > 0.0

    def test_battery_restored_after_window(self):
        faults = FaultInjector().add_battery_outage(DAY, DAY + 3600.0)
        sim = assemble(faults, hours=3.0, start_hour=0.0)
        log = sim.run()
        hours = (log.times_s - DAY) / 3600.0
        after = hours >= 1.0
        assert log.series("battery_to_load_w")[after].max() > 0.0


class TestGridOutage:
    def test_blackout_with_drained_battery_browns_out(self):
        faults = FaultInjector().add_grid_outage(DAY, DAY + 2 * 3600.0)
        sim = assemble(faults, hours=2.0, start_hour=0.0)
        # Drain the battery so nothing can serve the night load.
        bank = sim.controller.pdu.battery
        bank.soc_wh = bank.floor_wh
        log = sim.run()
        assert log.series("grid_to_load_w").max() == pytest.approx(0.0, abs=1e-6)
        # Throughput collapses but the controller never crashes.
        assert log.throughputs.max() < 1e-6 or log.throughputs.min() >= 0.0

    def test_brownout_factor(self):
        faults = FaultInjector().add_grid_outage(DAY, DAY + 3600.0, factor=0.5)
        sim = assemble(faults, hours=1.0, start_hour=0.0)
        bank = sim.controller.pdu.battery
        bank.soc_wh = bank.floor_wh
        healthy_budget = sim.controller.pdu.grid.budget_w
        log = sim.run()
        assert log.series("grid_to_load_w").max() <= 0.5 * healthy_budget + 1e-6

    def test_grid_restored_after_window(self):
        faults = FaultInjector().add_grid_outage(DAY, DAY + 3600.0)
        sim = assemble(faults, hours=3.0, start_hour=0.0)
        provisioned = sim.controller.pdu.grid.budget_w
        sim.run()
        assert sim.controller.pdu.grid.budget_w == provisioned > 0.0

    def test_coordinated_rack_keeps_its_grid_fault(self):
        # A day-long blackout on one Comb1/SPECjbb rack of a two-rack
        # fleet sharing 2000 W: its cluster share must not lift the fault.
        def comb1(seed):
            return Simulation.assemble(
                policy=make_policy("GreenHetero"),
                rack=Rack([("E5-2620", 5), ("i5-4460", 5)], "SPECjbb"),
                seed=seed,
            )

        faulted, other = comb1(2021), comb1(2022)
        faulted.faults = FaultInjector().add_grid_outage(DAY, 2 * DAY, 0.0)
        provisioned = faulted.controller.pdu.grid.budget_w
        cluster = ClusterCoordinator([faulted, other], 2000.0, split=GridSplit.SHORTFALL)
        epochs = [cluster.run_epoch() for _ in range(96)]
        for mine, _ in epochs:
            assert mine.grid_to_load_w == 0.0
            assert mine.charge_source is not ChargeSource.GRID or mine.charge_w == 0.0
        assert max(theirs.grid_to_load_w for _, theirs in epochs) > 0.0
        # The provisioned budget is left alone, and the auditor checked
        # every epoch's draw against the faulted budget.
        assert faulted.controller.pdu.grid.budget_w == provisioned
        assert faulted.auditor.summary()["violations"] == 0


class TestComposition:
    def test_overlapping_faults_compose(self):
        faults = (
            FaultInjector()
            .add_renewable_dropout(DAY + 12 * 3600.0, DAY + 13 * 3600.0)
            .add_battery_outage(DAY + 12 * 3600.0, DAY + 13 * 3600.0)
        )
        sim = assemble(faults, hours=1.0, start_hour=12.0)
        log = sim.run()
        # Only the grid remains: load served within its budget.
        assert log.series("grid_to_load_w").max() > 0.0
        assert log.series("battery_to_load_w").max() == pytest.approx(0.0, abs=1e-6)

    def test_no_faults_is_identity(self):
        a = assemble(None, hours=2.0).run()
        b = assemble(FaultInjector(), hours=2.0).run()
        assert np.allclose(a.throughputs, b.throughputs)


class TestFaultSpecs:
    """The ``kind:factor:start_s:end_s`` CLI spec language."""

    def test_parse_valid_spec(self):
        kind, window = parse_fault_spec("renewable:0.25:100:200")
        assert kind == "renewable"
        assert window == FaultWindow(100.0, 200.0, 0.25)

    @pytest.mark.parametrize(
        "spec",
        [
            "renewable:0.0:100",           # wrong field count
            "solar:0.0:100:200",           # unknown kind
            "renewable:zero:100:200",      # non-numeric factor
            "renewable:0.0:200:100",       # empty window
            "renewable:1.5:100:200",       # factor out of range
        ],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            parse_fault_spec(spec)

    def test_from_specs_routes_each_kind(self):
        injector = FaultInjector.from_specs(
            [
                "renewable:0.0:0:10",
                "battery:0.5:0:10",
                "grid:0.0:0:10",
            ]
        )
        assert len(injector.renewable_windows) == 1
        assert len(injector.battery_windows) == 1
        assert len(injector.grid_windows) == 1


class TestExperimentWiring:
    """``ExperimentConfig.faults`` must reach every policy's simulation."""

    def test_bad_spec_rejected_at_config_time(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(faults=("bogus",))

    def test_injected_dropout_changes_the_run(self):
        # A quarter-day run straddling midday of simulated day 1, with a
        # two-hour dropout aligned to the epoch grid (metering is
        # sub-epoch, so a straddling window would only scale part of an
        # epoch's renewable).
        start_s = 1.4 * DAY
        dropout_start = start_s + 4 * 900.0
        dropout_end = dropout_start + 7200.0
        base = ExperimentConfig(
            days=0.25, start_day=1.4, policies=("GreenHetero",), seed=13
        )
        faulty = ExperimentConfig(
            days=0.25,
            start_day=1.4,
            policies=("GreenHetero",),
            seed=13,
            # Full-precision endpoints: the epoch grid lives at
            # 1.4 * DAY + k * 900 (not a round number), and a rounded
            # window would only partially cover its boundary epochs.
            faults=(f"renewable:0.0:{dropout_start!r}:{dropout_end!r}",),
        )
        clean_log = run_experiment(base).log("GreenHetero")
        faulty_log = run_experiment(faulty).log("GreenHetero")
        # During the dropout no renewable reaches the load...
        window = [
            r for r in faulty_log if dropout_start <= r.time_s < dropout_end
        ]
        assert window
        assert all(r.renewable_metered_w == 0.0 for r in window)
        # ...whereas the clean run was solar-powered then.
        clean_window = [
            r for r in clean_log if dropout_start <= r.time_s < dropout_end
        ]
        assert any(r.renewable_metered_w > 0.0 for r in clean_window)
