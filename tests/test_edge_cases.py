"""Edge-case and error-path coverage across modules."""

import numpy as np
import pytest

from repro.analysis.reporting import format_gains
from repro.core.controller import GreenHeteroController
from repro.core.monitor import Monitor
from repro.core.policies import make_policy
from repro.errors import ConfigurationError
from repro.power.battery import BatteryBank
from repro.power.grid import GridSource
from repro.power.pdu import PDU
from repro.power.solar import SolarFarm
from repro.servers.rack import Rack
from repro.sim.experiment import ExperimentConfig, ExperimentResult
from repro.sim.runner import run_experiment
from repro.traces.nrel import synthesize_irradiance


class TestExperimentResultEdges:
    def test_gain_with_zero_baseline_is_inf(self):
        import dataclasses

        from repro.sim.telemetry import TelemetryLog

        result = run_experiment(
            ExperimentConfig(days=0.1, policies=("Uniform", "GreenHetero"))
        )
        # Rebuild the baseline log with zeroed throughput: a positive
        # numerator over a zero baseline reports an infinite gain.
        zero = TelemetryLog()
        for record in result.log("Uniform"):
            zero.append(dataclasses.replace(record, throughput=0.0))
        result.logs["Uniform"] = zero
        assert result.gain("GreenHetero") == float("inf")

    def test_insufficient_mask_without_uniform(self):
        result = run_experiment(ExperimentConfig(days=0.1, policies=("GreenHetero",)))
        mask = result.insufficient_mask()
        assert mask.shape == (len(result.log("GreenHetero")),)

    def test_policy_summary_fields(self):
        result = run_experiment(ExperimentConfig(days=0.1, policies=("GreenHetero",)))
        summary = result.summary("GreenHetero")
        assert summary.policy == "GreenHetero"
        assert summary.battery_discharge_hours >= 0.0
        assert summary.mean_throughput_insufficient >= 0.0


class TestControllerEdges:
    def _controller(self, grid_w=0.0, soc=0.6):
        rack = Rack([("E5-2620", 2), ("i5-4460", 2)], "Streamcluster")
        trace = synthesize_irradiance(days=1, seed=3)
        pdu = PDU(
            SolarFarm.sized_for(trace, 1.0),  # effectively no solar
            BatteryBank(initial_soc_fraction=soc),
            GridSource(budget_w=grid_w),
        )
        return GreenHeteroController(
            rack, pdu, make_policy("GreenHetero"), monitor=Monitor(seed=3)
        )

    def test_everything_dead_yields_zero_throughput_not_crash(self):
        controller = self._controller(grid_w=0.0, soc=0.6)
        record = controller.run_epoch(0.0)
        assert record.throughput == 0.0
        assert record.epu == 0.0

    def test_brownout_flag_when_sources_underdeliver(self):
        # Grid mode plans a 50 W budget, but sleeping servers still draw
        # sleep power the sources cannot fully deliver once the grid is
        # cut below it mid-plan.
        controller = self._controller(grid_w=5.0, soc=0.6)
        record = controller.run_epoch(0.0)
        # Whatever happened, accounting stayed consistent.
        assert 0.0 <= record.epu <= 1.0
        assert record.throughput >= 0.0

    def test_epoch_with_zero_budget_keeps_predictors_updating(self):
        controller = self._controller(grid_w=0.0, soc=0.6)
        controller.run_epoch(0.0)
        controller.run_epoch(900.0)
        assert controller.scheduler.renewable_predictor.ready


class TestMonitorDemand:
    def test_observe_demand_jitters(self):
        readings = {Monitor(seed=s).observe_demand(1000.0) for s in range(5)}
        assert len(readings) > 1
        for value in readings:
            assert 900.0 < value < 1100.0


class TestReportingEdges:
    def test_format_gains_line(self):
        line = format_gains({"GreenHetero": 1.55})
        assert "1.55x" in line


class TestRackDemandEdges:
    def test_zero_load_demand_is_above_idle(self):
        rack = Rack([("E5-2620", 2), ("i5-4460", 2)], "SPECjbb")
        demand = rack.demand_at_load(0.0)
        # Powered-on servers at zero offered load still burn idle plus
        # the activity floor.
        assert demand >= rack.idle_power_w

    def test_gpu_rack_demand(self):
        rack = Rack([("TitanXp", 2)], "Srad_v1")
        assert rack.demand_at_load(1.0) > 2 * 149.0  # above GPU idle


class TestSolverExhaustiveEdges:
    def test_single_group_composition(self):
        from repro.core.solver import PARSolver

        assert PARSolver.compositions(1, 0.1) == [(1.0,)]

    def test_exhaustive_single_group(self):
        from repro.core.solver import PARSolver

        ratios, value = PARSolver.exhaustive(1, lambda trials: [42.0] * len(trials), 0.1)
        assert ratios == (1.0,)
        assert value == 42.0
