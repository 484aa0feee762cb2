"""Carbon and cost accounting."""

import pytest

from repro.analysis.sustainability import (
    SustainabilityReport,
    sustainability_report,
)
from repro.errors import ConfigurationError
from repro.sim.experiment import ExperimentConfig
from repro.sim.runner import run_experiment


@pytest.fixture(scope="module")
def logs():
    result = run_experiment(
        ExperimentConfig(days=0.5, policies=("Uniform", "GreenHetero"))
    )
    return result


class TestReport:
    def test_fields_consistent(self, logs):
        report = sustainability_report(logs.log("GreenHetero"), 900.0)
        assert report.delivered_kwh == pytest.approx(
            report.renewable_kwh + report.battery_kwh + report.grid_kwh
        )
        assert 0.0 <= report.renewable_fraction <= 1.0
        assert 0.0 <= report.curtailment_fraction <= 1.0
        assert report.co2_kg >= 0.0
        assert report.grid_cost_usd >= 0.0

    def test_green_rack_is_mostly_renewable(self, logs):
        report = sustainability_report(logs.log("GreenHetero"), 900.0)
        assert report.renewable_fraction > 0.3

    def test_grid_energy_matches_telemetry(self, logs):
        log = logs.log("GreenHetero")
        report = sustainability_report(log, 900.0)
        assert report.grid_kwh * 1000.0 == pytest.approx(
            log.grid_energy_wh(900.0), rel=1e-6
        )

    def test_zero_carbon_intensities(self, logs):
        report = sustainability_report(
            logs.log("GreenHetero"), 900.0,
            grid_co2_kg_per_kwh=0.0, solar_co2_kg_per_kwh=0.0,
        )
        assert report.co2_kg == 0.0

    def test_carbon_scales_with_grid_intensity(self, logs):
        log = logs.log("GreenHetero")
        low = sustainability_report(log, 900.0, grid_co2_kg_per_kwh=0.1)
        high = sustainability_report(log, 900.0, grid_co2_kg_per_kwh=0.9)
        if low.grid_kwh > 0:
            assert high.co2_kg > low.co2_kg

    def test_bad_epoch_rejected(self, logs):
        with pytest.raises(ConfigurationError):
            sustainability_report(logs.log("GreenHetero"), 0.0)

    def test_bad_intensity_rejected(self, logs):
        with pytest.raises(ConfigurationError):
            sustainability_report(logs.log("GreenHetero"), 900.0, grid_co2_kg_per_kwh=-1.0)


class TestEmptyish:
    def test_report_dataclass_properties(self):
        report = SustainabilityReport(
            renewable_kwh=0.0, battery_kwh=0.0, grid_kwh=0.0,
            curtailed_kwh=0.0, peak_grid_w=0.0, co2_kg=0.0, grid_cost_usd=0.0,
        )
        assert report.delivered_kwh == 0.0
        assert report.renewable_fraction == 0.0
        assert report.curtailment_fraction == 0.0
