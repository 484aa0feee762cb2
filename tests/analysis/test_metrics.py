"""Analysis metric helpers."""

import pytest

from repro.analysis.metrics import (
    geometric_mean,
    summarize_gains,
)
from repro.errors import ConfigurationError


class TestGeometricMean:
    def test_basic(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_single_value(self):
        assert geometric_mean([3.0]) == pytest.approx(3.0)

    def test_below_arithmetic_mean(self):
        values = [1.0, 2.0, 10.0]
        assert geometric_mean(values) < sum(values) / 3

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            geometric_mean([])

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigurationError):
            geometric_mean([1.0, 0.0])


class TestSummarize:
    def test_summary(self):
        gains = {"Memcached": 1.2, "Streamcluster": 2.2, "Mcf": 1.3}
        out = summarize_gains(gains)
        assert out["min"] == 1.2
        assert out["max"] == 2.2
        assert out["best_workload"] == "Streamcluster"
        assert out["worst_workload"] == "Memcached"
        assert 1.2 < out["mean"] < 2.2

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize_gains({})


def epoch_record(t=0.0, g2l=0.0):
    from repro.core.controller import EpochRecord
    from repro.core.sources import PowerCase
    from repro.power.sources import ChargeSource

    return EpochRecord(
        time_s=t, case=PowerCase.A, budget_w=1000.0, demand_w=1000.0,
        renewable_w=500.0, load_fraction=1.0, ratios=(0.6, 0.4),
        group_budgets_w=(600.0, 400.0), state_indices=(5, 5),
        throughput=100.0, epu=0.9, useful_power_w=900.0,
        renewable_to_load_w=1000.0 - g2l, battery_to_load_w=0.0,
        grid_to_load_w=g2l, charge_w=0.0, charge_source=ChargeSource.NONE,
        battery_soc_wh=12000.0, curtailed_w=0.0, trained_pairs=(),
        brownout=False,
    )


class TestShiftComparisonEdgeCases:
    """Zero-grid baselines must not divide by zero (all-renewable runs)."""

    def make_log(self, g2l):
        from repro.sim.telemetry import TelemetryLog

        log = TelemetryLog()
        log.append(epoch_record(t=0.0, g2l=g2l))
        log.append(epoch_record(t=900.0, g2l=g2l))
        return log

    def test_zero_baseline_grid_energy(self):
        from repro.analysis.metrics import shift_comparison

        out = shift_comparison(
            self.make_log(0.0), self.make_log(0.0), epoch_s=900.0,
            shift_jobs={}, no_shift_jobs={},
        )
        assert out["grid_kwh"]["no_shift"] == 0.0
        assert out["grid_kwh"]["saved_fraction"] == 0.0

    def test_zero_jobs_miss_rate(self):
        from repro.analysis.metrics import shift_comparison

        out = shift_comparison(
            self.make_log(100.0), self.make_log(200.0), epoch_s=900.0,
            shift_jobs={}, no_shift_jobs={},
        )
        assert out["miss_rate"] == {"shift": 0.0, "no_shift": 0.0}
        assert out["grid_kwh"]["saved_fraction"] == pytest.approx(0.5)

    def test_mismatched_timelines_rejected(self):
        from repro.analysis.metrics import shift_comparison
        from repro.sim.telemetry import TelemetryLog

        short = TelemetryLog()
        short.append(epoch_record(t=0.0))
        with pytest.raises(ConfigurationError, match="identical timelines"):
            shift_comparison(
                self.make_log(0.0), short, epoch_s=900.0,
                shift_jobs={}, no_shift_jobs={},
            )
