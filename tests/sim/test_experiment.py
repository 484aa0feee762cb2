"""Experiment harness: configs, sweeps, gains."""

import pytest

from repro.core.database import FitKind
from repro.errors import ConfigurationError
from repro.sim.experiment import (
    COMBINATIONS,
    STANDARD_TESTBED_ENVELOPE_W,
    ExperimentConfig,
)
from repro.sim.runner import run_experiment
from repro.traces.nrel import Weather


class TestConfig:
    def test_defaults_are_fig8(self):
        cfg = ExperimentConfig()
        assert cfg.platforms == (("E5-2620", 5), ("i5-4460", 5))
        assert cfg.workload == "SPECjbb"
        assert cfg.grid_budget_w == 1000.0
        assert cfg.weather is Weather.HIGH

    def test_fig8_factory_overrides(self):
        cfg = ExperimentConfig.fig8_default(days=2.0)
        assert cfg.days == 2.0

    def test_fig11_uses_low_trace(self):
        assert ExperimentConfig.fig11_low_trace().weather is Weather.LOW

    def test_bad_days_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(days=0.0)

    @pytest.mark.parametrize("days", [float("nan"), float("inf")])
    def test_non_finite_days_rejected_at_construction(self, days):
        with pytest.raises(ConfigurationError, match="finite"):
            ExperimentConfig(days=days)

    def test_empty_policies_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(policies=())

    def test_supply_fractions_with_grid_budget_rejected(self):
        # The default grid_budget_w counts too: the sweep disables the
        # grid, so a silently-ignored budget must be an error.
        with pytest.raises(ConfigurationError):
            ExperimentConfig(supply_fractions=(0.5, 0.8))
        with pytest.raises(ConfigurationError):
            ExperimentConfig(supply_fractions=(0.5,), grid_budget_w=800.0)

    @pytest.mark.parametrize(
        "fractions",
        [(float("nan"),), (0.5, float("inf")), (0.5, 0.0), ()],
        ids=["nan", "inf", "zero", "empty"],
    )
    def test_bad_supply_fractions_rejected(self, fractions):
        # A NaN fraction would run a whole lap on NaN budgets; inf would
        # read as uncapped.
        with pytest.raises(ConfigurationError, match="finite"):
            ExperimentConfig(supply_fractions=fractions, grid_budget_w=None)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
    def test_bad_budget_reference_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="finite"):
            ExperimentConfig(
                supply_fractions=(0.5,), grid_budget_w=None, budget_reference_w=bad
            )

    def test_budget_reference_without_supply_fractions_rejected(self):
        # The reference only scales the fractions; alone it would be
        # silently ignored for a whole lap.
        with pytest.raises(ConfigurationError, match="budget_reference_w"):
            ExperimentConfig(budget_reference_w=500.0)

    def test_supply_fractions_without_grid_budget_accepted(self):
        cfg = ExperimentConfig(supply_fractions=(0.5, 0.8), grid_budget_w=None)
        assert cfg.supply_fractions == (0.5, 0.8)

    def test_named_sweeps_disable_the_grid(self):
        assert ExperimentConfig.insufficient_supply("SPECjbb").grid_budget_w is None
        assert ExperimentConfig.combination_sweep("Comb1").grid_budget_w is None

    def test_build_rack(self):
        rack = ExperimentConfig().build_rack()
        assert rack.n_servers == 10

    def test_build_clock(self):
        clock = ExperimentConfig(days=0.5).build_clock()
        assert clock.n_epochs == 48


class TestTableIV:
    def test_six_combinations(self):
        assert set(COMBINATIONS) == {f"Comb{i}" for i in range(1, 7)}

    def test_comb5_has_three_types(self):
        assert len(COMBINATIONS["Comb5"]) == 3

    def test_comb6_is_gpu(self):
        assert ("TitanXp", 5) in COMBINATIONS["Comb6"]

    def test_five_servers_per_type(self):
        for combo in COMBINATIONS.values():
            assert all(count == 5 for _, count in combo)

    def test_for_combination(self):
        cfg = ExperimentConfig.for_combination("Comb3")
        assert cfg.platforms == COMBINATIONS["Comb3"]

    def test_unknown_combination_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.for_combination("Comb9")

    def test_standard_envelope(self):
        assert STANDARD_TESTBED_ENVELOPE_W == pytest.approx(1370.0)

    def test_combination_sweep_pins_reference_for_cpu(self):
        cfg = ExperimentConfig.combination_sweep("Comb2")
        assert cfg.budget_reference_w == STANDARD_TESTBED_ENVELOPE_W

    def test_combination_sweep_gpu_uses_own_envelope(self):
        cfg = ExperimentConfig.combination_sweep("Comb6", "Srad_v1")
        assert cfg.budget_reference_w is None


class TestRunExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(
            ExperimentConfig(days=0.25, policies=("Uniform", "GreenHetero"))
        )

    def test_one_log_per_policy(self, result):
        assert set(result.logs) == {"Uniform", "GreenHetero"}
        assert len(result.log("Uniform")) == 24

    def test_unknown_policy_log_rejected(self, result):
        with pytest.raises(ConfigurationError):
            result.log("Manual")

    def test_gain_of_baseline_is_one(self, result):
        assert result.gain("Uniform") == pytest.approx(1.0)

    def test_gain_metrics(self, result):
        assert result.gain("GreenHetero", "throughput") > 0
        assert result.gain("GreenHetero", "epu") > 0
        with pytest.raises(ConfigurationError):
            result.gain("GreenHetero", "latency")

    def test_gains_table(self, result):
        table = result.gains_table()
        assert set(table) == {"Uniform", "GreenHetero"}

    def test_summary_fields(self, result):
        s = result.summary("GreenHetero")
        assert s.policy == "GreenHetero"
        assert s.mean_throughput > 0
        assert 0 <= s.mean_epu <= 1
        assert s.grid_energy_wh >= 0

    def test_insufficient_mask_shared(self, result):
        mask = result.insufficient_mask()
        assert mask.shape == (24,)

    def test_fit_kind_plumbed(self):
        res = run_experiment(
            ExperimentConfig(
                days=0.1, policies=("GreenHetero",), fit_kind=FitKind.LINEAR
            )
        )
        assert len(res.log("GreenHetero")) > 0


class TestExtendedPolicySet:
    def test_all_seven_policies_coexist(self):
        cfg = ExperimentConfig(
            days=0.1,
            policies=(
                "Uniform", "Manual", "GreenHetero-p", "GreenHetero-a",
                "GreenHetero", "GreenHetero+", "OnOff",
            ),
        )
        result = run_experiment(cfg)
        assert set(result.logs) == set(cfg.policies)
        for name in cfg.policies:
            assert len(result.log(name)) == cfg.build_clock().n_epochs
