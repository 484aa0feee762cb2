"""End-to-end integration tests: the paper's headline behaviours.

These run small but complete experiments through the whole stack —
traces, power tree, predictor, database, solver, enforcer, telemetry —
and assert the qualitative results the paper reports.  The full-length
reproductions live in ``benchmarks/``.
"""

import numpy as np
import pytest

from repro.core.sources import PowerCase
from repro.servers.platform import get_platform
from repro.servers.power_model import ResponseCurve, case_study_sweep
from repro.sim.experiment import ExperimentConfig
from repro.sim.runner import run_experiment


@pytest.fixture(scope="module")
def fig8_result():
    """A 24-hour Fig. 8-style run with all five policies."""
    return run_experiment(ExperimentConfig(days=1.0))


@pytest.fixture(scope="module")
def sweep_results():
    """Constrained-supply sweeps for three calibration-critical workloads."""
    out = {}
    for wl in ("Streamcluster", "Memcached", "SPECjbb"):
        out[wl] = run_experiment(
            ExperimentConfig.insufficient_supply(wl, policies=("Uniform", "GreenHetero"))
        )
    return out


class TestFig8Runtime:
    def test_greenhetero_beats_uniform_on_insufficient_epochs(self, fig8_result):
        gain = fig8_result.gain("GreenHetero")
        assert 1.15 <= gain <= 1.8  # paper: up to ~1.5x

    def test_every_policy_at_least_uniform(self, fig8_result):
        for name in fig8_result.logs:
            assert fig8_result.gain(name) >= 0.97

    def test_mean_par_near_paper(self, fig8_result):
        # Paper: the average PAR over the 24-hour run is about 58%.
        par = fig8_result.summary("GreenHetero").mean_par
        assert 0.50 <= par <= 0.70

    def test_all_three_cases_occur(self, fig8_result):
        cases = set(fig8_result.log("GreenHetero").cases)
        assert cases == {PowerCase.A, PowerCase.B, PowerCase.C}

    def test_battery_honors_dod(self, fig8_result):
        soc = fig8_result.log("GreenHetero").battery_soc_wh
        assert soc.min() >= 0.6 * 12000.0 - 1e-6

    def test_battery_discharges_for_hours_then_grid(self, fig8_result):
        log = fig8_result.log("GreenHetero")
        hours = log.discharge_hours(900.0)
        assert 2.0 <= hours <= 10.0  # paper: ~4.2 h in Case C
        assert log.grid_energy_wh(900.0) > 0.0

    def test_sufficient_epochs_show_no_gain(self, fig8_result):
        # Paper: "adaptive power allocation has very little impact when
        # the power supply is abundant".
        mask = ~fig8_result.insufficient_mask()
        if mask.sum() >= 4:
            u = fig8_result.log("Uniform").mean_throughput(mask)
            g = fig8_result.log("GreenHetero").mean_throughput(mask)
            assert g / u < 1.35

    def test_epu_gain_positive(self, fig8_result):
        assert fig8_result.gain("GreenHetero", "epu") > 1.1


class TestPolicyOrdering:
    def test_solver_policies_beat_uniform(self, fig8_result):
        for name in ("Manual", "GreenHetero-a", "GreenHetero"):
            assert fig8_result.gain(name) > 1.1

    def test_adaptive_at_least_static(self, sweep_results):
        # GreenHetero >= GreenHetero-a on average (paper Section V-B.2),
        # checked on the sweep where the database quality matters.
        res = run_experiment(
            ExperimentConfig.insufficient_supply(
                "SPECjbb", policies=("Uniform", "GreenHetero-a", "GreenHetero")
            )
        )
        assert res.gain("GreenHetero") >= res.gain("GreenHetero-a") * 0.97


class TestWorkloadSpread:
    def test_streamcluster_gains_most(self, sweep_results):
        sc = sweep_results["Streamcluster"].gain("GreenHetero")
        mc = sweep_results["Memcached"].gain("GreenHetero")
        assert sc > 1.8   # paper: ~2.2x
        assert mc < 1.35  # paper: ~1.2x
        assert sc > mc

    def test_specjbb_in_paper_band(self, sweep_results):
        assert 1.2 <= sweep_results["SPECjbb"].gain("GreenHetero") <= 1.8


class TestHeterogeneityImpact:
    def test_homogeneous_like_combo_shows_no_gain(self):
        res = run_experiment(
            ExperimentConfig.combination_sweep(
                "Comb4", policies=("Uniform", "GreenHetero")
            )
        )
        # Paper: Comb2/Comb4 show only ~3% improvement.
        assert res.gain("GreenHetero") == pytest.approx(1.0, abs=0.12)

    def test_heterogeneous_combo_shows_gain(self):
        res = run_experiment(
            ExperimentConfig.combination_sweep(
                "Comb1", policies=("Uniform", "GreenHetero")
            )
        )
        assert res.gain("GreenHetero") > 1.25

    def test_three_type_combo_solves(self):
        res = run_experiment(
            ExperimentConfig.combination_sweep(
                "Comb5", days=0.25, policies=("Uniform", "GreenHetero")
            )
        )
        log = res.log("GreenHetero")
        assert all(len(r.ratios) == 3 for r in log)
        assert res.gain("GreenHetero") > 1.2


class TestGPU:
    def test_srad_gains_most_cfd_least(self):
        gains = {}
        for wl in ("Srad_v1", "Cfd"):
            res = run_experiment(
                ExperimentConfig.combination_sweep(
                    "Comb6", wl, days=0.25, policies=("Uniform", "GreenHetero")
                )
            )
            gains[wl] = res.gain("GreenHetero")
        assert gains["Srad_v1"] > 1.8   # paper: up to 4.6x, avg 2.5x
        assert gains["Cfd"] < gains["Srad_v1"]


class TestCaseStudy:
    """Section III-B's two-server 220 W case study (Fig. 3)."""

    @pytest.fixture(scope="class")
    def curves(self):
        return (
            ResponseCurve(get_platform("E5-2620"), "SPECjbb"),
            ResponseCurve(get_platform("i5-4460"), "SPECjbb"),
        )

    def _epu_perf(self, curves, par, budget=220.0):
        a, b = curves
        sa = a.perf_at_power(par * budget)
        sb = b.perf_at_power((1 - par) * budget)
        useful = sum(
            s.power_w for s in (sa, sb) if s.throughput > 0
        )
        return useful / budget, sa.throughput + sb.throughput

    def test_optimum_par_near_65(self, curves):
        best_par = max(
            (p / 100 for p in range(0, 101, 5)),
            key=lambda p: self._epu_perf(curves, p)[1],
        )
        assert 0.60 <= best_par <= 0.70

    def test_uniform_epu_near_86(self, curves):
        epu, _ = self._epu_perf(curves, 0.5)
        assert epu == pytest.approx(0.86, abs=0.04)

    def test_all_to_small_server_epu_near_37(self, curves):
        epu, _ = self._epu_perf(curves, 0.0)
        assert epu == pytest.approx(0.37, abs=0.04)

    def test_optimum_beats_uniform(self, curves):
        _, best = self._epu_perf(curves, 0.65)
        _, uniform = self._epu_perf(curves, 0.5)
        assert best > uniform

    def test_shared_sweep_equals_the_formula(self, curves):
        rows = case_study_sweep(*curves, 220.0)
        assert [pct for pct, _, _ in rows] == list(range(0, 101, 5))
        for pct, epu, perf in rows:
            assert (epu, perf) == self._epu_perf(curves, pct / 100)


class TestDeterminism:
    def test_identical_seeds_identical_results(self):
        cfg = ExperimentConfig(days=0.25, policies=("GreenHetero",))
        a = run_experiment(cfg).log("GreenHetero")
        b = run_experiment(cfg).log("GreenHetero")
        assert np.allclose(a.throughputs, b.throughputs)
        assert np.allclose(a.epus, b.epus)

    def test_different_seed_different_results(self):
        a = run_experiment(
            ExperimentConfig(days=0.25, policies=("GreenHetero",), seed=1)
        ).log("GreenHetero")
        b = run_experiment(
            ExperimentConfig(days=0.25, policies=("GreenHetero",), seed=2)
        ).log("GreenHetero")
        assert not np.allclose(a.throughputs, b.throughputs)
