"""Effective Power Utilization (Eq. 1) on the paths that compute it.

The controller's epoch and the Fig. 3 case study both call
:func:`effective_power_utilization`; these tests check the values they
produce, on day-long runs of two Table IV racks and on the Section III-B
sweep, against the equation.
"""

import functools

import pytest

from repro.core.epu import effective_power_utilization
from repro.core.policies import POLICY_NAMES
from repro.servers.platform import get_platform
from repro.servers.power_model import ResponseCurve, case_study_sweep
from repro.sim.experiment import ExperimentConfig
from repro.sim.runner import run_experiment

#: The Section III-B testbed: one E5-2620 and one i5-4460 on 220 W.
CASE_BUDGET_W = 220.0


@functools.lru_cache(maxsize=None)
def day_records(combination: str) -> tuple:
    """Every epoch record of a day-long run of each Table III policy."""
    cfg = ExperimentConfig.for_combination(combination, days=1.0, policies=POLICY_NAMES)
    result = run_experiment(cfg)
    return tuple(record for log in result.logs.values() for record in log)


@pytest.fixture(scope="module")
def case_study():
    a = ResponseCurve(get_platform("E5-2620"), "SPECjbb")
    b = ResponseCurve(get_platform("i5-4460"), "SPECjbb")
    rows = {pct: (epu, perf) for pct, epu, perf in case_study_sweep(a, b, CASE_BUDGET_W)}
    return a, b, rows


class TestOnTheProgramPath:
    @pytest.mark.parametrize("combination", ["Comb1", "Comb5"])
    def test_every_epoch_is_eq1(self, combination):
        records = day_records(combination)
        assert len(records) == 96 * len(POLICY_NAMES)
        for record in records:
            expected = effective_power_utilization(record.useful_power_w, record.budget_w)
            assert record.epu == expected
            if record.budget_w <= 0:
                assert record.epu == 0.0

    def test_case_study_rows_are_eq1(self, case_study):
        a, b, rows = case_study
        for pct, (epu, _) in rows.items():
            samples = (a.perf_at_power(pct / 100 * CASE_BUDGET_W),
                       b.perf_at_power((1 - pct / 100) * CASE_BUDGET_W))
            useful = sum(s.power_w for s in samples if s.throughput > 0)
            assert epu == effective_power_utilization(useful, CASE_BUDGET_W)


class TestUsefulPower:
    def test_counts_only_productive_servers(self, case_study):
        # PAR 20%: 44 W is below the E5's lowest running state, so it
        # sleeps; its sleep draw is not useful power, only the i5's is.
        a, b, rows = case_study
        asleep = a.perf_at_power(0.2 * CASE_BUDGET_W)
        assert asleep.throughput == 0.0 and asleep.power_w > 0.0
        running = b.perf_at_power(0.8 * CASE_BUDGET_W)
        assert rows[20][0] * CASE_BUDGET_W == pytest.approx(running.power_w)

    def test_all_productive(self, case_study):
        a, b, rows = case_study
        both = (a.perf_at_power(0.65 * CASE_BUDGET_W), b.perf_at_power(0.35 * CASE_BUDGET_W))
        assert all(s.throughput > 0 for s in both)
        assert rows[65][0] * CASE_BUDGET_W == pytest.approx(sum(s.power_w for s in both))


class TestEPU:
    def test_scalar_form(self):
        assert effective_power_utilization(86.0, 100.0) == pytest.approx(0.86)

    def test_perfect_utilization(self):
        assert effective_power_utilization(220.0, 220.0) == 1.0

    def test_zero_supply_is_zero(self):
        assert effective_power_utilization(0.0, 0.0) == 0.0

    def test_bounded_at_one(self):
        # Floating-point slop must not push EPU above 1.
        assert effective_power_utilization(100.0 + 1e-10, 100.0) == 1.0

    def test_case_study_uniform_epu(self, case_study):
        # Section III-B: uniform allocation of a 220 W budget yields
        # ~86% EPU (A draws ~110 W, B capped at ~81 W).
        assert case_study[2][50][0] == pytest.approx(0.86, abs=0.02)

    def test_case_study_all_to_small_server(self, case_study):
        # PAR = 0: everything to the i5, which uses only ~81 W -> ~37%.
        assert case_study[2][0][0] == pytest.approx(0.37, abs=0.02)
