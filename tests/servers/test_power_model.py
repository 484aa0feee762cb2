"""Ground-truth power-performance response surfaces."""

import math

import pytest

from repro.errors import ConfigurationError, IncompatibleWorkloadError, PowerError
from repro.servers.platform import get_platform
from repro.servers.power_model import ResponseCurve, case_study_sweep


def min_active_power_w(curve):
    """Smallest allocation, to 0.01 W, that the SPC maps to a running state."""
    return next(c / 100 for c in range(100_000) if curve.state_for_budget(c / 100).active)


@pytest.fixture
def e5_jbb():
    return ResponseCurve(get_platform("E5-2620"), "SPECjbb")


@pytest.fixture
def i5_jbb():
    return ResponseCurve(get_platform("i5-4460"), "SPECjbb")


class TestEnvelope:
    def test_case_study_max_draws(self, e5_jbb, i5_jbb):
        # Section III-B: SPECjbb maxima of ~147 W (dual E5-2620) and
        # ~81 W (Core i5).
        assert e5_jbb.max_draw_w == pytest.approx(147.4, abs=1.0)
        assert i5_jbb.max_draw_w == pytest.approx(79.3, abs=2.0)

    def test_max_draw_below_platform_peak(self, e5_jbb):
        assert e5_jbb.max_draw_w <= e5_jbb.spec.peak_power_w

    def test_min_active_above_idle(self, e5_jbb):
        assert min_active_power_w(e5_jbb) > e5_jbb.idle_power_w

    def test_max_throughput_positive(self, e5_jbb):
        assert e5_jbb.max_throughput > 0

    def test_peak_efficiency(self, i5_jbb, e5_jbb):
        # The i5 leads SPECjbb energy efficiency, which is why
        # GreenHetero-p feeds it first (Section V-B.2).
        assert i5_jbb.peak_efficiency > e5_jbb.peak_efficiency


class TestShape:
    """The three response-boundary behaviours of Section IV-B.3."""

    def test_zero_below_idle(self, e5_jbb):
        sample = e5_jbb.perf_at_power(e5_jbb.idle_power_w - 1.0)
        assert sample.throughput == 0.0

    def test_zero_below_min_active(self, e5_jbb):
        sample = e5_jbb.perf_at_power(min_active_power_w(e5_jbb) - 0.5)
        assert sample.throughput == 0.0

    def test_plateau_beyond_max_draw(self, e5_jbb):
        at_max = e5_jbb.perf_at_power(e5_jbb.max_draw_w).throughput
        beyond = e5_jbb.perf_at_power(e5_jbb.max_draw_w * 2).throughput
        assert beyond == pytest.approx(at_max)

    def test_monotone_nondecreasing(self, e5_jbb):
        budgets = [float(b) for b in range(0, 250, 5)]
        perfs = [e5_jbb.perf_at_power(b).throughput for b in budgets]
        for lo, hi in zip(perfs, perfs[1:]):
            assert hi >= lo - 1e-9

    def test_draw_never_exceeds_budget(self, e5_jbb):
        for b in range(0, 250, 7):
            sample = e5_jbb.perf_at_power(float(b))
            assert sample.power_w <= b + 1e-9 or sample.throughput == 0.0

    def test_concave_in_operating_range(self, e5_jbb):
        # Marginal throughput per watt must not increase with power —
        # the property the paper's quadratic fit relies on.  Evaluate at
        # the state ladder points to avoid quantisation artefacts.
        points = [
            (s.power_cap_w, e5_jbb.sample_at_state(s).throughput)
            for s in e5_jbb.states.active_states
        ]
        marginals = [
            (p2[1] - p1[1]) / (p2[0] - p1[0]) for p1, p2 in zip(points, points[1:])
        ]
        for m1, m2 in zip(marginals, marginals[1:]):
            assert m2 <= m1 * 1.01  # small tolerance for the SLO knee


class TestServing:
    def test_serve_inf_saturates(self, e5_jbb):
        top = e5_jbb.states.active_states[-1]
        sample = e5_jbb.serve(top, math.inf)
        assert sample.utilization == pytest.approx(
            sample.throughput / e5_jbb.max_throughput, rel=0.05
        )

    def test_serve_zero_load_draws_near_idle(self, e5_jbb):
        top = e5_jbb.states.active_states[-1]
        sample = e5_jbb.serve(top, 0.0)
        assert sample.throughput == 0.0
        assert sample.power_w < e5_jbb.max_draw_w
        assert sample.power_w >= e5_jbb.idle_power_w

    def test_partial_load_draws_less(self, e5_jbb):
        top = e5_jbb.states.active_states[-1]
        full = e5_jbb.serve(top, math.inf)
        half = e5_jbb.serve(top, full.throughput / 2)
        assert half.power_w < full.power_w
        assert half.throughput == pytest.approx(full.throughput / 2, rel=0.01)

    def test_negative_offered_rejected(self, e5_jbb):
        with pytest.raises(PowerError):
            e5_jbb.serve(e5_jbb.states.active_states[-1], -1.0)

    def test_bad_load_fraction_rejected(self, e5_jbb):
        with pytest.raises(PowerError):
            e5_jbb.sample_at_state(e5_jbb.states.active_states[-1], 1.5)

    def test_off_state_sample(self, e5_jbb):
        sample = e5_jbb.sample_at_state(e5_jbb.states[0])
        assert sample.power_w == 0.0
        assert sample.throughput == 0.0
        assert sample.utilization == 0.0

    def test_deliverable_capacity_zero_when_off(self, e5_jbb):
        assert e5_jbb.deliverable_capacity(e5_jbb.states[0]) == 0.0

    def test_slo_reduces_deliverable_capacity(self):
        curve = ResponseCurve(get_platform("i5-4460"), "Memcached")
        top = curve.states.active_states[-1]
        raw = curve._capacity(top)
        assert curve.deliverable_capacity(top) < raw


class TestCompatibility:
    def test_cpu_workload_rejected_on_gpu(self):
        with pytest.raises(IncompatibleWorkloadError):
            ResponseCurve(get_platform("TitanXp"), "SPECjbb")

    def test_rodinia_runs_on_gpu(self):
        curve = ResponseCurve(get_platform("TitanXp"), "Srad_v1")
        assert curve.max_throughput > 0

    def test_gpu_beats_cpu_on_srad(self):
        gpu = ResponseCurve(get_platform("TitanXp"), "Srad_v1")
        cpu = ResponseCurve(get_platform("E5-2620"), "Srad_v1")
        assert gpu.max_throughput > 5 * cpu.max_throughput

    def test_gpu_similar_to_cpu_on_cfd(self):
        # Fig. 14: Cfd performs about the same on CPU and GPU.
        gpu = ResponseCurve(get_platform("TitanXp"), "Cfd")
        cpu = ResponseCurve(get_platform("E5-2620"), "Cfd")
        assert gpu.max_throughput < 2 * cpu.max_throughput


class TestStateSelection:
    """The SPC's workload-aware power-to-state mapping."""

    def test_budget_at_max_draw_selects_top(self, e5_jbb):
        state = e5_jbb.state_for_budget(e5_jbb.max_draw_w + 0.1)
        assert state == e5_jbb.states.active_states[-1]

    def test_workload_aware_vs_platform_caps(self):
        # For a light workload the top state fits a budget well below
        # the platform's peak power: Memcached's full-load draw on an
        # i5 is ~68 W, far under its 96 W platform peak.
        curve = ResponseCurve(get_platform("i5-4460"), "Memcached")
        state = curve.state_for_budget(70.0)
        assert state == curve.states.active_states[-1]

    def test_negative_budget_rejected(self, e5_jbb):
        with pytest.raises(PowerError):
            e5_jbb.state_for_budget(-0.1)


class TestCaseStudySweep:
    """Section III-B / Fig. 3: the fixed-budget PAR sweep."""

    def test_rows_span_the_par_range(self, e5_jbb, i5_jbb):
        rows = case_study_sweep(e5_jbb, i5_jbb, 220.0, step_pct=25)
        assert [pct for pct, _, _ in rows] == [0, 25, 50, 75, 100]
        assert all(0.0 <= epu <= 1.0 for _, epu, _ in rows)

    @pytest.mark.parametrize("budget", [0.0, -5.0, math.nan, math.inf, -math.inf])
    def test_bad_budget_rejected(self, e5_jbb, i5_jbb, budget):
        with pytest.raises(ConfigurationError, match="budget_w"):
            case_study_sweep(e5_jbb, i5_jbb, budget)

    @pytest.mark.parametrize("step", [0, -5, 101])
    def test_bad_step_rejected(self, e5_jbb, i5_jbb, step):
        with pytest.raises(ConfigurationError, match="step_pct"):
            case_study_sweep(e5_jbb, i5_jbb, 220.0, step)

    @pytest.mark.parametrize("step", [1, 100])
    def test_step_bounds_accepted(self, e5_jbb, i5_jbb, step):
        rows = case_study_sweep(e5_jbb, i5_jbb, 220.0, step)
        assert len(rows) == 100 // step + 1
