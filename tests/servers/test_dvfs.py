"""DVFS power-state ladders and the power-to-state mapping."""

import math
from dataclasses import replace

import pytest

from repro.errors import PowerError
from repro.servers.dvfs import (
    MIN_STATE_DYNAMIC_FRACTION,
    SLEEP_POWER_W,
    PowerState,
    PowerStateSet,
)
from repro.servers.platform import get_platform
from repro.servers.power_model import ResponseCurve


@pytest.fixture
def ladder():
    return PowerStateSet(get_platform("E5-2620"))


@pytest.fixture
def curve():
    return ResponseCurve(get_platform("E5-2620"), "Streamcluster")


def full_load_draw(curve, state):
    """Wall draw of ``state`` running flat out: what the SPC maps budgets by."""
    return curve.serve(state, math.inf).power_w if state.active else state.power_cap_w


class TestLadderStructure:
    def test_off_and_sleep_first(self, ladder):
        assert ladder[0].label == "off"
        assert ladder[0].power_cap_w == 0.0
        assert ladder[1].label == "sleep"
        assert ladder[1].power_cap_w == SLEEP_POWER_W

    def test_off_and_sleep_not_active(self, ladder):
        assert not ladder[0].active
        assert not ladder[1].active

    def test_active_count_matches_spec(self, ladder):
        assert len(ladder.active_states) == get_platform("E5-2620").dvfs_levels

    def test_states_ordered_by_power(self, ladder):
        caps = [s.power_cap_w for s in ladder]
        assert caps == sorted(caps)

    def test_states_ordered_by_frequency(self, ladder):
        freqs = [s.frequency_hz for s in ladder.active_states]
        assert freqs == sorted(freqs)
        assert len(set(freqs)) == len(freqs)

    def test_top_state_draws_peak(self, ladder):
        assert ladder.active_states[-1].power_cap_w == pytest.approx(178.0)

    def test_top_state_runs_base_frequency(self, ladder):
        assert ladder.active_states[-1].frequency_hz == pytest.approx(2.0e9)

    def test_bottom_state_runs_min_frequency(self, ladder):
        spec = get_platform("E5-2620")
        assert ladder.active_states[0].frequency_hz == pytest.approx(
            spec.min_frequency_hz
        )

    def test_bottom_active_state_above_idle(self, ladder):
        spec = get_platform("E5-2620")
        expected = spec.idle_power_w + MIN_STATE_DYNAMIC_FRACTION * spec.dynamic_range_w
        assert ladder.active_states[0].power_cap_w == pytest.approx(expected)

    def test_len_and_iter(self, ladder):
        assert len(list(ladder)) == 2 + len(ladder.active_states)

    def test_custom_level_count(self):
        ladder = PowerStateSet(replace(get_platform("i5-4460"), dvfs_levels=4))
        assert len(ladder.active_states) == 4


class TestLadderViews:
    """The ladder and ``active_states`` are built once, at construction."""

    @pytest.mark.parametrize("name", ["E5-2620", "E5-2603", "i5-4460"])
    def test_values_unchanged(self, name):
        spec = get_platform(name)
        ladder = PowerStateSet(spec)
        n = spec.dvfs_levels
        f_lo, f_hi = spec.min_frequency_hz, spec.base_frequency_hz
        expected = [
            PowerState(0, "off", 0.0, 0.0, False),
            PowerState(1, "sleep", 0.0, SLEEP_POWER_W, False),
        ]
        for k in range(n):
            freq = f_lo + k / (n - 1) * (f_hi - f_lo)
            cap = ladder._power_at_frequency(freq)
            expected.append(PowerState(2 + k, f"p{k}", freq, cap, True))
        assert tuple(ladder) == tuple(expected)
        assert ladder.active_states == tuple(expected[2:])
        assert list(ladder) == expected
        assert [ladder[i] for i in range(len(expected))] == expected

    def test_same_tuple_every_call(self, ladder):
        assert ladder.active_states is ladder.active_states
        assert isinstance(ladder.active_states, tuple)


class TestBudgetMapping:
    """Section IV-B.4: budget -> highest state whose full-load draw of the
    workload fits (:meth:`ResponseCurve.state_for_budget`, the SPC's map)."""

    def test_zero_budget_is_off(self, curve):
        assert curve.state_for_budget(0.0).label == "off"

    def test_tiny_budget_is_off(self, curve):
        assert curve.state_for_budget(SLEEP_POWER_W - 0.1).label == "off"

    def test_sleep_budget_is_sleep(self, curve):
        assert curve.state_for_budget(SLEEP_POWER_W).label == "sleep"

    def test_below_min_active_sleeps(self, curve):
        budget = full_load_draw(curve, curve.states.active_states[0]) - 1.0
        state = curve.state_for_budget(budget)
        assert not state.active

    def test_exact_min_active_runs(self, curve):
        lowest = curve.states.active_states[0]
        state = curve.state_for_budget(full_load_draw(curve, lowest))
        assert state.active
        assert state.index == lowest.index

    def test_huge_budget_selects_top(self, curve):
        assert curve.state_for_budget(1e6) == curve.states.active_states[-1]

    def test_mapping_monotone_in_budget(self, curve):
        prev = -1
        for budget in range(0, 200, 5):
            idx = curve.state_for_budget(float(budget)).index
            assert idx >= prev
            prev = idx

    def test_selected_state_never_exceeds_budget(self, curve):
        for budget in (0.0, 3.0, 50.0, 99.0, 120.0, 178.0, 500.0):
            state = curve.state_for_budget(budget)
            assert full_load_draw(curve, state) <= budget + 1e-9

    def test_negative_budget_rejected(self, curve):
        with pytest.raises(PowerError):
            curve.state_for_budget(-1.0)

    def test_frequency_for_budget(self, curve):
        assert curve.state_for_budget(1e6).frequency_hz == pytest.approx(2.0e9)
        assert curve.state_for_budget(0.0).frequency_hz == 0.0


class TestAcrossPlatforms:
    @pytest.mark.parametrize("name", ["E5-2650", "E5-2603", "i7-8700K", "i5-4460", "TitanXp"])
    def test_ladder_anchored_to_envelope(self, name):
        spec = get_platform(name)
        ladder = PowerStateSet(spec)
        assert ladder.active_states[-1].power_cap_w == pytest.approx(spec.peak_power_w)
        assert ladder.active_states[0].power_cap_w > spec.idle_power_w
