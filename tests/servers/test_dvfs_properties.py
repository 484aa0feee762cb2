"""Property-based tests on DVFS ladders over randomized platforms."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.servers.dvfs import PowerStateSet
from repro.servers.platform import DeviceClass, ServerSpec
from repro.servers.power_model import ResponseCurve


@st.composite
def specs(draw):
    idle = draw(st.floats(min_value=5.0, max_value=200.0))
    dynamic = draw(st.floats(min_value=10.0, max_value=400.0))
    base_ghz = draw(st.floats(min_value=1.0, max_value=4.0))
    return ServerSpec(
        name="prop-box",
        device_class=DeviceClass.CPU,
        base_frequency_hz=base_ghz * 1e9,
        sockets=1,
        cores=draw(st.integers(min_value=1, max_value=64)),
        peak_power_w=idle + dynamic,
        idle_power_w=idle,
        dvfs_levels=draw(st.integers(min_value=2, max_value=24)),
    )


@given(spec=specs())
@settings(max_examples=60, deadline=None)
def test_ladder_monotone_and_anchored(spec):
    ladder = PowerStateSet(spec)
    caps = [s.power_cap_w for s in ladder]
    assert caps == sorted(caps)
    active = ladder.active_states
    assert len(active) == spec.dvfs_levels
    assert active[-1].power_cap_w <= spec.peak_power_w + 1e-9
    assert abs(active[-1].power_cap_w - spec.peak_power_w) < 1e-6
    assert active[0].power_cap_w > spec.idle_power_w


@given(spec=specs(), budget=st.floats(min_value=0.0, max_value=800.0))
@settings(max_examples=100, deadline=None)
def test_budget_mapping_safe_and_maximal(spec, budget):
    curve = ResponseCurve(spec, "Streamcluster")

    def draw(s):
        return curve.serve(s, math.inf).power_w if s.active else s.power_cap_w

    state = curve.state_for_budget(budget)
    # Safe: the chosen state's full-load draw never exceeds the budget.
    assert draw(state) <= budget + 1e-9
    # Maximal: no higher state would also have fit.
    higher = [s for s in curve.states if s.index > state.index]
    for s in higher:
        assert draw(s) > budget - 1e-9


@given(spec=specs())
@settings(max_examples=40, deadline=None)
def test_frequencies_strictly_increase(spec):
    ladder = PowerStateSet(spec)
    freqs = [s.frequency_hz for s in ladder.active_states]
    assert all(b > a for a, b in zip(freqs, freqs[1:]))
    assert freqs[0] == spec.min_frequency_hz
    assert abs(freqs[-1] - spec.base_frequency_hz) < 1.0
