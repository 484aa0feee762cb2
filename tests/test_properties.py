"""Property-based tests on the core invariants (hypothesis).

Each property encodes a physical or algorithmic law the system must hold
for *all* inputs, not just the calibrated ones:

* the battery can never create energy, cross its DoD floor, or overfill;
* the PDU conserves energy and respects the grid budget;
* the PAR solver never over-allocates, and its solution is never worse
  than any uniform split of the same budget;
* response curves are monotone in power and bounded by the envelope;
* EPU is always in [0, 1];
* the Holt predictor is exact on affine series.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import PerfPowerFit
from repro.core.epu import effective_power_utilization
from repro.core import predictor
from repro.core.predictor import HoltPredictor
from repro.core.solver import GroupModel, PARSolver
from repro.power.battery import BatteryBank
from repro.power.grid import GridSource
from repro.power.pdu import PDU
from repro.power.solar import SolarFarm
from repro.power.sources import ChargeSource
from repro.servers.platform import get_platform, platform_names
from repro.servers.power_model import ResponseCurve
from repro.traces.nrel import Weather, synthesize_irradiance
from repro.workloads.models import response_for
from tests.core.test_epu import day_records

# ----------------------------------------------------------------------
# Battery
# ----------------------------------------------------------------------

flows = st.lists(
    st.tuples(
        st.sampled_from(["charge", "discharge"]),
        st.floats(min_value=0.0, max_value=5000.0),
        st.floats(min_value=60.0, max_value=3600.0),
    ),
    min_size=1,
    max_size=30,
)


@given(flows=flows, initial=st.floats(min_value=0.6, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_battery_soc_always_within_bounds(flows, initial):
    bank = BatteryBank(initial_soc_fraction=initial)
    for kind, power, duration in flows:
        if kind == "charge":
            bank.charge(power, duration)
        else:
            bank.discharge(power, duration)
        assert bank.floor_wh - 1e-6 <= bank.soc_wh <= bank.capacity_wh + 1e-6


@given(flows=flows)
@settings(max_examples=60, deadline=None)
def test_battery_never_creates_energy(flows):
    bank = BatteryBank(initial_soc_fraction=1.0)
    energy_in = 0.0
    energy_out = 0.0
    start = bank.soc_wh
    for kind, power, duration in flows:
        if kind == "charge":
            energy_in += bank.charge(power, duration) * duration / 3600.0
        else:
            energy_out += bank.discharge(power, duration) * duration / 3600.0
    # Output can never exceed initial usable energy plus charged-in
    # energy (even ignoring charging losses).
    assert energy_out <= (start - bank.floor_wh) + energy_in + 1e-6


@given(
    power=st.floats(min_value=0.0, max_value=10000.0),
    duration=st.floats(min_value=60.0, max_value=3600.0),
)
@settings(max_examples=50, deadline=None)
def test_battery_delivers_at_most_requested(power, duration):
    bank = BatteryBank()
    delivered = bank.discharge(power, duration)
    assert 0.0 <= delivered <= power + 1e-9
    accepted = bank.charge(power, duration)
    assert 0.0 <= accepted <= power + 1e-9


# ----------------------------------------------------------------------
# PDU
# ----------------------------------------------------------------------


@given(
    load=st.floats(min_value=0.0, max_value=3000.0),
    hour=st.floats(min_value=0.0, max_value=24.0),
    soc=st.floats(min_value=0.6, max_value=1.0),
    use_battery=st.booleans(),
    grid_charges=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_pdu_flow_invariants(load, hour, soc, use_battery, grid_charges):
    trace = synthesize_irradiance(days=1, weather=Weather.HIGH, seed=6)
    pdu = PDU(
        SolarFarm.sized_for(trace, 1500.0),
        BatteryBank(initial_soc_fraction=soc),
        GridSource(budget_w=1000.0),
    )
    flows = pdu.supply(load, hour * 3600.0, 900.0, use_battery, grid_charges)
    b = flows.breakdown
    # Never deliver more than asked.
    assert flows.delivered_w <= load + 1e-6
    # Grid never exceeds its budget (load + charging combined).
    assert b.grid_to_load_w + (b.charge_w if b.charge_source is ChargeSource.GRID else 0.0) <= 1000.0 + 1e-6
    # Battery respected the controller's disable switch.
    if not use_battery:
        assert b.battery_to_load_w == 0.0
    # Renewable energy conservation.
    renewable_used = b.renewable_to_load_w + (
        b.charge_w if b.charge_source.value == "renewable" else 0.0
    )
    assert renewable_used <= flows.renewable_available_w + 1e-6
    assert flows.curtailed_w >= -1e-9


# ----------------------------------------------------------------------
# Solver
# ----------------------------------------------------------------------


def fit_strategy():
    return st.builds(
        lambda t_max, lo, span: _concave_fit(t_max, lo, lo + span),
        t_max=st.floats(min_value=10.0, max_value=1000.0),
        lo=st.floats(min_value=20.0, max_value=150.0),
        span=st.floats(min_value=10.0, max_value=150.0),
    )


def _concave_fit(t_max, lo, hi):
    span = hi - lo
    l = -t_max / span**2
    m = 2 * t_max * hi / span**2
    n = t_max - t_max * hi**2 / span**2
    return PerfPowerFit(coefficients=(l, m, n), min_power_w=lo, max_power_w=hi)


groups_strategy = st.lists(
    st.builds(
        GroupModel,
        name=st.sampled_from(["A", "B", "C"]),
        count=st.integers(min_value=1, max_value=8),
        fit=fit_strategy(),
    ),
    min_size=1,
    max_size=3,
)


@given(groups=groups_strategy, budget=st.floats(min_value=0.0, max_value=4000.0))
@settings(max_examples=60, deadline=None)
def test_solver_solution_feasible(groups, budget):
    solver = PARSolver(safety_margin=0.0)
    sol = solver.solve(groups, budget)
    total = sum(g.count * p for g, p in zip(groups, sol.per_server_w))
    assert total <= budget + 1e-4
    assert sum(sol.ratios) <= 1.0 + 1e-6
    assert all(r >= -1e-12 for r in sol.ratios)


@given(groups=groups_strategy, budget=st.floats(min_value=10.0, max_value=4000.0))
@settings(max_examples=60, deadline=None)
def test_solver_never_worse_than_uniform(groups, budget):
    solver = PARSolver(safety_margin=0.0)
    sol = solver.solve(groups, budget)
    n_servers = sum(g.count for g in groups)
    share = budget / n_servers
    uniform_perf = sum(
        g.count * g.fit.predict(min(share, g.fit.max_power_w)) for g in groups
    )
    assert sol.expected_perf >= uniform_perf - 1e-6


@given(
    groups=groups_strategy,
    b1=st.floats(min_value=10.0, max_value=2000.0),
    extra=st.floats(min_value=0.0, max_value=2000.0),
)
@settings(max_examples=40, deadline=None)
def test_solver_monotone_in_budget(groups, b1, extra):
    solver = PARSolver(safety_margin=0.0)
    low = solver.solve(groups, b1).expected_perf
    high = solver.solve(groups, b1 + extra).expected_perf
    assert high >= low - 1e-6


# ----------------------------------------------------------------------
# Response curves
# ----------------------------------------------------------------------

CPU_PLATFORMS = [n for n in platform_names() if n != "TitanXp"]
CPU_WORKLOADS = ["SPECjbb", "Memcached", "Streamcluster", "Canneal", "Mcf"]


@given(
    platform=st.sampled_from(CPU_PLATFORMS),
    workload=st.sampled_from(CPU_WORKLOADS),
    b1=st.floats(min_value=0.0, max_value=300.0),
    extra=st.floats(min_value=0.0, max_value=200.0),
)
@settings(max_examples=80, deadline=None)
def test_response_monotone_and_bounded(platform, workload, b1, extra):
    curve = ResponseCurve(get_platform(platform), workload)
    lo = curve.perf_at_power(b1)
    hi = curve.perf_at_power(b1 + extra)
    assert hi.throughput >= lo.throughput - 1e-9
    assert lo.throughput <= curve.max_throughput + 1e-9
    assert lo.power_w <= curve.spec.peak_power_w + 1e-9


@given(
    platform=st.sampled_from(CPU_PLATFORMS),
    workload=st.sampled_from(CPU_WORKLOADS),
    offered=st.floats(min_value=0.0, max_value=1e6),
)
@settings(max_examples=60, deadline=None)
def test_serving_never_exceeds_offered_or_capacity(platform, workload, offered):
    curve = ResponseCurve(get_platform(platform), workload)
    top = curve.states.active_states[-1]
    sample = curve.serve(top, offered)
    assert sample.throughput <= offered + 1e-9
    assert sample.throughput <= curve.max_throughput + 1e-9
    assert 0.0 <= sample.utilization <= 1.0


# ----------------------------------------------------------------------
# EPU
# ----------------------------------------------------------------------


def test_epu_always_unit_interval():
    # Every epoch of day-long runs on two Table IV racks, all policies.
    for combination in ("Comb1", "Comb5"):
        for record in day_records(combination):
            assert 0.0 <= record.epu <= 1.0
            assert record.epu == effective_power_utilization(record.useful_power_w, record.budget_w)


# ----------------------------------------------------------------------
# Predictor
# ----------------------------------------------------------------------


@given(
    intercept=st.floats(min_value=0.0, max_value=1000.0),
    slope=st.floats(min_value=0.0, max_value=50.0),
    n=st.integers(min_value=3, max_value=40),
)
@settings(max_examples=50, deadline=None)
def test_holt_exact_on_affine_series(intercept, slope, n):
    # Any (alpha, beta) reproduces an affine series exactly, because the
    # initial trend seeds the true slope.
    p = HoltPredictor(alpha=0.5, beta=0.5, nonnegative=False)
    for i in range(n):
        p.observe(intercept + slope * i)
    assert p.predict() == pytest.approx(intercept + slope * n, rel=1e-6, abs=1e-6)


@given(data=st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=3, max_size=50))
@settings(max_examples=50, deadline=None)
def test_holt_sse_non_negative(data):
    assert HoltPredictor.sse(data, 0.4, 0.2) >= 0.0


@given(data=st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=5, max_size=30))
@settings(max_examples=25, deadline=None)
def test_holt_fit_never_worse_than_grid_seed(data):
    # A coarse 5-point seed grid, searched fresh rather than read from the memo.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(predictor, "GRID_STEPS", 5)
        mp.setattr(predictor, "_FIT_MEMO", {})
        fitted = HoltPredictor.fit(data)
    fitted_sse = HoltPredictor.sse(data, fitted.alpha, fitted.beta)
    grid = np.linspace(0.0, 1.0, 5)
    best_grid = min(HoltPredictor.sse(data, a, b) for a in grid for b in grid)
    assert fitted_sse <= best_grid + 1e-6
