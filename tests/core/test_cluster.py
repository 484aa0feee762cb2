"""Cluster coordinator: shared-grid division across racks."""

import math

import pytest

from repro.core.cluster import ClusterCoordinator, GridSplit
from repro.core.controller import GreenHeteroController
from repro.core.monitor import Monitor
from repro.core.policies import make_policy
from repro.core.predictor import HoltPredictor
from repro.errors import ConfigurationError, PowerError
from repro.power.battery import BatteryBank
from repro.power.grid import GridSource
from repro.power.pdu import PDU
from repro.power.solar import SolarFarm
from repro.servers.rack import Rack
from repro.sim.clock import SimClock
from repro.sim.engine import Simulation
from repro.traces.nrel import Weather, synthesize_irradiance
from repro.units import SECONDS_PER_DAY
from repro.workloads.generator import LoadGenerator

MIDNIGHT = 0.0
NOON = 12 * 3600.0


def make_controller(weather=Weather.HIGH, seed=1, solar_peak=1900.0, soc=1.0):
    rack = Rack([("E5-2620", 3), ("i5-4460", 3)], "Streamcluster")
    trace = synthesize_irradiance(days=1, weather=weather, seed=seed)
    pdu = PDU(
        SolarFarm.sized_for(trace, solar_peak),
        BatteryBank(count=2, initial_soc_fraction=soc),
        GridSource(budget_w=0.0),
    )
    return GreenHeteroController(
        rack=rack, pdu=pdu, policy=make_policy("GreenHetero"), monitor=Monitor(seed=seed)
    )


def make_sim(start_s=NOON, **kwargs):
    """One rack whose first epoch starts at ``start_s``, at full load."""
    controller = make_controller(**kwargs)
    return Simulation(
        controller,
        SimClock(start_s=start_s),
        LoadGenerator(controller.rack.groups[0].workload),
    )


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterCoordinator([], 1000.0)

    def test_negative_budget_rejected(self):
        with pytest.raises(PowerError):
            ClusterCoordinator([make_sim()], -1.0)

    @pytest.mark.parametrize("budget", [float("nan"), float("inf")])
    def test_non_finite_budget_rejected(self, budget):
        with pytest.raises(PowerError, match="finite"):
            ClusterCoordinator([make_sim()], budget)


class TestEqualSplit:
    def test_divides_evenly(self):
        cluster = ClusterCoordinator(
            [make_sim(seed=1), make_sim(seed=2)],
            1000.0,
            split=GridSplit.EQUAL,
        )
        assert cluster.grid_shares_w(MIDNIGHT) == [500.0, 500.0]


class TestShortfallSplit:
    def test_sunny_rack_cedes_grid(self):
        # Rack A has huge solar at noon; rack B has none (tiny farm).
        sunny = make_sim(seed=1, solar_peak=5000.0)
        dark = make_sim(seed=2, solar_peak=1.0)
        cluster = ClusterCoordinator([sunny, dark], 1000.0, split=GridSplit.SHORTFALL)
        # Drain both batteries so shortfall is driven by renewables.
        for sim in (sunny, dark):
            battery = sim.controller.pdu.battery
            battery.soc_wh = battery.floor_wh
        shares = cluster.grid_shares_w(NOON)
        assert shares[1] > shares[0]
        assert sum(shares) == pytest.approx(1000.0)

    def test_no_shortfall_falls_back_to_equal(self):
        a = make_sim(seed=1, solar_peak=50000.0)
        b = make_sim(seed=2, solar_peak=50000.0)
        cluster = ClusterCoordinator([a, b], 1000.0, split=GridSplit.SHORTFALL)
        assert cluster.grid_shares_w(NOON) == [500.0, 500.0]


def comb1_sim(seed, days=1.0):
    """A Comb1/SPECjbb rack on the standard methodology, from day 1."""
    return Simulation.assemble(
        policy=make_policy("GreenHetero"),
        rack=Rack([("E5-2620", 5), ("i5-4460", 5)], "SPECjbb"),
        clock=SimClock(duration_s=days * SECONDS_PER_DAY),
        seed=seed,
    )


def assert_within_budget(shares, budget):
    assert all(share >= 0.0 for share in shares)
    assert math.fsum(shares) <= budget
    assert sum(shares) <= budget


class TestExactShares:
    """A lone rack gets the budget; shares never sum past it."""

    @pytest.mark.parametrize("split", list(GridSplit))
    def test_lone_rack_gets_the_budget(self, split):
        sim = make_sim(seed=1)
        budget = 850.2750000000001
        cluster = ClusterCoordinator([sim], budget, split=split)
        for time_s in (MIDNIGHT, NOON):
            assert cluster.grid_shares_w(time_s) == [budget]

    def test_one_rack_fleet_equals_the_rack_alone(self):
        alone = comb1_sim(2021)
        log = alone.run()
        fleet_rack = comb1_sim(2021)
        cluster = ClusterCoordinator([fleet_rack], fleet_rack.controller.pdu.grid.budget_w)
        records = [cluster.run_epoch()[0] for _ in range(len(log))]
        assert len(records) == 96
        assert records == list(log)

    @pytest.mark.parametrize("n, budget", [(3, 1777.7), (7, 1000.0), (7, 2000.0)])
    def test_equal_shares_fit_the_budget(self, n, budget):
        # ``[budget / n] * n`` sums past the budget for each of these.
        assert sum([budget / n] * n) > budget
        cluster = ClusterCoordinator(
            [make_sim(seed=i) for i in range(n)], budget, split=GridSplit.EQUAL
        )
        shares = cluster.grid_shares_w(MIDNIGHT)
        assert_within_budget(shares, budget)
        assert shares == [shares[0]] * n
        assert shares[0] == pytest.approx(budget / n, rel=1e-15)

    def test_shortfall_shares_fit_the_budget_every_epoch(self):
        budget = 1777.7
        sims = [comb1_sim(2021 + i, days=2.0) for i in range(3)]
        cluster = ClusterCoordinator(sims, budget, split=GridSplit.SHORTFALL)
        proportional = 0
        for _ in range(192):
            shares = cluster.grid_shares_w(sims[0].clock_s)
            assert_within_budget(shares, budget)
            proportional += len(set(shares)) > 1
            cluster.run_epoch()
        assert proportional > 0


class TestEpochExecution:
    def test_runs_all_racks(self):
        cluster = ClusterCoordinator([make_sim(seed=1), make_sim(seed=2)], 1500.0)
        records = cluster.run_epoch()
        assert len(records) == 2
        assert cluster.aggregate_throughput(records) > 0.0

    def test_provisioned_grid_budget_restored_after_epoch(self):
        # The per-epoch share must not clobber each rack's provisioned
        # budget: after the epoch the racks read exactly as provisioned.
        a, b = make_sim(MIDNIGHT, seed=1), make_sim(MIDNIGHT, seed=2)
        a.controller.pdu.grid.budget_w = 120.0
        b.controller.pdu.grid.budget_w = 340.0
        cluster = ClusterCoordinator([a, b], 1500.0, split=GridSplit.EQUAL)
        records = cluster.run_epoch()
        assert len(records) == 2
        assert a.controller.pdu.grid.budget_w == pytest.approx(120.0)
        assert b.controller.pdu.grid.budget_w == pytest.approx(340.0)

    def test_epoch_share_drives_the_epoch(self):
        # At midnight with drained batteries, a grid-only epoch's budget
        # comes from the coordinator's share, not the provisioned cap.
        a, b = make_sim(MIDNIGHT, seed=1), make_sim(MIDNIGHT, seed=2)
        for sim in (a, b):
            battery = sim.controller.pdu.battery
            battery.soc_wh = battery.floor_wh
        cluster = ClusterCoordinator([a, b], 1500.0, split=GridSplit.EQUAL)
        records = cluster.run_epoch()
        for record in records:
            assert record.budget_w <= 750.0 + 1e-6
            assert record.grid_to_load_w <= 750.0 + 1e-6

    def test_shortfall_fallback_with_primed_predictors(self):
        # Primed predictors forecasting abundant renewables: zero total
        # predicted shortfall must fall back to the EQUAL division.
        a = make_sim(seed=1, solar_peak=50000.0)
        b = make_sim(seed=2, solar_peak=50000.0)
        for sim in (a, b):
            scheduler = sim.controller.scheduler
            scheduler.renewable_predictor = HoltPredictor.fit([9000.0] * 8)
            scheduler.demand_predictor = HoltPredictor.fit([700.0] * 8)
        cluster = ClusterCoordinator([a, b], 1000.0, split=GridSplit.SHORTFALL)
        assert cluster.grid_shares_w(NOON) == [500.0, 500.0]

    def test_load_fraction_mismatch_rejected(self):
        cluster = ClusterCoordinator([make_sim()], 1000.0)
        with pytest.raises(ConfigurationError):
            cluster.run_epoch(load_fractions=[1.0, 0.5])

    def test_aggregate_requires_matching_records(self):
        cluster = ClusterCoordinator([make_sim()], 1000.0)
        with pytest.raises(ConfigurationError):
            cluster.aggregate_throughput([])
