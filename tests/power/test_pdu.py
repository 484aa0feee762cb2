"""PDU flow execution: the source priority chain."""

import pytest

from repro.errors import PowerError
from repro.power.battery import BatteryBank
from repro.power.grid import GridSource
from repro.power.pdu import PDU
from repro.power.solar import SolarFarm
from repro.power.sources import ChargeSource
from repro.traces.nrel import Weather, synthesize_irradiance

NOON = 12 * 3600.0
MIDNIGHT = 0.0


def make_pdu(solar_peak_w=1500.0, grid_budget_w=1000.0, soc=1.0, seed=5):
    trace = synthesize_irradiance(days=1, weather=Weather.HIGH, seed=seed)
    solar = SolarFarm.sized_for(trace, peak_power_w=solar_peak_w)
    battery = BatteryBank(initial_soc_fraction=soc)
    grid = GridSource(budget_w=grid_budget_w)
    return PDU(solar, battery, grid)


class TestPriorityChain:
    def test_renewable_first(self):
        pdu = make_pdu()
        renewable = pdu.renewable.power_at(NOON)
        assert renewable > 500.0
        flows = pdu.supply(load_w=400.0, time_s=NOON, duration_s=900.0)
        assert flows.breakdown.renewable_to_load_w == pytest.approx(400.0)
        assert flows.breakdown.battery_to_load_w == 0.0
        assert flows.breakdown.grid_to_load_w == 0.0

    def test_battery_supplements_shortfall(self):
        pdu = make_pdu()
        flows = pdu.supply(load_w=800.0, time_s=MIDNIGHT, duration_s=900.0)
        assert flows.breakdown.renewable_to_load_w == 0.0
        assert flows.breakdown.battery_to_load_w == pytest.approx(800.0)
        assert flows.delivered_w == pytest.approx(800.0)

    def test_grid_last_resort(self):
        pdu = make_pdu(soc=0.6)  # battery at its DoD floor
        flows = pdu.supply(load_w=800.0, time_s=MIDNIGHT, duration_s=900.0)
        assert flows.breakdown.battery_to_load_w == 0.0
        assert flows.breakdown.grid_to_load_w == pytest.approx(800.0)

    def test_battery_disabled_by_controller(self):
        pdu = make_pdu()
        flows = pdu.supply(
            load_w=800.0, time_s=MIDNIGHT, duration_s=900.0, use_battery=False
        )
        assert flows.breakdown.battery_to_load_w == 0.0
        assert flows.breakdown.grid_to_load_w == pytest.approx(800.0)

    def test_underdelivery_when_everything_exhausted(self):
        pdu = make_pdu(soc=0.6, grid_budget_w=300.0)
        flows = pdu.supply(load_w=900.0, time_s=MIDNIGHT, duration_s=900.0)
        assert flows.delivered_w == pytest.approx(300.0)


class TestCharging:
    def test_surplus_renewable_charges_battery(self):
        pdu = make_pdu(soc=0.6)
        flows = pdu.supply(load_w=200.0, time_s=NOON, duration_s=900.0)
        assert flows.breakdown.charge_source is ChargeSource.RENEWABLE
        assert flows.breakdown.charge_w > 0.0

    def test_grid_charging_when_enabled(self):
        pdu = make_pdu(soc=0.6)
        flows = pdu.supply(
            load_w=400.0,
            time_s=MIDNIGHT,
            duration_s=900.0,
            use_battery=False,
            grid_charges_battery=True,
        )
        assert flows.breakdown.charge_source is ChargeSource.GRID
        assert flows.breakdown.charge_w > 0.0

    def test_grid_charging_respects_budget(self):
        pdu = make_pdu(soc=0.6, grid_budget_w=1000.0)
        flows = pdu.supply(
            load_w=900.0,
            time_s=MIDNIGHT,
            duration_s=900.0,
            use_battery=False,
            grid_charges_battery=True,
        )
        assert flows.breakdown.grid_total_w <= 1000.0 + 1e-9
        assert flows.breakdown.charge_w <= 100.0 + 1e-9

    def test_single_charging_source(self):
        # Renewable surplus present: grid must not charge even if allowed.
        pdu = make_pdu(soc=0.6)
        flows = pdu.supply(
            load_w=100.0, time_s=NOON, duration_s=900.0, grid_charges_battery=True
        )
        assert flows.breakdown.charge_source is ChargeSource.RENEWABLE

    def test_full_battery_curtails_surplus(self):
        pdu = make_pdu(soc=1.0)
        flows = pdu.supply(load_w=100.0, time_s=NOON, duration_s=900.0)
        assert flows.curtailed_w > 0.0
        assert flows.breakdown.charge_w == pytest.approx(0.0)


class TestAccounting:
    def test_energy_conservation(self):
        pdu = make_pdu()
        load = 700.0
        flows = pdu.supply(load_w=load, time_s=NOON, duration_s=900.0)
        b = flows.breakdown
        assert b.total_to_load_w == pytest.approx(
            b.renewable_to_load_w + b.battery_to_load_w + b.grid_to_load_w
        )
        assert flows.renewable_available_w == pytest.approx(
            b.renewable_to_load_w
            + (b.charge_w if b.charge_source is ChargeSource.RENEWABLE else 0.0)
            + flows.curtailed_w
        )

    def test_soc_reported(self):
        pdu = make_pdu()
        before = pdu.battery.soc_wh
        flows = pdu.supply(load_w=500.0, time_s=MIDNIGHT, duration_s=3600.0)
        assert flows.battery_soc_wh == pytest.approx(before - 500.0)

    def test_available_upper_bound(self):
        pdu = make_pdu()
        avail = pdu.available_w(NOON, 900.0)
        assert avail >= pdu.renewable.power_at(NOON) + 1000.0

    def test_negative_load_rejected(self):
        with pytest.raises(PowerError):
            make_pdu().supply(load_w=-1.0, time_s=0.0, duration_s=60.0)

    def test_bad_duration_rejected(self):
        with pytest.raises(PowerError):
            make_pdu().supply(load_w=10.0, time_s=0.0, duration_s=0.0)


class TestBatteryCap:
    """Per-epoch battery discharge cap (the rationing extension)."""

    def test_cap_limits_discharge_grid_covers_rest(self):
        pdu = make_pdu()
        flows = pdu.supply(
            load_w=900.0, time_s=MIDNIGHT, duration_s=900.0, battery_cap_w=300.0
        )
        assert flows.breakdown.battery_to_load_w == pytest.approx(300.0)
        assert flows.breakdown.grid_to_load_w == pytest.approx(600.0)
        assert flows.delivered_w == pytest.approx(900.0)

    def test_none_cap_is_greedy(self):
        pdu = make_pdu()
        flows = pdu.supply(
            load_w=900.0, time_s=MIDNIGHT, duration_s=900.0, battery_cap_w=None
        )
        assert flows.breakdown.battery_to_load_w == pytest.approx(900.0)

    def test_zero_cap_disables_battery(self):
        pdu = make_pdu()
        flows = pdu.supply(
            load_w=500.0, time_s=MIDNIGHT, duration_s=900.0, battery_cap_w=0.0
        )
        assert flows.breakdown.battery_to_load_w == 0.0
        assert flows.breakdown.grid_to_load_w == pytest.approx(500.0)


class _StepRenewable:
    """Full output until ``drop_s``, then nothing (a cloud bank or sunset)."""

    def __init__(self, power_w, drop_s):
        self.power_w = power_w
        self.drop_s = drop_s

    def power_at(self, time_s):
        return self.power_w if time_s < self.drop_s else 0.0


def _faulted_pdu():
    from types import SimpleNamespace

    from repro.sim.faults import FaultInjector

    pdu = make_pdu()
    # Renewable dropout over the middle of the epoch starting at NOON.
    FaultInjector().add_renewable_dropout(NOON + 300.0, NOON + 700.0).attach(
        SimpleNamespace(pdu=pdu)
    )
    return pdu


def _unlimited_pdu():
    from repro.power.battery import UnlimitedSupply

    pdu = make_pdu(grid_budget_w=0.0)
    pdu.battery = UnlimitedSupply()
    return pdu


def _step_pdu():
    # Not full: surplus charges the battery, then the grid takes over.
    pdu = make_pdu(soc=0.8)
    pdu.renewable = _StepRenewable(900.0, drop_s=MIDNIGHT + 400.0)
    return pdu


#: (PDU factory, supply keywords): each runs one epoch of 6 intervals.
EPOCH_CASES = {
    "battery-on-noon-surplus": (make_pdu, dict(load_w=400.0, time_s=NOON)),
    "battery-off-night": (make_pdu, dict(load_w=800.0, time_s=MIDNIGHT, use_battery=False)),
    "grid-charges-battery": (
        lambda: make_pdu(soc=0.7),
        dict(load_w=300.0, time_s=MIDNIGHT, grid_charges_battery=True),
    ),
    "battery-cap": (make_pdu, dict(load_w=900.0, time_s=MIDNIGHT, battery_cap_w=200.0)),
    "grid-budget-share-brownout": (
        make_pdu,
        dict(load_w=900.0, time_s=MIDNIGHT, battery_cap_w=100.0, grid_budget_w=300.0),
    ),
    "battery-drains-mid-epoch": (
        lambda: make_pdu(soc=0.61, grid_budget_w=100.0),
        dict(load_w=1500.0, time_s=MIDNIGHT),
    ),
    "unlimited-supply": (_unlimited_pdu, dict(load_w=2000.0, time_s=NOON)),
    "fault-wrapped-renewable": (_faulted_pdu, dict(load_w=600.0, time_s=NOON)),
    "renewable-drops-to-zero": (
        _step_pdu, dict(load_w=700.0, time_s=MIDNIGHT, grid_charges_battery=True)
    ),
}


class TestEpochSupply:
    """``intervals=6`` is six single-interval calls, bit for bit."""

    INTERVALS = 6
    DURATION_S = 150.0

    @pytest.mark.parametrize("case", sorted(EPOCH_CASES))
    def test_equals_successive_single_intervals(self, case):
        factory, kwargs = EPOCH_CASES[case]
        kwargs = dict(kwargs)
        time_s = kwargs.pop("time_s")
        epoch_pdu, single_pdu = factory(), factory()
        flows = epoch_pdu.supply(
            time_s=time_s, duration_s=self.DURATION_S, intervals=self.INTERVALS, **kwargs
        )
        singles = [
            single_pdu.supply(
                time_s=time_s + i * self.DURATION_S, duration_s=self.DURATION_S, **kwargs
            )
            for i in range(self.INTERVALS)
        ]

        def total(values):
            acc = 0.0
            for value in values:
                acc += value
            return acc / self.INTERVALS

        for name in ("renewable_to_load_w", "battery_to_load_w", "grid_to_load_w", "charge_w"):
            want = total(getattr(s.breakdown, name) for s in singles)
            assert getattr(flows.breakdown, name) == want, name
        sources = [s.breakdown.charge_source for s in singles]
        charged = [src for src in sources if src is not ChargeSource.NONE]
        assert flows.breakdown.charge_source is (charged[-1] if charged else ChargeSource.NONE)
        assert flows.curtailed_w == total(s.curtailed_w for s in singles)
        assert flows.renewable_available_w == total(s.renewable_available_w for s in singles)
        assert flows.interval_delivered_w == tuple(s.delivered_w for s in singles)
        assert flows.interval_renewable_w == tuple(s.renewable_available_w for s in singles)
        assert flows.battery_soc_wh == singles[-1].battery_soc_wh
        assert epoch_pdu.battery.state_dict() == single_pdu.battery.state_dict()
        assert epoch_pdu.grid.energy_wh == single_pdu.grid.energy_wh
        assert epoch_pdu.grid.peak_draw_w == single_pdu.grid.peak_draw_w

    def test_cases_cover_brownout_and_charging(self):
        seen = set()
        for factory, kwargs in EPOCH_CASES.values():
            flows = factory().supply(
                duration_s=self.DURATION_S, intervals=self.INTERVALS, **kwargs
            )
            if min(flows.interval_delivered_w) < kwargs["load_w"] - 1e-6:
                seen.add("brownout")
            renewable = flows.interval_renewable_w
            if renewable[0] > 0.0 and 0.0 in renewable:
                seen.add("renewable-to-zero")
            seen.add(flows.breakdown.charge_source)
        assert {"brownout", "renewable-to-zero", ChargeSource.GRID, ChargeSource.RENEWABLE} <= seen

    def test_renewable_now_skips_the_first_read(self):
        reads = []
        pdu = make_pdu()
        inner = pdu.renewable.power_at
        now_w = inner(NOON)
        pdu.renewable.power_at = lambda t: (reads.append(t), inner(t))[1]
        flows = pdu.supply(
            400.0, NOON, self.DURATION_S, intervals=self.INTERVALS, renewable_now_w=now_w
        )
        assert reads == [NOON + i * self.DURATION_S for i in range(1, self.INTERVALS)]
        assert flows.interval_renewable_w[0] == now_w

    def test_bad_interval_count_rejected(self):
        with pytest.raises(PowerError):
            make_pdu().supply(load_w=10.0, time_s=0.0, duration_s=60.0, intervals=0)
