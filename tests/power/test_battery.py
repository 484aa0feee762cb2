"""Lead-acid battery bank model (Section V-A.2's assumptions)."""

import pytest

from repro.errors import BatteryError
from repro.power import battery
from repro.power.battery import BatteryBank, UnlimitedSupply


@pytest.fixture
def bank():
    """The paper's bank: 10 x 12 V x 100 Ah, DoD 40%, 80% efficient."""
    return BatteryBank()


class TestPaperDefaults:
    def test_capacity_is_12_kwh(self, bank):
        assert bank.capacity_wh == pytest.approx(12000.0)

    def test_dod_floor_at_60_percent(self, bank):
        assert bank.floor_wh == pytest.approx(7200.0)

    def test_usable_energy(self, bank):
        assert bank.usable_wh == pytest.approx(4800.0)

    def test_starts_full(self, bank):
        assert bank.is_full
        assert bank.soc_fraction == 1.0

    def test_rate_limits(self, bank):
        assert bank.max_discharge_w == pytest.approx(2400.0)  # C/5
        assert bank.max_charge_w == pytest.approx(1200.0)     # C/10


class TestDischarge:
    def test_basic_discharge(self, bank):
        delivered = bank.discharge(1000.0, 3600.0)
        assert delivered == 1000.0
        assert bank.soc_wh == pytest.approx(11000.0)

    def test_rate_limited(self, bank):
        delivered = bank.discharge(5000.0, 3600.0)
        assert delivered == pytest.approx(2400.0)

    def test_stops_at_dod_floor(self, bank):
        # Ask for everything repeatedly: SoC must never cross the floor.
        for _ in range(20):
            bank.discharge(2400.0, 3600.0)
        assert bank.soc_wh >= bank.floor_wh - 1e-9
        assert bank.at_dod_floor

    def test_energy_limited_power(self, bank):
        bank.soc_wh = bank.floor_wh + 100.0  # 100 Wh usable
        delivered = bank.discharge(2400.0, 3600.0)
        assert delivered == pytest.approx(100.0)

    def test_negative_power_rejected(self, bank):
        with pytest.raises(BatteryError):
            bank.discharge(-1.0, 60.0)

    def test_bad_duration_rejected(self, bank):
        with pytest.raises(BatteryError):
            bank.discharge(100.0, 0.0)


class TestCharge:
    def test_charging_applies_efficiency(self, bank):
        bank.soc_wh = bank.floor_wh
        accepted = bank.charge(1000.0, 3600.0)
        assert accepted == 1000.0
        # 1000 Wh in, 800 Wh stored (80% efficiency).
        assert bank.soc_wh == pytest.approx(bank.floor_wh + 800.0)

    def test_rate_limited(self, bank):
        bank.soc_wh = bank.floor_wh
        accepted = bank.charge(5000.0, 3600.0)
        assert accepted == pytest.approx(1200.0)

    def test_never_overfills(self, bank):
        bank.soc_wh = bank.capacity_wh - 10.0
        for _ in range(10):
            bank.charge(1200.0, 3600.0)
        assert bank.soc_wh <= bank.capacity_wh + 1e-9

    def test_full_bank_accepts_nothing(self, bank):
        assert bank.charge(1000.0, 3600.0) == pytest.approx(0.0)

    def test_negative_power_rejected(self, bank):
        with pytest.raises(BatteryError):
            bank.charge(-5.0, 60.0)


class TestLifetime:
    def test_equivalent_cycles(self, bank):
        # One full DoD-depth discharge = one equivalent cycle.
        bank.discharge(2400.0, 3600.0)
        bank.discharge(2400.0, 3600.0)
        assert bank.equivalent_cycles == pytest.approx(1.0)

    def test_lifetime_fraction(self, bank):
        bank.discharge(2400.0, 3600.0)
        assert bank.lifetime_consumed_fraction == pytest.approx(0.5 / 1300.0)

    def test_repr_mentions_soc(self, bank):
        assert "soc" in repr(bank).lower()


class TestValidation:
    def test_bad_count(self):
        with pytest.raises(BatteryError):
            BatteryBank(count=0)

    def test_bad_dod(self):
        with pytest.raises(BatteryError):
            BatteryBank(depth_of_discharge=0.0)
        with pytest.raises(BatteryError):
            BatteryBank(depth_of_discharge=1.5)

    def test_bad_efficiency(self):
        with pytest.raises(BatteryError):
            BatteryBank(efficiency=0.0)

    def test_bad_initial_soc(self):
        with pytest.raises(BatteryError):
            BatteryBank(initial_soc_fraction=1.2)

    def test_initial_soc_below_floor_rejected(self):
        # A bank can never *reach* a SoC below the DoD floor, so starting
        # there is a configuration error, not something to silently clamp.
        with pytest.raises(BatteryError):
            BatteryBank(initial_soc_fraction=0.0)

    def test_initial_soc_at_floor_accepted(self):
        bank = BatteryBank(initial_soc_fraction=0.6, depth_of_discharge=0.4)
        assert bank.soc_wh == pytest.approx(bank.floor_wh)

    def test_bad_rate(self):
        with pytest.raises(BatteryError):
            BatteryBank(max_discharge_w=0.0)


class TestPeukert:
    def test_ideal_battery_by_default(self):
        bank = BatteryBank()
        assert bank.peukert_exponent == 1.0
        assert bank._peukert_factor(2400.0) == 1.0

    def test_factor_one_at_or_below_c20(self):
        bank = BatteryBank(peukert_exponent=1.2)
        c20 = bank.capacity_wh / 20.0
        assert bank._peukert_factor(c20) == 1.0
        assert bank._peukert_factor(c20 / 2) == 1.0

    def test_factor_grows_above_c20(self):
        bank = BatteryBank(peukert_exponent=1.2)
        c20 = bank.capacity_wh / 20.0
        assert bank._peukert_factor(2 * c20) == pytest.approx(2 ** 0.2)
        assert bank._peukert_factor(4 * c20) > bank._peukert_factor(2 * c20)

    def test_fast_discharge_costs_more_soc(self):
        slow = BatteryBank(peukert_exponent=1.2)
        fast = BatteryBank(peukert_exponent=1.2)
        # Same 500 Wh delivered, at C/20 vs near C/5.
        slow.discharge(600.0, 3000.0)
        fast.discharge(2400.0, 750.0)
        assert fast.soc_wh < slow.soc_wh

    def test_ideal_exponent_is_identity(self):
        ideal = BatteryBank(peukert_exponent=1.0)
        ideal.discharge(2400.0, 3600.0)
        assert ideal.soc_wh == pytest.approx(12000.0 - 2400.0)

    def test_debit_never_crosses_floor(self):
        bank = BatteryBank(peukert_exponent=1.3)
        for _ in range(30):
            bank.discharge(2400.0, 3600.0)
        assert bank.soc_wh >= bank.floor_wh - 1e-9

    def test_exponent_below_one_rejected(self):
        with pytest.raises(BatteryError):
            BatteryBank(peukert_exponent=0.9)


class TestUnlimitedSupply:
    def test_is_flagged(self):
        assert UnlimitedSupply().is_unlimited is True
        assert BatteryBank().is_unlimited is False

    def test_discharge_delivers_without_state_change(self):
        supply = UnlimitedSupply()
        soc = supply.soc_wh
        for _ in range(100):
            assert supply.discharge(5000.0, 3600.0) == 5000.0
        assert supply.soc_wh == soc
        assert supply.equivalent_cycles == 0.0
        assert supply._discharged_wh_total == 0.0

    def test_discharge_caps_at_the_power_limit(self, monkeypatch):
        monkeypatch.setattr(battery, "UNLIMITED_POWER_W", 300.0)
        supply = UnlimitedSupply()
        assert supply.discharge(5000.0, 900.0) == 300.0
        assert supply.max_discharge_power_w(900.0) == 300.0

    def test_reports_full_and_refuses_charge(self):
        supply = UnlimitedSupply()
        assert supply.charge(1000.0, 3600.0) == 0.0
        assert supply.max_charge_power_w(3600.0) == 0.0
        assert supply.soc_wh == supply.capacity_wh

    def test_bad_arguments_still_rejected(self):
        supply = UnlimitedSupply()
        with pytest.raises(BatteryError):
            supply.discharge(-1.0, 3600.0)
        with pytest.raises(BatteryError):
            supply.discharge(100.0, 0.0)
        with pytest.raises(BatteryError):
            supply.charge(-1.0, 3600.0)

    def test_repr_names_the_sentinel(self):
        assert "UnlimitedSupply" in repr(UnlimitedSupply())
