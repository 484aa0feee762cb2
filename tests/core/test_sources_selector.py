"""Power-source selection: Cases A/B/C with grid-mode hysteresis (Fig. 6)."""

import pytest

from repro.core.sources import RENEWABLE_FLOOR_W, PowerCase, SourceSelector
from repro.errors import PowerError
from repro.power.battery import BatteryBank
from repro.power.grid import GridSource

EPOCH = 900.0


@pytest.fixture
def battery():
    return BatteryBank()


@pytest.fixture
def drained():
    bank = BatteryBank(initial_soc_fraction=0.6)  # exactly at the DoD floor
    assert bank.at_dod_floor
    return bank


@pytest.fixture
def grid():
    return GridSource(budget_w=1000.0)


class TestCaseA:
    def test_renewable_covers_demand(self, battery, grid):
        sel = SourceSelector()
        d = sel.decide(1500.0, 1100.0, battery, grid, EPOCH)
        assert d.case is PowerCase.A
        assert d.rack_budget_w == 1100.0
        assert not d.use_battery
        assert not d.grid_charges_battery
        assert d.sufficient

    def test_case_a_resets_grid_mode(self, drained, grid):
        sel = SourceSelector()
        sel.decide(0.0, 1100.0, drained, grid, EPOCH)  # enters grid mode
        assert sel.grid_mode
        sel.decide(1500.0, 1100.0, drained, grid, EPOCH)
        assert not sel.grid_mode


class TestCaseB:
    def test_battery_covers_gap(self, battery, grid):
        sel = SourceSelector()
        d = sel.decide(600.0, 1100.0, battery, grid, EPOCH)
        assert d.case is PowerCase.B
        assert d.rack_budget_w == 1100.0
        assert d.use_battery
        assert not d.grid_charges_battery

    def test_drained_battery_brings_grid(self, drained, grid):
        sel = SourceSelector()
        d = sel.decide(600.0, 2000.0, drained, grid, EPOCH)
        assert d.case is PowerCase.B
        assert d.rack_budget_w == pytest.approx(1600.0)  # renewable + grid cap
        assert not d.use_battery
        assert d.grid_charges_battery
        assert not d.sufficient


class TestCaseC:
    def test_battery_alone_at_night(self, battery, grid):
        sel = SourceSelector()
        d = sel.decide(0.0, 1100.0, battery, grid, EPOCH)
        assert d.case is PowerCase.C
        assert d.rack_budget_w == 1100.0
        assert d.use_battery

    def test_renewable_floor_counts_as_night(self, battery, grid):
        sel = SourceSelector()
        d = sel.decide(RENEWABLE_FLOOR_W - 1.0, 1100.0, battery, grid, EPOCH)
        assert d.case is PowerCase.C

    def test_grid_takes_over_when_battery_cannot_sustain(self, drained, grid):
        sel = SourceSelector()
        d = sel.decide(0.0, 1100.0, drained, grid, EPOCH)
        assert d.case is PowerCase.C
        assert d.rack_budget_w == pytest.approx(1000.0)  # the grid cap
        assert not d.use_battery
        assert d.grid_charges_battery
        assert not d.sufficient

    def test_budget_capped_at_demand_on_grid(self, drained, grid):
        sel = SourceSelector()
        d = sel.decide(0.0, 800.0, drained, grid, EPOCH)
        assert d.rack_budget_w == pytest.approx(800.0)


class TestHysteresis:
    """Grid mode is sticky until Case A or a full battery."""

    def test_stays_on_grid_after_takeover(self, grid):
        bank = BatteryBank(initial_soc_fraction=0.6)
        sel = SourceSelector()
        sel.decide(0.0, 1100.0, bank, grid, EPOCH)
        assert sel.grid_mode
        # Trickle-charge the battery a little: must NOT flip back.
        bank.charge(1200.0, 3600.0)
        d = sel.decide(0.0, 1100.0, bank, grid, EPOCH)
        assert sel.grid_mode
        assert not d.use_battery

    def test_full_battery_exits_grid_mode(self, grid):
        bank = BatteryBank(initial_soc_fraction=0.6)
        sel = SourceSelector()
        sel.decide(0.0, 1100.0, bank, grid, EPOCH)
        bank.soc_wh = bank.capacity_wh  # fully recharged
        d = sel.decide(0.0, 1100.0, bank, grid, EPOCH)
        assert not sel.grid_mode
        assert d.use_battery

    def test_case_b_sticky_too(self, grid):
        bank = BatteryBank(initial_soc_fraction=0.6)
        sel = SourceSelector()
        sel.decide(400.0, 1100.0, bank, grid, EPOCH)
        assert sel.grid_mode
        bank.charge(1200.0, 1800.0)
        d = sel.decide(400.0, 1100.0, bank, grid, EPOCH)
        assert not d.use_battery


class TestValidation:
    def test_negative_forecasts_rejected(self, battery, grid):
        sel = SourceSelector()
        with pytest.raises(PowerError):
            sel.decide(-1.0, 100.0, battery, grid, EPOCH)
        with pytest.raises(PowerError):
            sel.decide(100.0, -1.0, battery, grid, EPOCH)


class TestRationedSelector:
    """The beyond-the-paper night-rationing extension."""

    def _make(self, night_h=12.0):
        from repro.core.sources import RationedSourceSelector

        return RationedSourceSelector(night_length_s=night_h * 3600.0)

    def test_rations_battery_at_night(self, battery, grid):
        sel = self._make()
        d = sel.decide(0.0, 2000.0, battery, grid, EPOCH)
        assert d.case is PowerCase.C
        # 4800 Wh usable over ~12 h of night -> ~400 W ration.
        assert d.battery_cap_w == pytest.approx(
            battery.usable_wh * 3600.0 / (12 * 3600.0 - EPOCH), rel=0.05
        )
        # Budget = ration + grid base, below full demand.
        assert d.rack_budget_w == pytest.approx(d.battery_cap_w + 1000.0, rel=0.01)
        assert d.rack_budget_w < 2000.0

    def test_budget_capped_at_demand(self, battery, grid):
        sel = self._make()
        d = sel.decide(0.0, 900.0, battery, grid, EPOCH)
        assert d.rack_budget_w == pytest.approx(900.0)

    def test_ration_grows_as_night_ends(self, battery, grid):
        sel = self._make(night_h=2.0)
        first = sel.decide(0.0, 1300.0, battery, grid, EPOCH)
        for _ in range(6):
            last = sel.decide(0.0, 1300.0, battery, grid, EPOCH)
        # Same energy over less remaining time -> a larger ration.
        assert last.battery_cap_w > first.battery_cap_w

    def test_daylight_resets_dark_clock(self, battery, grid):
        sel = self._make()
        sel.decide(0.0, 1300.0, battery, grid, EPOCH)
        sel.decide(2000.0, 1300.0, battery, grid, EPOCH)  # Case A day epoch
        fresh = sel.decide(0.0, 1300.0, battery, grid, EPOCH)
        assert fresh.battery_cap_w == pytest.approx(
            battery.usable_wh * 3600.0 / (12 * 3600.0 - EPOCH), rel=0.05
        )

    def test_case_a_and_b_defer_to_base(self, battery, grid):
        sel = self._make()
        a = sel.decide(2000.0, 1100.0, battery, grid, EPOCH)
        assert a.case is PowerCase.A and a.battery_cap_w is None
        b = sel.decide(600.0, 1100.0, battery, grid, EPOCH)
        assert b.case is PowerCase.B and b.battery_cap_w is None

    def test_bad_night_length_rejected(self):
        from repro.core.sources import RationedSourceSelector
        from repro.errors import PowerError

        with pytest.raises(PowerError):
            RationedSourceSelector(night_length_s=0.0)


class TestCarbonAwareSelector:
    """The carbon-first extension: shed performance, not carbon."""

    def _make(self, cap=0.3):
        from repro.core.sources import CarbonAwareSelector

        return CarbonAwareSelector(grid_cap_fraction=cap)

    def test_night_grid_capped(self, drained, grid):
        sel = self._make(cap=0.3)
        d = sel.decide(0.0, 1100.0, drained, grid, EPOCH)
        assert d.rack_budget_w == pytest.approx(0.3 * 1000.0)
        assert not d.grid_charges_battery

    def test_zero_cap_is_pure_green(self, drained, grid):
        sel = self._make(cap=0.0)
        d = sel.decide(0.0, 1100.0, drained, grid, EPOCH)
        assert d.rack_budget_w == 0.0

    def test_battery_phase_unchanged(self, battery, grid):
        from repro.core.sources import SourceSelector

        carbon = self._make()
        base = SourceSelector()
        a = carbon.decide(0.0, 1100.0, battery, grid, EPOCH)
        b = base.decide(0.0, 1100.0, battery, grid, EPOCH)
        assert a.rack_budget_w == b.rack_budget_w
        assert a.use_battery and b.use_battery

    def test_case_a_unchanged(self, battery, grid):
        sel = self._make()
        d = sel.decide(2000.0, 1100.0, battery, grid, EPOCH)
        assert d.case is PowerCase.A
        assert d.rack_budget_w == 1100.0

    def test_case_b_grid_mode_capped(self, drained, grid):
        sel = self._make(cap=0.5)
        d = sel.decide(400.0, 1500.0, drained, grid, EPOCH)
        assert d.case is PowerCase.B
        assert d.rack_budget_w == pytest.approx(400.0 + 500.0)

    def test_bad_cap_rejected(self):
        from repro.core.sources import CarbonAwareSelector

        with pytest.raises(PowerError):
            CarbonAwareSelector(grid_cap_fraction=1.5)
