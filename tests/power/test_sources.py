"""SupplyBreakdown accounting record."""

import pytest

from repro.errors import PowerError
from repro.power.sources import ChargeSource, SupplyBreakdown


class TestSupplyBreakdown:
    def test_totals(self):
        b = SupplyBreakdown(
            renewable_to_load_w=100.0,
            battery_to_load_w=50.0,
            grid_to_load_w=25.0,
            charge_w=10.0,
            charge_source=ChargeSource.GRID,
        )
        assert b.total_to_load_w == 175.0
        assert b.renewable_to_load_w + b.battery_to_load_w == 150.0
        assert b.grid_to_load_w + b.charge_w == 35.0

    def test_renewable_charging_not_counted_as_grid(self):
        b = SupplyBreakdown(
            renewable_to_load_w=100.0,
            charge_w=20.0,
            charge_source=ChargeSource.RENEWABLE,
        )
        assert b.charge_source is not ChargeSource.GRID and b.grid_to_load_w == 0.0

    def test_negative_flow_rejected(self):
        with pytest.raises(PowerError):
            SupplyBreakdown(renewable_to_load_w=-1.0)

    def test_charge_without_source_rejected(self):
        with pytest.raises(PowerError):
            SupplyBreakdown(charge_w=5.0, charge_source=ChargeSource.NONE)

    def test_empty_breakdown(self):
        b = SupplyBreakdown()
        assert b.total_to_load_w == 0.0
        assert b.grid_to_load_w == 0.0 and b.charge_w == 0.0
