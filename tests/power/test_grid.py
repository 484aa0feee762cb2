"""Budget-capped grid source."""

import pytest

from repro.errors import PowerError
from repro.power.grid import GridSource


class TestBudget:
    def test_draw_within_budget(self):
        grid = GridSource(budget_w=1000.0)
        assert grid.draw(800.0, 3600.0) == 800.0

    def test_draw_capped_at_budget(self):
        grid = GridSource(budget_w=1000.0)
        assert grid.draw(1500.0, 3600.0) == 1000.0

    def test_zero_budget(self):
        grid = GridSource(budget_w=0.0)
        assert grid.draw(500.0, 60.0) == 0.0

    def test_negative_budget_rejected(self):
        with pytest.raises(PowerError):
            GridSource(budget_w=-1.0)

    @pytest.mark.parametrize("budget", [float("nan"), float("inf")])
    def test_non_finite_budget_rejected(self, budget):
        # NaN once slipped past the sign check and uncapped every draw.
        with pytest.raises(PowerError, match="finite"):
            GridSource(budget_w=budget)

    def test_negative_draw_rejected(self):
        with pytest.raises(PowerError):
            GridSource().draw(-1.0, 60.0)

    def test_bad_duration_rejected(self):
        with pytest.raises(PowerError):
            GridSource().draw(100.0, 0.0)


class TestMetering:
    def test_energy_accumulates(self):
        grid = GridSource(budget_w=1000.0)
        grid.draw(500.0, 3600.0)
        grid.draw(250.0, 7200.0)
        assert grid.energy_wh == pytest.approx(500.0 + 500.0)

    def test_peak_draw_tracked(self):
        grid = GridSource(budget_w=1000.0)
        grid.draw(300.0, 60.0)
        grid.draw(900.0, 60.0)
        grid.draw(100.0, 60.0)
        assert grid.peak_draw_w == 900.0

    def test_cost_model(self):
        grid = GridSource(
            budget_w=2000.0, peak_price_per_kw=13.61, energy_price_per_kwh=0.10
        )
        grid.draw(1000.0, 3600.0)  # 1 kWh at a 1 kW peak
        assert grid.cost_usd() == pytest.approx(13.61 + 0.10)

    def test_unused_grid_costs_nothing(self):
        assert GridSource().cost_usd() == 0.0

    def test_repr(self):
        assert "budget" in repr(GridSource())
