"""Utility grid power behind the automatic transfer switch.

The grid is the paper's "last resort only when the battery drains out"
(Section IV-B.1).  Its rack budget is deliberately under-provisioned —
1000 W in the Fig. 8 runs, "lower than the server power demand" — both
because peak grid power is expensive (the paper cites up to $13.61/kW
peak charges from [21]) and because GreenHetero explicitly targets
under-provisioned grid infrastructure (Fig. 12).

:class:`GridSource` enforces the budget, meters energy and peak draw, and
prices the usage with a simple peak-demand tariff for the cost analyses.
"""

from __future__ import annotations

import math

from repro.errors import PowerError

#: Peak-demand charge the paper quotes from Parasol/GreenSwitch [21].
DEFAULT_PEAK_PRICE_PER_KW = 13.61

#: Volumetric energy price (US average commercial rate, $/kWh).
DEFAULT_ENERGY_PRICE_PER_KWH = 0.11


class GridSource:
    """Budget-capped grid feed with energy and peak-demand metering.

    Parameters
    ----------
    budget_w:
        Maximum combined power the rack may draw from the grid at any
        instant (load + battery charging).
    peak_price_per_kw:
        Monthly peak-demand charge, $/kW.
    energy_price_per_kwh:
        Volumetric charge, $/kWh.
    """

    def __init__(
        self,
        budget_w: float = 1000.0,
        peak_price_per_kw: float = DEFAULT_PEAK_PRICE_PER_KW,
        energy_price_per_kwh: float = DEFAULT_ENERGY_PRICE_PER_KWH,
    ) -> None:
        if not (math.isfinite(budget_w) and budget_w >= 0):
            raise PowerError(f"grid budget must be finite and non-negative, got {budget_w}")
        if peak_price_per_kw < 0 or energy_price_per_kwh < 0:
            raise PowerError("prices must be non-negative")
        self.budget_w = budget_w
        self.peak_price_per_kw = peak_price_per_kw
        self.energy_price_per_kwh = energy_price_per_kwh
        self._energy_wh = 0.0
        self._peak_draw_w = 0.0

    def epoch_budget_w(self, budget_w: float | None = None) -> float:
        """An epoch's budget: ``budget_w`` (a cluster share) or the provisioned one."""
        return self.budget_w if budget_w is None else budget_w

    def draw(self, power_w: float, duration_s: float, budget_w: float | None = None) -> float:
        """Draw up to ``power_w`` for ``duration_s``; returns actual power.

        The return value is capped at :meth:`epoch_budget_w`; the caller
        decides how to split it between load and battery charging.
        """
        if power_w < 0:
            raise PowerError(f"grid draw must be non-negative, got {power_w}")
        if duration_s <= 0:
            raise PowerError("duration must be positive")
        delivered = min(power_w, self.epoch_budget_w(budget_w))
        self._energy_wh += delivered * duration_s / 3600.0
        self._peak_draw_w = max(self._peak_draw_w, delivered)
        return delivered

    @property
    def energy_wh(self) -> float:
        """Total grid energy consumed so far (Wh)."""
        return self._energy_wh

    @property
    def peak_draw_w(self) -> float:
        """Highest instantaneous grid draw observed (W)."""
        return self._peak_draw_w

    def cost_usd(self) -> float:
        """Peak-demand charge plus volumetric energy cost ($)."""
        return (
            self._peak_draw_w / 1000.0 * self.peak_price_per_kw
            + self._energy_wh / 1000.0 * self.energy_price_per_kwh
        )

    def __repr__(self) -> str:
        return (
            f"GridSource(budget={self.budget_w:.0f} W, used={self._energy_wh:.0f} Wh, "
            f"peak={self._peak_draw_w:.0f} W)"
        )
