"""Power-source selection: the paper's Cases A, B, C (Fig. 6).

At the start of each scheduling epoch the scheduler compares the
*predicted* renewable supply against the *predicted* rack demand and
picks the sources for the epoch:

* **Case A** — renewable covers demand.  Renewable alone powers the
  rack; the surplus charges the battery.
* **Case B** — renewable is present but short.  The battery discharges
  to cover the gap (down to its DoD floor); once the battery is drained
  the grid, the last resort, supplements within its budget and also
  recharges the battery.
* **Case C** — renewable is absent (night).  The battery alone sustains
  the load until the DoD floor, after which the grid takes over — both
  powering the rack (budget-capped, hence *insufficient*, which is when
  PAR matters most) and charging the battery for the next shortage.

The selector also computes the epoch's *rack power budget*: how much
power the allocation policy may distribute.  The budget is the portion
of demand the chosen sources can actually sustain — it is what makes the
Fig. 8/11 timelines show degraded-but-optimised epochs instead of
brownouts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

from repro.core.persistence import Field, check
from repro.errors import PowerError
from repro.power.battery import BatteryBank
from repro.power.grid import GridSource

#: Below this the renewable supply counts as "unavailable" (Case C);
#: PV inverters cut out at a few watts anyway.
RENEWABLE_FLOOR_W = 5.0

#: Grid mode also ends once the battery has recharged this fraction of
#: its usable (DoD-depth) capacity: enough autonomy to be worth
#: discharging again.  This is what produces the multiple
#: discharge/charge episodes per day the paper observes on the
#: fluctuating Low trace (Fig. 11b).
RESUME_USABLE_FRACTION = 0.4


class PowerCase(enum.Enum):
    """The three renewable-supply regimes of Fig. 6."""

    A = "A"  # renewable sufficient
    B = "B"  # renewable insufficient, battery/grid supplement
    C = "C"  # renewable unavailable


@dataclass(frozen=True)
class SourceDecision:
    """The scheduler's source plan for one epoch.

    Attributes
    ----------
    case:
        Which Fig. 6 regime the epoch falls in.
    rack_budget_w:
        Power the allocation policy may distribute to servers.
    use_battery:
        Whether the PDU may discharge the battery this epoch.
    grid_charges_battery:
        Whether leftover grid budget should recharge the battery (only
        when the battery has hit its DoD floor, per Section IV-B.1).
    predicted_renewable_w / predicted_demand_w:
        The forecasts the decision was based on (for telemetry).
    """

    case: PowerCase
    rack_budget_w: float
    use_battery: bool
    grid_charges_battery: bool
    predicted_renewable_w: float
    predicted_demand_w: float
    #: Optional per-epoch cap on battery discharge power (W); ``None``
    #: lets the battery cover the whole shortfall (the paper's greedy
    #: behaviour).  Used by :class:`RationedSourceSelector`.
    battery_cap_w: float | None = None

    @property
    def sufficient(self) -> bool:
        """True when the budget covers the predicted demand."""
        return self.rack_budget_w >= self.predicted_demand_w - 1e-9


class SourceSelector:
    """Implements the Case A/B/C decision table with grid-mode hysteresis.

    The paper's rule is "the grid will be the last resort only when the
    battery drains out": the battery supplements shortfalls until it *can
    no longer sustain the power demand*, at which point the grid takes
    over — both powering the rack (within its budget) and recharging the
    battery.  Grid mode is sticky: flip-flopping between a freshly
    trickle-charged battery and the grid would thrash the battery and
    shorten its life, so the selector stays on the grid until either the
    renewable supply covers demand again (Case A) or the battery has
    recharged :data:`RESUME_USABLE_FRACTION` of its usable capacity.
    Renewable supply at or below :data:`RENEWABLE_FLOOR_W` counts as
    absent.
    """

    def __init__(self) -> None:
        self._grid_mode = False

    @property
    def grid_mode(self) -> bool:
        """True while the grid has taken over from a drained battery."""
        return self._grid_mode

    def state_dict(self) -> dict[str, Any]:
        """The grid-mode hysteresis flag (the thresholds are config)."""
        return {"grid_mode": self._grid_mode}

    def load_state_dict(self, state: dict[str, Any]) -> None:
        """Install a :meth:`state_dict` capture."""
        self._grid_mode = check(state, {"grid_mode": Field(bool)})["grid_mode"]

    def decide(
        self,
        predicted_renewable_w: float,
        predicted_demand_w: float,
        battery: BatteryBank,
        grid: GridSource,
        duration_s: float,
        grid_budget_w: float | None = None,
    ) -> SourceDecision:
        """Choose sources and the rack power budget for the next epoch.

        Parameters
        ----------
        predicted_renewable_w / predicted_demand_w:
            Holt forecasts from the Predictor.
        battery:
            The rack's battery bank (queried, not mutated).
        grid:
            The rack's grid feed (queried, not mutated).
        duration_s:
            Epoch length, which bounds battery energy per epoch.
        grid_budget_w:
            This epoch's grid budget, if not the provisioned one.
        """
        if predicted_demand_w < 0 or predicted_renewable_w < 0:
            raise PowerError("forecasts must be non-negative")

        renewable = predicted_renewable_w
        demand = predicted_demand_w
        grid_w = grid.epoch_budget_w(grid_budget_w)
        battery_power = battery.max_discharge_power_w(duration_s)
        resume_wh = (
            RESUME_USABLE_FRACTION
            * battery.depth_of_discharge
            * battery.capacity_wh
        )
        if self._grid_mode and (battery.is_full or battery.usable_wh >= resume_wh):
            self._grid_mode = False

        if renewable >= demand and renewable > RENEWABLE_FLOOR_W:
            # Case A: renewable sustains the load; surplus charges battery.
            self._grid_mode = False
            return SourceDecision(
                case=PowerCase.A,
                rack_budget_w=demand,
                use_battery=False,
                grid_charges_battery=False,
                predicted_renewable_w=renewable,
                predicted_demand_w=demand,
            )

        if renewable > RENEWABLE_FLOOR_W:
            # Case B: renewable + battery while the battery can cover the
            # gap; otherwise the grid supplements and recharges it.
            gap = demand - renewable
            if not self._grid_mode and battery_power >= gap:
                return SourceDecision(
                    case=PowerCase.B,
                    rack_budget_w=demand,
                    use_battery=True,
                    grid_charges_battery=False,
                    predicted_renewable_w=renewable,
                    predicted_demand_w=demand,
                )
            self._grid_mode = True
            budget = min(demand, renewable + grid_w)
            return SourceDecision(
                case=PowerCase.B,
                rack_budget_w=budget,
                use_battery=False,
                grid_charges_battery=True,
                predicted_renewable_w=renewable,
                predicted_demand_w=demand,
            )

        # Case C: no renewable.  Battery alone while it can sustain the
        # demand, then the grid takes over — powering the rack within its
        # budget and recharging the battery with any leftover headroom.
        if not self._grid_mode and battery_power >= demand:
            return SourceDecision(
                case=PowerCase.C,
                rack_budget_w=demand,
                use_battery=True,
                grid_charges_battery=False,
                predicted_renewable_w=renewable,
                predicted_demand_w=demand,
            )
        self._grid_mode = True
        budget = min(demand, grid_w)
        return SourceDecision(
            case=PowerCase.C,
            rack_budget_w=budget,
            use_battery=False,
            grid_charges_battery=True,
            predicted_renewable_w=renewable,
            predicted_demand_w=demand,
        )


class RationedSourceSelector(SourceSelector):
    """Night-aware battery rationing (an extension beyond the paper).

    The paper's selector discharges greedily: full demand from the
    battery until the DoD floor, then the under-provisioned grid.
    Because throughput is *concave* in power, spreading the same energy
    evenly across the dark hours yields more total work than a
    full-power burst followed by starvation (Jensen's inequality).

    This selector rations Case C battery power to
    ``usable energy / estimated remaining night``, tracking how long the
    renewable supply has been absent.  Everything else (Cases A/B, grid
    takeover and hysteresis) defers to the base class.

    Parameters
    ----------
    night_length_s:
        Planning estimate of a dark period's total length (default 12 h;
        a mid-latitude night).  An underestimate degrades gracefully
        toward the paper's greedy behaviour.
    """

    def __init__(self, night_length_s: float = 12 * 3600.0) -> None:
        super().__init__()
        if night_length_s <= 0:
            raise PowerError("night length must be positive")
        self.night_length_s = night_length_s
        self._dark_elapsed_s = 0.0

    def state_dict(self) -> dict[str, Any]:
        """The hysteresis flag plus how long the dark period has lasted."""
        return {**super().state_dict(), "dark_elapsed_s": self._dark_elapsed_s}

    def load_state_dict(self, state: dict[str, Any]) -> None:
        """Install a :meth:`state_dict` capture."""
        dark_elapsed_s = check(state, {"dark_elapsed_s": Field(lo=0.0)})["dark_elapsed_s"]
        super().load_state_dict(state)
        self._dark_elapsed_s = dark_elapsed_s

    def decide(
        self,
        predicted_renewable_w: float,
        predicted_demand_w: float,
        battery: BatteryBank,
        grid: GridSource,
        duration_s: float,
        grid_budget_w: float | None = None,
    ) -> SourceDecision:
        decision = super().decide(
            predicted_renewable_w, predicted_demand_w, battery, grid, duration_s,
            grid_budget_w,
        )
        grid_w = grid.epoch_budget_w(grid_budget_w)
        if predicted_renewable_w > RENEWABLE_FLOOR_W:
            self._dark_elapsed_s = 0.0
            return decision
        self._dark_elapsed_s += duration_s
        if decision.case is PowerCase.C and decision.use_battery:
            remaining_s = max(
                self.night_length_s - self._dark_elapsed_s, duration_s
            )
            ration_w = battery.usable_wh * 3600.0 / remaining_s
            # The grid runs as a continuous base all night; the battery
            # tops it up at the ration rate.  Total energy through the
            # dark hours is thereby maximised *and* delivered at a
            # steady power level, which concavity rewards.
            budget = min(predicted_demand_w, ration_w + grid_w)
            return SourceDecision(
                case=PowerCase.C,
                rack_budget_w=budget,
                use_battery=True,
                grid_charges_battery=False,
                predicted_renewable_w=predicted_renewable_w,
                predicted_demand_w=predicted_demand_w,
                battery_cap_w=ration_w,
            )
        return decision


class CarbonAwareSelector(SourceSelector):
    """Carbon-first source selection (an extension beyond the paper).

    The paper maximises performance under whatever sources are live; a
    sustainability-first operator would rather *shed performance* than
    burn grid carbon.  This selector changes exactly one decision: when
    the battery drains and the base class would hand the rack to the
    grid, it instead caps the grid's contribution at ``grid_cap_fraction``
    of its budget — running the rack degraded-but-green until renewables
    return (the GreenSlot/GreenHadoop philosophy from the paper's
    related work, applied at the power layer).

    Grid-sourced battery charging is disabled entirely: the battery
    refills only from renewable surplus.

    Parameters
    ----------
    grid_cap_fraction:
        Share of the grid budget the rack may use while in grid mode
        (0 = pure green: the rack browns out at night after the battery
        empties).
    """

    def __init__(self, grid_cap_fraction: float = 0.3) -> None:
        super().__init__()
        if not 0.0 <= grid_cap_fraction <= 1.0:
            raise PowerError("grid cap fraction must be in [0, 1]")
        self.grid_cap_fraction = grid_cap_fraction

    def decide(
        self,
        predicted_renewable_w: float,
        predicted_demand_w: float,
        battery: BatteryBank,
        grid: GridSource,
        duration_s: float,
        grid_budget_w: float | None = None,
    ) -> SourceDecision:
        decision = super().decide(
            predicted_renewable_w, predicted_demand_w, battery, grid, duration_s,
            grid_budget_w,
        )
        grid_w = grid.epoch_budget_w(grid_budget_w)
        if not decision.grid_charges_battery and decision.use_battery:
            return decision
        # The base class reached for the grid: cap its share and refuse
        # grid charging.
        grid_share = self.grid_cap_fraction * grid_w
        budget = min(
            predicted_demand_w, predicted_renewable_w + grid_share
        )
        return SourceDecision(
            case=decision.case,
            rack_budget_w=budget,
            use_battery=False,
            grid_charges_battery=False,
            predicted_renewable_w=predicted_renewable_w,
            predicted_demand_w=predicted_demand_w,
        )
