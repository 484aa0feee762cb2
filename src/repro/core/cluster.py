"""Cluster-level coordination across racks (the paper's future work).

GreenHetero deploys one controller per rack, and the paper notes the
cost: "the renewable power and energy storage systems for each rack ...
are independent and cannot share their capacities" (Section IV-A), with
cross-rack coordination left as future work.  This module implements the
natural next step: a :class:`ClusterCoordinator` that owns a *shared*
grid budget and re-divides it across racks every epoch, stepping each
rack's :class:`~repro.sim.engine.Simulation` with its share as the
``grid_budget_w`` directive.

Two division strategies are provided:

``GridSplit.EQUAL``
    Every rack gets the same share — the cluster-level analogue of the
    Uniform policy, blind to how starved each rack is.

``GridSplit.SHORTFALL``
    Each rack's share is proportional to its predicted *green shortfall*
    (demand minus renewable minus battery capability, floored at zero) —
    heterogeneity-awareness one level up: racks whose green supply
    covers them cede grid budget to racks in the dark.

The ablation bench quantifies the gap between the two, mirroring the
paper's rack-level result at cluster scale.

Under either split a lone rack's share is the shared budget itself, no
share is negative, and the shares never sum past the shared budget,
whether summed exactly or in rack order: a proportional share rounds to
nearest, so every share steps down one ulp until they fit.
"""

from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING

from repro.core.controller import EpochDirectives, EpochRecord, GreenHeteroController
from repro.errors import ConfigurationError, PowerError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulation


class GridSplit(enum.Enum):
    """How the shared grid budget is divided across racks."""

    EQUAL = "equal"
    SHORTFALL = "shortfall"


class ClusterCoordinator:
    """Steps several racks against one shared grid budget.

    Parameters
    ----------
    sims:
        One :class:`~repro.sim.engine.Simulation` per rack, on a shared
        epoch timeline.  Each rack keeps its own solar feed and battery
        (the distributed design of Fig. 2); only the grid is shared.
    shared_grid_budget_w:
        Total grid power available to the cluster at any instant.
    split:
        Division strategy applied at the start of every epoch.
    """

    def __init__(
        self,
        sims: list[Simulation],
        shared_grid_budget_w: float,
        split: GridSplit = GridSplit.SHORTFALL,
    ) -> None:
        if not sims:
            raise ConfigurationError("a cluster needs at least one rack")
        if not (math.isfinite(shared_grid_budget_w) and shared_grid_budget_w >= 0):
            raise PowerError(
                "shared grid budget must be finite and non-negative, "
                f"got {shared_grid_budget_w}"
            )
        self.sims = list(sims)
        self.shared_grid_budget_w = shared_grid_budget_w
        self.split = split

    # ------------------------------------------------------------------
    def _predicted_shortfall_w(self, controller: GreenHeteroController, time_s: float) -> float:
        """Green shortfall forecast for one rack (>= 0 W).

        Uses the rack's own Holt forecasts when primed, falling back to
        current metered values on the very first epoch.
        """
        scheduler = controller.scheduler
        if scheduler.renewable_predictor.ready and scheduler.demand_predictor.ready:
            renewable, demand = scheduler.forecast()
        else:
            renewable = controller.pdu.renewable.power_at(time_s)
            demand = controller.rack.demand_at_load(1.0)
        battery_power = controller.pdu.battery.max_discharge_power_w(controller.epoch_s)
        return max(0.0, demand - renewable - battery_power)

    def grid_shares_w(self, time_s: float) -> list[float]:
        """This epoch's per-rack grid budgets under the active strategy."""
        budget = self.shared_grid_budget_w
        n = len(self.sims)
        if n == 1:
            return [budget]
        shares = [budget / n] * n
        if self.split is GridSplit.SHORTFALL:
            shortfalls = [
                self._predicted_shortfall_w(sim.controller, time_s) for sim in self.sims
            ]
            total = sum(shortfalls)
            if total > 0.0:
                shares = [budget * s / total for s in shortfalls]
        while math.fsum(shares) > budget or sum(shares) > budget:
            shares = [math.nextafter(s, 0.0) for s in shares]
        return shares

    # ------------------------------------------------------------------
    def run_epoch(
        self, load_fractions: list[float | None] | None = None
    ) -> list[EpochRecord]:
        """Divide the grid from the forecasts, then step every rack.

        ``load_fractions`` gives per-rack offered load; ``None`` lets a
        rack draw its own.
        """
        if load_fractions is None:
            load_fractions = [None] * len(self.sims)
        if len(load_fractions) != len(self.sims):
            raise ConfigurationError("need one load fraction per rack")
        shares = self.grid_shares_w(self.sims[0].clock_s)
        return [
            sim.step(load, EpochDirectives(grid_budget_w=share))
            for sim, share, load in zip(self.sims, shares, load_fractions, strict=True)
        ]

    # ------------------------------------------------------------------
    def aggregate_throughput(self, records: list[EpochRecord]) -> float:
        """Cluster throughput for one epoch's records."""
        if len(records) != len(self.sims):
            raise ConfigurationError("records must match the rack list")
        return sum(r.throughput for r in records)
