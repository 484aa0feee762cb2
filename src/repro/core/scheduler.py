"""The Adaptive Scheduler (paper Fig. 5).

The scheduler is the decision core of GreenHetero.  Each epoch it:

1. forecasts next-epoch renewable supply and rack demand with two Holt
   predictors (Eq. 2-4), trained on history (Eq. 5);
2. selects the power sources and the rack power budget (Cases A/B/C);
3. asks the active policy for the allocation plan; and
4. after execution, feeds the epoch's observed samples back into the
   database and re-fits (Algorithm 1, lines 8-10) — when the policy
   enables the optimisation.

The profiling database is the scheduler's :attr:`database`.  The
controller reads it directly for Algorithm 1's training branch (lines
3-5): it trains every (configuration, workload) pair the database has
never seen through :meth:`ProfilingDatabase.ingest_training_run
<repro.core.database.ProfilingDatabase.ingest_training_run>`.

The scheduler is deliberately free of simulation concerns: it consumes
observations and emits decisions, so it could drive real hardware.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.database import PairKey, ProfilingDatabase
from repro.core.policies import (
    AllocationContext,
    AllocationPlan,
    GroupInfo,
    Policy,
)
from repro.core.predictor import HoltPredictor
from repro.core.sources import SourceDecision, SourceSelector
from repro.errors import ConfigurationError
from repro.obs.tracing import trace
from repro.power.battery import BatteryBank
from repro.power.grid import GridSource


class AdaptiveScheduler:
    """Predictor + database + solver-policy + source selection.

    Parameters
    ----------
    policy:
        The allocation policy (any Table III entry).
    database:
        The profiling database; shared with nobody else.
    renewable_predictor / demand_predictor:
        Holt forecasters; fresh defaults are created when omitted.
    selector:
        The Case A/B/C source selector.
    """

    def __init__(
        self,
        policy: Policy,
        database: ProfilingDatabase | None = None,
        renewable_predictor: HoltPredictor | None = None,
        demand_predictor: HoltPredictor | None = None,
        selector: SourceSelector | None = None,
    ) -> None:
        self.policy = policy
        self.database = database if database is not None else ProfilingDatabase()
        self.renewable_predictor = renewable_predictor or HoltPredictor(alpha=0.7, beta=0.2)
        self.demand_predictor = demand_predictor or HoltPredictor(alpha=0.6, beta=0.1)
        self.selector = selector or SourceSelector()

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def observe(self, renewable_w: float, demand_w: float) -> None:
        """Absorb this epoch's metered renewable output and rack demand."""
        self.renewable_predictor.observe(renewable_w)
        self.demand_predictor.observe(demand_w)

    def forecast(self, demand_w: float | None = None) -> tuple[float, float]:
        """(renewable, demand) forecasts for the next epoch.

        A given ``demand_w`` replaces the Holt demand forecast (the shift
        runtime's exact draw for the epochs it gates: the trend-following
        predictor would extrapolate its start/stop steps wildly).

        Raises
        ------
        ConfigurationError
            Before the first observation: pass predictors fitted with
            :meth:`HoltPredictor.fit <repro.core.predictor.HoltPredictor.fit>`,
            or call :meth:`observe` first.
        """
        with trace("scheduler.forecast"):
            if not self.renewable_predictor.ready or not self.demand_predictor.ready:
                raise ConfigurationError(
                    "predictors have no history; pass fitted predictors "
                    "(HoltPredictor.fit) or call observe() first"
                )
            demand_hat = (
                demand_w if demand_w is not None else self.demand_predictor.predict()
            )
            return self.renewable_predictor.predict(), demand_hat

    # ------------------------------------------------------------------
    # Source selection
    # ------------------------------------------------------------------
    def plan_sources(
        self, battery: BatteryBank, grid: GridSource, duration_s: float,
        demand_w: float | None = None, grid_budget_w: float | None = None,
    ) -> SourceDecision:
        """Case A/B/C selection from the forecasts (see :meth:`forecast`)."""
        with trace("scheduler.select"):
            renewable_hat, demand_hat = self.forecast(demand_w)
            return self.selector.decide(
                predicted_renewable_w=renewable_hat,
                predicted_demand_w=demand_hat,
                battery=battery,
                grid=grid,
                duration_s=duration_s,
                grid_budget_w=grid_budget_w,
            )

    # ------------------------------------------------------------------
    # Database feedback (Algorithm 1)
    # ------------------------------------------------------------------
    def feed_back(
        self,
        groups: Sequence[GroupInfo],
        powers: Sequence[Sequence[float]],
        perfs: Sequence[Sequence[float]],
    ) -> None:
        """Algorithm 1 lines 8-10: absorb one epoch's execution feedback and re-fit.

        ``powers[g]`` and ``perfs[g]`` are group ``g``'s metered readings,
        one per substep, every group read at the same substeps.  Each pair
        gets its readings as one block in the order they were read
        (substep by substep, groups in rack order, so groups sharing a
        pair interleave), then one refit.

        No-op when the active policy disables the optimisation
        (GreenHetero-a); a reading with no throughput (sleeping server)
        carries no useful signal and is skipped.
        """
        if not self.policy.updates_database:
            return
        members: dict[PairKey, list[int]] = {}
        for g, group in enumerate(groups):
            members.setdefault(group.key, []).append(g)
        for key, indices in members.items():
            block_powers: list[float] = []
            block_perfs: list[float] = []
            for substep in zip(*(zip(powers[g], perfs[g]) for g in indices)):
                for power_w, perf in substep:
                    if perf <= 0.0:
                        continue
                    block_powers.append(power_w)
                    block_perfs.append(perf)
            if block_perfs:
                self.database.add_samples(key, block_powers, block_perfs)
                self.database.refit(key)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate_plan(
        self,
        budget_w: float,
        groups: Sequence[GroupInfo],
        oracle: Callable[[Sequence[tuple[float, ...]]], Sequence[float]] | None = None,
    ) -> AllocationPlan:
        """Ask the policy for this epoch's full allocation plan."""
        with trace("scheduler.solve"):
            ctx = AllocationContext(
                budget_w=budget_w,
                groups=tuple(groups),
                database=self.database,
                oracle=oracle,
            )
            return self.policy.allocate_plan(ctx)
