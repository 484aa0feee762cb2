"""Receding-horizon placement of deferrable jobs (lookahead MPC).

Every epoch the planner rolls the scheduler's Holt predictors forward
``H`` epochs by *forecast chaining* (:func:`chain_forecast`: feed the
predictor its own one-step forecast and repeat), builds a per-epoch
supply picture — renewable headroom left over by interactive traffic,
battery energy above the depth-of-discharge floor, and the grid budget —
and places pending jobs into the epochs that maximize total utility:

    utility(job, epoch) = value
                        + perf_weight * marginal_perf
                        - grid_penalty    * grid_kWh
                        - battery_penalty * battery_kWh

``marginal_perf`` prices the placement through the existing
:class:`~repro.core.solver.PARSolver` against the profiling database:
the projected rack-performance gain of adding the job's power on top of
the batch power already committed in that epoch.  Energy is drawn
renewable-first, then battery, then grid; a placement the grid budget
cannot cover is infeasible.

Two search strategies share the candidate machinery: greedy by utility
density (utility per Wh, re-priced after each commitment) for arbitrary
queues, and an exhaustive assignment enumeration when the candidate
space is small enough to afford it.  A ``no_shift`` policy places every
job at its earliest feasible epoch — the run-immediately baseline the
benchmark compares against.

The exhaustive search is a branch-and-bound that returns exactly the
plan of the full enumeration.  Placing a job at an offset adds at most
``value + perf_weight * n_epochs * P`` minus the least energy penalty
that offset can pay, where ``P = sum_g count_g * max(0, max of
fit_g.raw over [min_power_w, max_power_w])``:

* a marginal performance is at most the with-job solve's
  ``expected_perf``, which is at most ``P``;
* commits only take supply away, so an offset the untouched ledger
  cannot price is infeasible in every branch, and an offset pays at
  least the grid price for the grid energy the untouched ledger quotes
  it and the cheaper of the two prices for its battery energy (the
  constructor rejects negative prices, so penalties never pay out);
* a skip adds ``-value`` for a must-start-now job and zero otherwise.

A job's bound is the largest of these over its options.  A branch is
dropped, before its offset is priced and before the supply ledger is
cloned for it, when its running total plus its own option plus the
bounds of the jobs after it cannot beat the incumbent by more than
``_EPS`` (with a 1e-12 relative float margin).  The enumeration accepts
a leaf only when it beats the incumbent by more than ``_EPS``, and the
incumbent only rises, so a dropped subtree never held an accepted leaf:
the sequence of accepted leaves, and hence the plan, is unchanged.

One caveat: a memo makes a price depend on search history.  The
plan-scoped marginal-performance cache keys on powers rounded to 6
decimals, so the first unrounded power to reach a key fixes its value
for the rest of the plan.  (The solver's own memo keys on the exact
budget, so it returns what a fresh solve would.)  Pruning only removes
visits, so a price can move by what 1e-6 W buys; the differential test
compares placements exactly and floats within 1e-9 relative.

An epoch with nothing pending has no decision to make.  Its plan is the
running jobs' committed draw, capped at the batch capacity, so
:meth:`ShiftPlanner.plan` accepts an :class:`IdleInputs` (those two and
the epoch) in place of :class:`PlanInputs` for an empty queue, and the
runtime skips the lookahead (no forecasts, no solver models, no supply
ledger) on such an epoch.

Only offset-0 placements are executed; the rest of the plan is
re-derived next epoch from fresh forecasts (standard receding-horizon
control), so a renewable dropout injected mid-run simply shows up in
the next replan.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.predictor import HoltPredictor
from repro.core.solver import GroupModel, PARSolver
from repro.errors import ConfigurationError, SolverError
from repro.obs.metrics import REGISTRY as _REGISTRY, ChildCache as _ChildCache
from repro.obs.tracing import trace
from repro.shift.queue import JobQueue, ShiftJob

_EPS = 1e-9

#: Float headroom of the exhaustive search's bound test, relative to the
#: magnitude of the terms summed into a bound.
_PRUNE_REL = 1e-12

_PLANS_TOTAL = _REGISTRY.counter(
    "repro_shift_plans_total",
    "Plans by search strategy (greedy: past the exhaustive limit; empty: none pending)",
    labelnames=("method",),
)
_PLANS = _ChildCache(_PLANS_TOTAL)
_CANDIDATES_TOTAL = _REGISTRY.counter(
    "repro_shift_candidates_total",
    "Candidates priced: (job, offset) placements evaluated against supply",
)
_PLACEMENTS_TOTAL = _REGISTRY.counter(
    "repro_shift_placements_total", "Jobs placed into plan windows"
)
_UNPLACED_TOTAL = _REGISTRY.counter(
    "repro_shift_unplaced_total", "Jobs left unplaced by a plan"
)


def chain_forecast(predictor: Any, horizon: int) -> tuple[float, ...]:
    """Roll ``predictor`` forward ``horizon`` epochs by forecast chaining.

    A clone of the predictor observes its own one-step forecast and
    predicts again, ``horizon`` times.  For Holt's linear method this
    reproduces the direct ``predict(h) = level + h * trend`` ray exactly
    (observing the forecast advances the level by one trend step and
    leaves the trend unchanged), while generalizing to any streaming
    predictor; the original predictor is never mutated.
    """
    if horizon < 1:
        raise ConfigurationError("horizon must be >= 1")
    if isinstance(predictor, HoltPredictor):
        clone = copy.copy(predictor)
        out = []
        for _ in range(horizon):
            forecast = clone.predict(1)
            out.append(forecast)
            clone.observe(forecast)
        return tuple(out)
    # Baseline predictors (persistence, moving average) have no trend to
    # chain; their direct multi-step forecast is the honest equivalent.
    return tuple(float(predictor.predict(h)) for h in range(1, horizon + 1))


@dataclass(frozen=True)
class PlanInputs:
    """Everything one replan needs, as plain per-epoch series.

    All series are indexed by epoch offset from ``time_s`` and must be
    at least ``1`` long; the planner pads shorter series by repeating
    the final entry when a job's duration runs past the forecasts.
    """

    time_s: float
    epoch_s: float
    renewable_w: tuple[float, ...]
    interactive_w: tuple[float, ...]
    #: Batch power already committed per epoch by running jobs (W).
    committed_w: tuple[float, ...]
    #: Rack capacity available to batch groups each epoch (W).
    batch_capacity_w: float
    #: Battery energy above the DoD floor at plan time (Wh).
    battery_usable_wh: float
    battery_max_discharge_w: float
    grid_budget_w: float
    #: Solver models of the rack's deferrable (batch) groups; empty when
    #: the profiling database has no projections yet.
    batch_models: tuple[GroupModel, ...] = ()

    def __post_init__(self) -> None:
        if self.epoch_s <= 0:
            raise ConfigurationError("epoch length must be positive")
        if not self.renewable_w or not self.interactive_w:
            raise ConfigurationError("forecast series must be non-empty")
        for name in ("batch_capacity_w", "battery_usable_wh",
                     "battery_max_discharge_w", "grid_budget_w"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")


@dataclass(frozen=True)
class IdleInputs:
    """What a replan with nothing pending reads.

    That is the epoch, the running jobs' committed draw and the batch
    capacity.  The fields mean what the :class:`PlanInputs` fields of
    the same names mean, and :meth:`ShiftPlanner.plan` turns either into
    the same plan for a queue with no pending job.
    """

    time_s: float
    epoch_s: float
    committed_w: tuple[float, ...]
    batch_capacity_w: float

    def __post_init__(self) -> None:
        if self.epoch_s <= 0:
            raise ConfigurationError("epoch length must be positive")
        if self.batch_capacity_w < 0:
            raise ConfigurationError("batch_capacity_w must be non-negative")


@dataclass(frozen=True)
class Placement:
    """One job scheduled into a concrete epoch window."""

    job_id: str
    start_offset: int
    start_s: float
    n_epochs: int
    power_w: float
    renewable_wh: float
    battery_wh: float
    grid_wh: float
    marginal_perf: float
    utility: float
    #: Grid energy this placement saves versus running the job at its
    #: earliest feasible epoch (the no-shift behaviour); 0 under no_shift.
    grid_avoided_wh: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "start_offset": int(self.start_offset),
            "start_s": float(self.start_s),
            "n_epochs": int(self.n_epochs),
            "power_w": float(self.power_w),
            "renewable_wh": float(self.renewable_wh),
            "battery_wh": float(self.battery_wh),
            "grid_wh": float(self.grid_wh),
            "marginal_perf": float(self.marginal_perf),
            "utility": float(self.utility),
            "grid_avoided_wh": float(self.grid_avoided_wh),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Placement":
        try:
            return cls(
                job_id=str(data["job_id"]),
                start_offset=int(data["start_offset"]),
                start_s=float(data["start_s"]),
                n_epochs=int(data["n_epochs"]),
                power_w=float(data["power_w"]),
                renewable_wh=float(data["renewable_wh"]),
                battery_wh=float(data["battery_wh"]),
                grid_wh=float(data["grid_wh"]),
                marginal_perf=float(data["marginal_perf"]),
                utility=float(data["utility"]),
                grid_avoided_wh=float(data["grid_avoided_wh"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed placement: {exc}") from exc


@dataclass(frozen=True)
class ShiftPlan:
    """The outcome of one replan.

    ``placements`` covers newly placed pending jobs; ``batch_power_w``
    is the resulting total batch draw per horizon epoch including jobs
    that were already running.  Offset-0 placements are the only ones
    the runtime executes — everything else is advisory and re-derived
    next epoch.
    """

    time_s: float
    epoch_s: float
    horizon: int
    policy: str
    method: str
    placements: tuple[Placement, ...]
    batch_power_w: tuple[float, ...]
    unplaced: tuple[str, ...]
    #: ``(job_id, grid_wh)`` for every startable pending job, priced as
    #: if it started *this* epoch against untouched supply.  The runtime
    #: keeps the first such quote per job as the run-immediately
    #: counterfactual its grid-avoided telemetry is measured against.
    start_now_grid_wh: tuple[tuple[str, float], ...] = ()

    def starting_now(self) -> tuple[Placement, ...]:
        return tuple(p for p in self.placements if p.start_offset == 0)

    def to_dict(self) -> dict[str, Any]:
        return {
            "time_s": float(self.time_s),
            "epoch_s": float(self.epoch_s),
            "horizon": int(self.horizon),
            "policy": self.policy,
            "method": self.method,
            "placements": [p.to_dict() for p in self.placements],
            "batch_power_w": [float(v) for v in self.batch_power_w],
            "unplaced": list(self.unplaced),
            "start_now_grid_wh": [
                [job_id, float(grid_wh)]
                for job_id, grid_wh in self.start_now_grid_wh
            ],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ShiftPlan":
        try:
            return cls(
                time_s=float(data["time_s"]),
                epoch_s=float(data["epoch_s"]),
                horizon=int(data["horizon"]),
                policy=str(data["policy"]),
                method=str(data["method"]),
                placements=tuple(
                    Placement.from_dict(p) for p in data["placements"]
                ),
                batch_power_w=tuple(float(v) for v in data["batch_power_w"]),
                unplaced=tuple(str(j) for j in data["unplaced"]),
                start_now_grid_wh=tuple(
                    (str(job_id), float(grid_wh))
                    for job_id, grid_wh in data["start_now_grid_wh"]
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed shift plan: {exc}") from exc


def _pad(series: Sequence[float], span: int) -> list[float]:
    """``series`` floored at zero, cut or extended (last value) to ``span``."""
    padded = [max(0.0, float(v)) for v in series[:span]]
    while len(padded) < span:
        padded.append(padded[-1])
    return padded


class _SupplyState:
    """Mutable per-epoch supply ledger a plan commits placements against.

    Fill order is renewable headroom, then battery (bounded by both the
    remaining usable energy and the per-epoch discharge rate), then the
    grid budget; a placement the grid cannot complete is infeasible.
    """

    def __init__(self, inputs: PlanInputs, span: int) -> None:
        self.epoch_h = inputs.epoch_s / 3600.0
        renewable = _pad(inputs.renewable_w, span)
        interactive = _pad(inputs.interactive_w, span)
        committed = _pad(inputs.committed_w or (0.0,), span)

        self.renewable_free_w = [
            max(0.0, r - i) for r, i in zip(renewable, interactive)
        ]
        self.grid_free_w = [inputs.grid_budget_w] * span
        self.battery_rate_w = [inputs.battery_max_discharge_w] * span
        self.battery_wh = inputs.battery_usable_wh
        self.capacity_w = [inputs.batch_capacity_w] * span

        # Running jobs were admitted by earlier plans; their draw comes
        # off supply and capacity before anything new is considered.
        for h, power in enumerate(committed):
            if power > _EPS:
                alloc = self.price(power, h, 1)
                if alloc is None:
                    # Supply no longer covers them (e.g. a fault hit);
                    # absorb what exists so new placements stay honest.
                    self._drain(power, h)
                else:
                    self.commit(power, h, 1, alloc)

    def clone(self) -> "_SupplyState":
        other = object.__new__(_SupplyState)
        other.epoch_h = self.epoch_h
        other.renewable_free_w = list(self.renewable_free_w)
        other.grid_free_w = list(self.grid_free_w)
        other.battery_rate_w = list(self.battery_rate_w)
        other.battery_wh = self.battery_wh
        other.capacity_w = list(self.capacity_w)
        return other

    def batch_power_at(self, base_capacity_w: float, h: int) -> float:
        return base_capacity_w - self.capacity_w[h]

    def price(
        self, power_w: float, start: int, n_epochs: int
    ) -> tuple[tuple[float, float, float], ...] | None:
        """Source split per epoch for a candidate, or None if infeasible.

        Each entry is ``(renewable_wh, battery_wh, grid_wh)``.  The
        state is not mutated; battery draw is tracked locally so a
        multi-epoch candidate cannot double-spend the pool.
        """
        if start + n_epochs > len(self.capacity_w):
            return None
        split = []
        battery_left = self.battery_wh
        for h in range(start, start + n_epochs):
            if power_w > self.capacity_w[h] + _EPS:
                return None
            need_wh = power_w * self.epoch_h
            ren = min(need_wh, self.renewable_free_w[h] * self.epoch_h)
            need_wh -= ren
            bat = min(
                need_wh, battery_left, self.battery_rate_w[h] * self.epoch_h
            )
            need_wh -= bat
            battery_left -= bat
            grid = min(need_wh, self.grid_free_w[h] * self.epoch_h)
            need_wh -= grid
            if need_wh > _EPS:
                return None
            split.append((ren, bat, grid))
        return tuple(split)

    def commit(
        self,
        power_w: float,
        start: int,
        n_epochs: int,
        split: tuple[tuple[float, float, float], ...],
    ) -> None:
        for h, (ren, bat, grid) in zip(range(start, start + n_epochs), split):
            self.renewable_free_w[h] -= ren / self.epoch_h
            self.battery_rate_w[h] -= bat / self.epoch_h
            self.battery_wh -= bat
            self.grid_free_w[h] -= grid / self.epoch_h
            self.capacity_w[h] = max(0.0, self.capacity_w[h] - power_w)

    def _drain(self, power_w: float, h: int) -> None:
        """Best-effort absorption of an over-committed running job."""
        left_wh = power_w * self.epoch_h
        ren = min(left_wh, self.renewable_free_w[h] * self.epoch_h)
        self.renewable_free_w[h] -= ren / self.epoch_h
        left_wh -= ren
        bat = min(
            left_wh, self.battery_wh, self.battery_rate_w[h] * self.epoch_h
        )
        self.battery_wh -= bat
        self.battery_rate_w[h] -= bat / self.epoch_h
        left_wh -= bat
        grid = min(left_wh, self.grid_free_w[h] * self.epoch_h)
        self.grid_free_w[h] -= grid / self.epoch_h
        self.capacity_w[h] = max(0.0, self.capacity_w[h] - power_w)


@dataclass(frozen=True)
class _PlanJob:
    """A pending job with the constants one plan reads for every candidate."""

    job_id: str
    power_w: float
    energy_wh: float
    value: float
    earliest_start_s: float
    n_epochs: int
    #: Start offsets inside the horizon that respect the job's window.
    offsets: tuple[int, ...]
    #: Whether the job's last feasible start is this epoch.
    must_start_now: bool

    @classmethod
    def of(cls, job: ShiftJob, inputs: PlanInputs, horizon: int) -> "_PlanJob":
        latest_start_s = job.latest_start_s(inputs.epoch_s)
        offsets = []
        for h in range(horizon):
            start_s = inputs.time_s + h * inputs.epoch_s
            if start_s + _EPS < job.earliest_start_s:
                continue
            if start_s > latest_start_s + _EPS:
                break
            offsets.append(h)
        return cls(
            job_id=job.job_id,
            power_w=job.power_w,
            energy_wh=job.energy_wh,
            value=job.value,
            earliest_start_s=job.earliest_start_s,
            n_epochs=job.n_epochs(inputs.epoch_s),
            offsets=tuple(offsets),
            must_start_now=(
                inputs.time_s + inputs.epoch_s > latest_start_s + _EPS
            ),
        )


@dataclass
class _Candidate:
    job: _PlanJob
    offset: int
    split: tuple[tuple[float, float, float], ...]
    marginal_perf: float
    utility: float

    @property
    def density(self) -> float:
        return self.utility / self.job.energy_wh


def _peak_perf(models: tuple[GroupModel, ...]) -> float:
    """``sum_g count_g * max(0, max of fit_g.raw over its power box)``.

    No solve of ``models`` can project more: a solve scores each group
    with ``fit.predict``, which is zero below the box and the clamped,
    non-negative polynomial inside it.  The maximum of the (at most
    quadratic) polynomial over the box is taken at an endpoint or at its
    vertex ``-m / 2l``, clamped into the box.
    """
    total = 0.0
    for model in models:
        fit = model.fit
        lo, hi = fit.min_power_w, fit.max_power_w
        points = [lo, hi]
        if fit.l != 0:
            points.append(min(hi, max(lo, -fit.m / (2 * fit.l))))
        total += model.count * max(0.0, max(fit.raw(p) for p in points))
    return total


class ShiftPlanner:
    """Places deferrable jobs over the lookahead window.

    Parameters
    ----------
    horizon:
        Lookahead window length in epochs (the paper-default 15-min
        epochs make ``8`` a two-hour window).
    policy:
        ``"shift"`` (utility-maximizing) or ``"no_shift"`` (every job at
        its earliest feasible epoch — the baseline).
    grid_penalty_per_kwh / battery_penalty_per_kwh:
        Energy prices in the utility, in units of job value; must be
        non-negative.  The grid penalty dominating the battery penalty
        is what makes deferral into renewable-rich epochs win.
    perf_weight:
        Non-negative weight of the solver-priced marginal performance
        term; small, so it breaks ties between energy-equivalent epochs
        rather than overriding energy costs.
    exhaustive_limit:
        Maximum size of the job->epoch assignment space for which the
        exact enumeration replaces the greedy search.
    solver:
        The :class:`PARSolver` used for marginal-performance pricing;
        a private instance is created when omitted.
    """

    def __init__(
        self,
        horizon: int = 8,
        policy: str = "shift",
        grid_penalty_per_kwh: float = 1.0,
        battery_penalty_per_kwh: float = 0.1,
        perf_weight: float = 1e-6,
        exhaustive_limit: int = 3000,
        solver: PARSolver | None = None,
    ) -> None:
        if horizon < 1:
            raise ConfigurationError("horizon must be >= 1")
        if policy not in ("shift", "no_shift"):
            raise ConfigurationError(f"unknown shift policy {policy!r}")
        if exhaustive_limit < 0:
            raise ConfigurationError("exhaustive_limit must be non-negative")
        # The exhaustive search's bound assumes a placement can never earn
        # more than its value plus its best-case performance term.
        for name, price in (("grid_penalty_per_kwh", grid_penalty_per_kwh),
                            ("battery_penalty_per_kwh", battery_penalty_per_kwh),
                            ("perf_weight", perf_weight)):
            if not price >= 0:
                raise ConfigurationError(f"{name} must be non-negative, got {price}")
        self.horizon = horizon
        self.policy = policy
        self.grid_penalty_per_kwh = grid_penalty_per_kwh
        self.battery_penalty_per_kwh = battery_penalty_per_kwh
        self.perf_weight = perf_weight
        self.exhaustive_limit = exhaustive_limit
        self.solver = solver if solver is not None else PARSolver()
        self._perf_cache: dict[tuple, float] = {}
        #: Candidates priced by the plan in progress.
        self._priced = 0

    # ------------------------------------------------------------------
    @trace("shift.plan")
    def plan(self, queue: JobQueue, inputs: PlanInputs | IdleInputs) -> ShiftPlan:
        """Produce the plan for this epoch.  The queue is not mutated.

        :class:`IdleInputs` suffice when nothing is pending; a queue with
        a pending job needs the full :class:`PlanInputs` lookahead.
        """
        result = self._plan_impl(queue, inputs)
        _PLANS[result.method].inc()
        _CANDIDATES_TOTAL.inc(self._priced)
        if result.placements:
            _PLACEMENTS_TOTAL.inc(len(result.placements))
        if result.unplaced:
            _UNPLACED_TOTAL.inc(len(result.unplaced))
        return result

    def _plan_impl(
        self, queue: JobQueue, inputs: PlanInputs | IdleInputs
    ) -> ShiftPlan:
        self._perf_cache.clear()
        self._priced = 0
        jobs = queue.pending()
        if not jobs:
            return self._empty_plan(inputs)
        if not isinstance(inputs, PlanInputs):
            raise ConfigurationError(
                "a queue with pending jobs needs the full PlanInputs lookahead"
            )
        pending = [_PlanJob.of(j, inputs, self.horizon) for j in jobs]
        span = self.horizon + max((j.n_epochs for j in pending), default=1)
        state = _SupplyState(inputs, span)
        pristine = state.clone()

        # The run-immediately counterfactual: what each startable job's
        # grid draw would be if it started this epoch on untouched
        # supply.  Quoted before any placement commits, so it is the
        # same number a no_shift planner would realize.
        start_now_grid = []
        for job in pending:
            if inputs.time_s + _EPS < job.earliest_start_s:
                continue
            split = pristine.price(job.power_w, 0, job.n_epochs)
            if split is not None:
                start_now_grid.append((job.job_id, sum(s[2] for s in split)))

        if self.policy == "no_shift":
            placements, unplaced = self._plan_no_shift(pending, inputs, state)
            method = "no_shift"
        else:
            n_combos = 1
            for job in pending:
                n_combos *= len(job.offsets) + 1
                if n_combos > self.exhaustive_limit:
                    break
            if pending and n_combos <= self.exhaustive_limit:
                placements, unplaced = self._plan_exhaustive(pending, inputs, state)
                method = "exhaustive"
            else:
                placements, unplaced = self._plan_greedy(pending, inputs, state)
                method = "greedy"
            placements = self._attach_grid_avoided(placements, pending, pristine)

        batch_power = tuple(
            state.batch_power_at(inputs.batch_capacity_w, h)
            for h in range(self.horizon)
        )
        return ShiftPlan(
            time_s=inputs.time_s,
            epoch_s=inputs.epoch_s,
            horizon=self.horizon,
            policy=self.policy,
            method=method,
            placements=tuple(placements),
            batch_power_w=batch_power,
            unplaced=tuple(unplaced),
            start_now_grid_wh=tuple(start_now_grid),
        )

    def _empty_plan(self, inputs: PlanInputs | IdleInputs) -> ShiftPlan:
        """Nothing pending: the running jobs' draw, capped as the ledger caps it."""
        cap = inputs.batch_capacity_w
        batch_power = tuple(
            cap - max(0.0, cap - power) if power > _EPS else 0.0
            for power in _pad(inputs.committed_w or (0.0,), self.horizon)
        )
        return ShiftPlan(
            inputs.time_s, inputs.epoch_s, self.horizon, self.policy, "empty",
            placements=(), batch_power_w=batch_power, unplaced=(),
        )

    # ------------------------------------------------------------------
    # Candidate machinery
    # ------------------------------------------------------------------
    def _marginal_perf(self, base_power_w: float, power_w: float,
                       models: tuple[GroupModel, ...]) -> float:
        if not models:
            return 0.0
        key = (round(base_power_w, 6), round(power_w, 6))
        cached = self._perf_cache.get(key)
        if cached is not None:
            return cached
        try:
            with_job = self.solver.solve(models, base_power_w + power_w)
            without = (
                self.solver.solve(models, base_power_w).expected_perf
                if base_power_w > _EPS
                else 0.0
            )
            marginal = max(0.0, with_job.expected_perf - without)
        except SolverError:
            marginal = 0.0
        self._perf_cache[key] = marginal
        return marginal

    def _evaluate(
        self,
        job: _PlanJob,
        offset: int,
        inputs: PlanInputs,
        state: _SupplyState,
    ) -> _Candidate | None:
        self._priced += 1
        n = job.n_epochs
        split = state.price(job.power_w, offset, n)
        if split is None:
            return None
        battery_wh = sum(s[1] for s in split)
        grid_wh = sum(s[2] for s in split)
        marginal = sum(
            self._marginal_perf(
                state.batch_power_at(inputs.batch_capacity_w, h),
                job.power_w,
                inputs.batch_models,
            )
            for h in range(offset, offset + n)
        )
        utility = (
            job.value
            + self.perf_weight * marginal
            - self.grid_penalty_per_kwh * grid_wh / 1000.0
            - self.battery_penalty_per_kwh * battery_wh / 1000.0
        )
        return _Candidate(job, offset, split, marginal, utility)

    def _to_placement(
        self, cand: _Candidate, inputs: PlanInputs
    ) -> Placement:
        return Placement(
            job_id=cand.job.job_id,
            start_offset=cand.offset,
            start_s=inputs.time_s + cand.offset * inputs.epoch_s,
            n_epochs=cand.job.n_epochs,
            power_w=cand.job.power_w,
            renewable_wh=sum(s[0] for s in cand.split),
            battery_wh=sum(s[1] for s in cand.split),
            grid_wh=sum(s[2] for s in cand.split),
            marginal_perf=cand.marginal_perf,
            utility=cand.utility,
            grid_avoided_wh=0.0,
        )

    @staticmethod
    def _commit(cand: _Candidate, state: _SupplyState) -> None:
        state.commit(cand.job.power_w, cand.offset, cand.job.n_epochs, cand.split)

    # ------------------------------------------------------------------
    # Search strategies
    # ------------------------------------------------------------------
    def _plan_greedy(
        self,
        pending: list[_PlanJob],
        inputs: PlanInputs,
        state: _SupplyState,
    ) -> tuple[list[Placement], list[str]]:
        placements: list[Placement] = []
        open_jobs = list(pending)
        while open_jobs:
            best: _Candidate | None = None
            for job in open_jobs:
                for offset in job.offsets:
                    cand = self._evaluate(job, offset, inputs, state)
                    if cand is None or cand.utility <= 0.0:
                        continue
                    # Strictly-better acceptance over a deterministic
                    # iteration order keeps ties reproducible.
                    if best is None or (
                        cand.density,
                        cand.marginal_perf,
                        -cand.offset,
                    ) > (best.density, best.marginal_perf, -best.offset):
                        best = cand
            if best is None:
                break
            self._commit(best, state)
            placements.append(self._to_placement(best, inputs))
            open_jobs = [j for j in open_jobs if j.job_id != best.job.job_id]

        return self._force_deadline_starts(placements, open_jobs, inputs, state)

    def _force_deadline_starts(
        self,
        placements: list[Placement],
        open_jobs: list[_PlanJob],
        inputs: PlanInputs,
        state: _SupplyState,
    ) -> tuple[list[Placement], list[str]]:
        """Forced pass: a job whose last feasible start is *now* either
        runs at whatever the supply costs, or is missed — deferral is no
        longer an option, so utility does not gate it."""
        still_open = []
        for job in open_jobs:
            if job.must_start_now and 0 in job.offsets:
                cand = self._evaluate(job, 0, inputs, state)
                if cand is not None:
                    self._commit(cand, state)
                    placements.append(self._to_placement(cand, inputs))
                    continue
            still_open.append(job)
        return placements, [j.job_id for j in still_open]

    def _plan_exhaustive(
        self,
        pending: list[_PlanJob],
        inputs: PlanInputs,
        state: _SupplyState,
    ) -> tuple[list[Placement], list[str]]:
        """Exact search over job -> (skip | offset) assignments.

        Assignments are committed in submission order on a cloned supply
        state; skipping a must-start-now job forfeits its value.  The
        first assignment (in enumeration order) achieving the strictly
        best total utility wins, so the result is deterministic.
        """
        best_cands = self._search_exhaustive(pending, inputs, state)
        placements: list[Placement] = []
        skipped: list[_PlanJob] = []
        for job, cand in zip(pending, best_cands):
            if cand is None:
                skipped.append(job)
            else:
                # The search priced each winner against a scratch ledger
                # that saw exactly these commits in this order, and the
                # plan's marginal-perf cache still holds its prices, so
                # committing the priced candidate equals re-pricing it.
                self._commit(cand, state)
                placements.append(self._to_placement(cand, inputs))
        # The enumeration may rationally "skip" a job whose last chance
        # is now (cost > value); the forced pass overrides that, exactly
        # as in the greedy path — a deadline start is not optional.
        return self._force_deadline_starts(placements, skipped, inputs, state)

    def _search_exhaustive(
        self,
        pending: list[_PlanJob],
        inputs: PlanInputs,
        state: _SupplyState,
    ) -> list[_Candidate | None]:
        """The winning assignment (``None`` = skip) of the enumeration.

        Branches that cannot win are pruned by the bound of the module
        docstring, which leaves the winner unchanged.  ``state`` is not
        mutated.
        """
        best_total = -math.inf
        best_cands: list[_Candidate | None] | None = None

        options = self._option_bounds(pending, inputs, state)
        skip = [-j.value if j.must_start_now else 0.0 for j in pending]
        # bound[i]: the most job i can add; rest[i]: the most jobs i.. can
        # add together.
        bound = [max([s, *(b for _, b in opts)]) for s, opts in zip(skip, options)]
        rest = [0.0] * (len(pending) + 1)
        for i in reversed(range(len(pending))):
            rest[i] = rest[i + 1] + bound[i]

        def hopeless(total: float, option: float, after: float) -> bool:
            """Whether no leaf below can beat the incumbent by > _EPS."""
            upper = total + option + after
            headroom = _PRUNE_REL * (abs(total) + abs(option) + abs(after))
            return upper + headroom <= best_total + _EPS

        def recurse(idx: int, scratch: _SupplyState, total: float,
                    chosen: list[_Candidate | None]) -> None:
            nonlocal best_total, best_cands
            if idx == len(pending):
                if total > best_total + _EPS:
                    best_total = total
                    best_cands = list(chosen)
                return
            job = pending[idx]
            after = rest[idx + 1]
            # Option 1: skip (penalized only when the job would be lost).
            if not hopeless(total, skip[idx], after):
                chosen.append(None)
                recurse(idx + 1, scratch, total + skip[idx], chosen)
                chosen.pop()
            # Option 2: each feasible offset.
            for offset, offset_bound in options[idx]:
                if hopeless(total, offset_bound, after):
                    continue
                cand = self._evaluate(job, offset, inputs, scratch)
                if cand is None or hopeless(total, cand.utility, after):
                    continue
                branch = scratch.clone()
                self._commit(cand, branch)
                chosen.append(cand)
                recurse(idx + 1, branch, total + cand.utility, chosen)
                chosen.pop()

        recurse(0, state, 0.0, [])
        return best_cands if best_cands is not None else [None] * len(pending)

    def _option_bounds(
        self,
        pending: list[_PlanJob],
        inputs: PlanInputs,
        state: _SupplyState,
    ) -> list[list[tuple[int, float]]]:
        """``(offset, bound)`` for each offset a job can take in the search.

        Offsets the untouched ``state`` cannot price are left out, and
        each bound is the module docstring's: value plus the best-case
        performance term, less the least energy penalty the offset can
        pay.  That penalty allows for the grid price of
        :meth:`_SupplyState.price`'s per-epoch shortfall tolerance.
        """
        peak = _peak_perf(inputs.batch_models)
        grid_price = self.grid_penalty_per_kwh / 1000.0
        battery_price = (
            min(self.grid_penalty_per_kwh, self.battery_penalty_per_kwh) / 1000.0
        )
        options = []
        for job in pending:
            opts = []
            gain = job.value + self.perf_weight * job.n_epochs * peak
            for offset in job.offsets:
                split = state.price(job.power_w, offset, job.n_epochs)
                if split is None:
                    continue
                penalty = (
                    grid_price * (sum(s[2] for s in split) - job.n_epochs * _EPS)
                    + battery_price * sum(s[1] for s in split)
                )
                # Float headroom for the terms' own rounding.
                slack = _PRUNE_REL * (gain + abs(penalty))
                opts.append((offset, gain - penalty + slack))
            options.append(opts)
        return options

    def _plan_no_shift(
        self,
        pending: list[_PlanJob],
        inputs: PlanInputs,
        state: _SupplyState,
    ) -> tuple[list[Placement], list[str]]:
        placements: list[Placement] = []
        unplaced: list[str] = []
        for job in pending:
            placed = False
            for offset in job.offsets:
                cand = self._evaluate(job, offset, inputs, state)
                if cand is not None:
                    self._commit(cand, state)
                    placements.append(self._to_placement(cand, inputs))
                    placed = True
                    break
            if not placed:
                unplaced.append(job.job_id)
        return placements, unplaced

    @staticmethod
    def _attach_grid_avoided(
        placements: list[Placement],
        pending: list[_PlanJob],
        pristine: _SupplyState,
    ) -> list[Placement]:
        """Annotate each placement with grid energy saved versus running
        the same job at its earliest feasible epoch on the untouched
        supply state (what no-shift would have drawn)."""
        jobs = {j.job_id: j for j in pending}
        out = []
        for placement in placements:
            job = jobs[placement.job_id]
            avoided = 0.0
            if job.offsets:
                baseline = pristine.price(job.power_w, job.offsets[0], job.n_epochs)
                if baseline is not None:
                    baseline_grid = sum(s[2] for s in baseline)
                    avoided = max(0.0, baseline_grid - placement.grid_wh)
            out.append(
                Placement(**{**placement.to_dict(), "grid_avoided_wh": avoided})
            )
        return out
