"""Per-epoch execution of shift plans against a rack controller.

:class:`ShiftRuntime` owns the job queue and a planner, and wraps the
controller's epoch loop: each epoch it meters interactive demand into
its own Holt predictor, expires unreachable jobs, replans, starts the
placements due now, and gates the rack's deferrable groups to exactly
the planned batch draw via the epoch's per-group cap directive —
interactive groups run uncapped, so foreground traffic never notices.

Gating only engages once a job has been submitted (``activated``): a
rack that never sees a deferrable job behaves exactly as it did before
this subsystem existed, batch groups saturating freely.

Shifting costs nothing until a job is pending: an epoch with an empty
pending queue is *pass-through*.  It builds no lookahead (no forecast
chains, no solver models, no :class:`~repro.shift.planner.PlanInputs`);
the planner turns an :class:`~repro.shift.planner.IdleInputs` of the
running jobs' committed draw and the batch capacity into the same plan
the full inputs would produce.

The runtime's telemetry (:class:`ShiftLog`) is the shift-specific
companion to the controller's :class:`~repro.core.controller.EpochRecord`
stream: per-epoch deferred energy, cumulative deadline misses, and the
grid energy the plan avoided.  All decision state (queue, interactive
predictor, last plan, activation) serializes to JSON for the serve
daemon's checkpoints, and so do the running totals :meth:`summary`
reports; the per-epoch telemetry, like the host's epoch log, does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

from repro.core.controller import (
    NO_DIRECTIVES, EpochDirectives, EpochRecord, GreenHeteroController,
)
from repro.core.persistence import Field, check, within
from repro.core.predictor import HoltPredictor
from repro.core.solver import GroupModel
from repro.shift.planner import (
    IdleInputs, PlanInputs, ShiftPlan, ShiftPlanner, chain_forecast,
)
from repro.shift.queue import JobQueue, JobStatus, ShiftJob

if TYPE_CHECKING:
    from repro.servers.rack import Rack


@dataclass(frozen=True)
class _RackConstants:
    """What the runtime reads of a rack's shape, computed once per rack.

    Faults act on the PDU, never on the rack's curves; a workload switch
    replaces the controller's :class:`Rack`, which is what the cache
    keys on.
    """

    rack: Rack
    interactive: tuple[int, ...]
    #: Full-load draw (W) of each deferrable group by index, in rack
    #: order: the group-cap weights.
    weights: dict[int, float]
    batch_capacity_w: float

    @classmethod
    def of(cls, rack: Rack) -> "_RackConstants":
        weights = {
            i: rack.curve(i).max_draw_w * g.count
            for i, g in enumerate(rack.groups)
            if g.workload.is_deferrable
        }
        return cls(
            rack=rack,
            interactive=tuple(
                i for i in range(len(rack.groups)) if i not in weights
            ),
            weights=weights,
            batch_capacity_w=sum(weights.values()),
        )


@dataclass(frozen=True)
class ShiftEpochRecord:
    """Shift telemetry for one epoch."""

    time_s: float
    #: Total planned batch draw this epoch (W).
    batch_power_w: float
    jobs_started: tuple[str, ...]
    jobs_running: int
    jobs_completed: tuple[str, ...]
    #: Energy of jobs still held back at epoch end (Wh).
    deferred_wh: float
    #: Cumulative deadline misses up to and including this epoch.
    deadline_misses: int
    #: Grid energy the placements started this epoch avoid versus
    #: running at their earliest feasible epoch (Wh).
    grid_avoided_wh: float
    plan_method: str


class ShiftLog:
    """Append-only sequence of :class:`ShiftEpochRecord`."""

    def __init__(self) -> None:
        self.records: list[ShiftEpochRecord] = []

    def append(self, record: ShiftEpochRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def deadline_misses(self) -> int:
        return self.records[-1].deadline_misses if self.records else 0


#: The checkpointed fields of a :class:`ShiftRuntime`; the queue, the
#: interactive predictor and the last plan check their own.
_STATE_FIELDS = {
    "queue": Field(dict), "interactive_predictor": Field(dict), "start_baseline_wh": Field(dict),
    "last_plan": Field(dict, nullable=True), "activated": Field(bool),
    "epochs": Field(int, lo=0), "grid_avoided_wh": Field(lo=0.0),
}


class ShiftRuntime:
    """Binds a :class:`ShiftPlanner` and :class:`JobQueue` to a controller.

    An epoch with no pending job is pass-through: it expires, accounts
    and gates running jobs as usual, but plans from
    :class:`~repro.shift.planner.IdleInputs` without building a
    lookahead, so its cost does not depend on the horizon.  The plan,
    the telemetry and the checkpoint equal the full path's.

    Parameters
    ----------
    planner:
        The placement planner; a default ``shift``-policy planner with
        horizon 8 is created when omitted.
    """

    def __init__(self, planner: ShiftPlanner | None = None) -> None:
        self.planner = planner if planner is not None else ShiftPlanner()
        self.queue = JobQueue()
        self.log = ShiftLog()
        self.last_plan: ShiftPlan | None = None
        #: Gating engages only after the first submission, so racks that
        #: never see deferrable jobs keep their pre-shift behaviour.
        self.activated = False
        # Interactive-only demand forecaster: the scheduler's demand
        # predictor tracks the *whole* rack (including gated batch
        # groups), which would make the reserve circular.
        self._interactive_predictor = HoltPredictor(alpha=0.6, beta=0.1)
        # First run-immediately grid quote seen per pending job (Wh):
        # the counterfactual each job's grid-avoided telemetry compares
        # its eventual placement against.  Dropped once the job starts
        # or misses its deadline; jobs are never preempted, so a started
        # job is never quoted again.
        self._start_baseline_wh: dict[str, float] = {}
        #: Running totals of :meth:`execute_epoch` calls and of the grid
        #: energy their placements avoided (Wh), kept across restores.
        self.epochs = 0
        self.grid_avoided_wh = 0.0
        self._constants: _RackConstants | None = None

    # ------------------------------------------------------------------
    # Queue front door
    # ------------------------------------------------------------------
    def submit(self, job: ShiftJob) -> None:
        self.queue.submit(job)
        self.activated = True

    # ------------------------------------------------------------------
    # Rack introspection
    # ------------------------------------------------------------------
    def deferrable_indices(self, controller: GreenHeteroController) -> list[int]:
        return list(self._rack_constants(controller).weights)

    def _rack_constants(self, controller: GreenHeteroController) -> _RackConstants:
        constants = self._constants
        if constants is None or constants.rack is not controller.rack:
            constants = self._constants = _RackConstants.of(controller.rack)
        return constants

    def _interactive_demand(
        self, controller: GreenHeteroController, load_fraction: float
    ) -> float:
        demands = controller.rack.group_demands_at_load(load_fraction)
        return sum(demands[i] for i in self._rack_constants(controller).interactive)

    def batch_capacity_w(self, controller: GreenHeteroController) -> float:
        return self._rack_constants(controller).batch_capacity_w

    def _batch_models(
        self, controller: GreenHeteroController
    ) -> tuple[GroupModel, ...]:
        """Solver models for deferrable groups the database has profiled."""
        database = controller.scheduler.database
        models = []
        for i in self._rack_constants(controller).weights:
            group = controller.rack.groups[i]
            if group.key in database:
                models.append(
                    GroupModel(
                        name=group.spec.name,
                        count=group.count,
                        fit=database.projection(group.key),
                    )
                )
        return tuple(models)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _forecast_interactive(
        self, controller: GreenHeteroController, fallback_w: float
    ) -> tuple[float, ...]:
        horizon = self.planner.horizon
        if self._interactive_predictor.ready:
            return chain_forecast(self._interactive_predictor, horizon)
        return (fallback_w,) * horizon

    def _forecast_renewable(
        self, controller: GreenHeteroController, time_s: float
    ) -> tuple[float, ...]:
        predictor = controller.scheduler.renewable_predictor
        if getattr(predictor, "ready", False):
            return chain_forecast(predictor, self.planner.horizon)
        current = max(0.0, controller.pdu.renewable.power_at(time_s))
        return (current,) * self.planner.horizon

    def _committed_w(self, epoch_s: float) -> tuple[float, ...]:
        committed = [0.0] * self.planner.horizon
        for job in self.queue.running():
            remaining = job.n_epochs(epoch_s) - self.queue.epochs_run(job.job_id)
            for h in range(min(remaining, self.planner.horizon)):
                committed[h] += job.power_w
        return tuple(committed)

    def plan_inputs(
        self,
        controller: GreenHeteroController,
        time_s: float,
        interactive_now_w: float,
        grid_budget_w: float | None = None,
    ) -> PlanInputs:
        epoch_s = controller.epoch_s
        return PlanInputs(
            time_s=time_s,
            epoch_s=epoch_s,
            renewable_w=self._forecast_renewable(controller, time_s),
            interactive_w=self._forecast_interactive(controller, interactive_now_w),
            committed_w=self._committed_w(epoch_s),
            batch_capacity_w=self.batch_capacity_w(controller),
            battery_usable_wh=controller.pdu.battery.usable_wh,
            battery_max_discharge_w=controller.pdu.battery.max_discharge_w,
            grid_budget_w=controller.pdu.grid.epoch_budget_w(grid_budget_w),
            batch_models=self._batch_models(controller),
        )

    def _plan(
        self,
        controller: GreenHeteroController,
        time_s: float,
        interactive_now_w: float,
        grid_budget_w: float | None = None,
    ) -> ShiftPlan:
        """This epoch's plan; pass-through when nothing is pending."""
        inputs: PlanInputs | IdleInputs
        if not self.queue.pending():
            epoch_s = controller.epoch_s
            inputs = IdleInputs(
                time_s, epoch_s, self._committed_w(epoch_s),
                self.batch_capacity_w(controller),
            )
        else:
            inputs = self.plan_inputs(
                controller, time_s, interactive_now_w, grid_budget_w
            )
        plan = self.planner.plan(self.queue, inputs)
        self.last_plan = plan
        return plan

    def plan_now(
        self, controller: GreenHeteroController, time_s: float
    ) -> ShiftPlan:
        """Replan without executing (the serve daemon's ``plan`` verb).

        Uses the controller's *current* metered state; the queue is not
        advanced, so repeated calls at the same instant are identical.
        """
        interactive_now = self._interactive_demand(controller, 1.0)
        return self._plan(controller, time_s, interactive_now)

    # ------------------------------------------------------------------
    # Epoch execution
    # ------------------------------------------------------------------
    def execute_epoch(
        self, controller: GreenHeteroController, time_s: float,
        load_fraction: float = 1.0, directives: EpochDirectives = NO_DIRECTIVES,
    ) -> tuple[EpochRecord, EpochDirectives]:
        """Run one epoch: expire, replan, gate, execute, account.

        Once a job was submitted, the gating caps and exact demand join
        the caller's ``directives`` (whose grid share the plan uses).
        Returns the record and the directives the controller ran under;
        shift telemetry lands in :attr:`log`.
        """
        epoch_s = controller.epoch_s
        interactive_now = self._interactive_demand(controller, load_fraction)
        self._interactive_predictor.observe(interactive_now)

        for job_id in self.queue.expire(time_s, epoch_s):
            self._start_baseline_wh.pop(job_id, None)
        plan = self._plan(
            controller, time_s, interactive_now, directives.grid_budget_w
        )

        for job_id, quote_wh in plan.start_now_grid_wh:
            self._start_baseline_wh.setdefault(job_id, quote_wh)

        started: list[str] = []
        grid_avoided = 0.0
        for placement in plan.starting_now():
            self.queue.mark_running(placement.job_id, time_s)
            started.append(placement.job_id)
            baseline = self._start_baseline_wh.pop(
                placement.job_id, placement.grid_wh
            )
            grid_avoided += max(0.0, baseline - placement.grid_wh)

        running = self.queue.running()
        batch_power = sum(j.power_w for j in running)

        if self.activated:
            # The source selector budgets the rack from the demand
            # forecast, but the Holt predictor extrapolates the step
            # changes our gating imposes into nonsense (a job stopping
            # reads as a plunging trend).  We know this epoch's demand
            # exactly: the interactive estimate plus the planned draw.
            directives = replace(
                directives,
                group_caps_w=self._group_caps(controller, batch_power),
                demand_w=interactive_now + batch_power,
            )
        record = controller.run_epoch(time_s, load_fraction, directives)

        completed: list[str] = []
        for job in running:
            self.queue.advance(job.job_id, epoch_s, time_s + epoch_s)
            if self.queue.status(job.job_id) == JobStatus.DONE:
                completed.append(job.job_id)

        self.log.append(
            ShiftEpochRecord(
                time_s=time_s,
                batch_power_w=batch_power,
                jobs_started=tuple(started),
                jobs_running=len(running),
                jobs_completed=tuple(completed),
                deferred_wh=self.queue.backlog_wh(),
                deadline_misses=self.queue.counts()[JobStatus.MISSED],
                grid_avoided_wh=grid_avoided,
                plan_method=plan.method,
            )
        )
        self.epochs += 1
        self.grid_avoided_wh += grid_avoided
        return record, directives

    def _group_caps(
        self, controller: GreenHeteroController, batch_power_w: float
    ) -> tuple[float, ...]:
        """Per-group caps: interactive uncapped, deferrable share the
        planned batch draw proportionally to their full-load capacity."""
        constants = self._rack_constants(controller)
        weights = constants.weights
        total = constants.batch_capacity_w
        caps = []
        for i in range(len(controller.rack.groups)):
            if i not in weights:
                caps.append(math.inf)
            elif total <= 0:
                caps.append(0.0)
            else:
                caps.append(batch_power_w * weights[i] / total)
        return tuple(caps)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        return {
            "queue": self.queue.state_dict(),
            "interactive_predictor": self._interactive_predictor.state_dict(),
            "last_plan": None if self.last_plan is None else self.last_plan.to_dict(),
            "activated": self.activated,
            "start_baseline_wh": dict(self._start_baseline_wh),
            "epochs": self.epochs,
            "grid_avoided_wh": self.grid_avoided_wh,
        }

    def load_state_dict(self, state: dict[str, Any]) -> None:
        v = check(state, _STATE_FIELDS)
        with within("queue"):
            self.queue.load_state_dict(v["queue"])
        with within("interactive_predictor"):
            self._interactive_predictor.load_state_dict(v["interactive_predictor"])
        with within("last_plan"):
            last_plan = None if v["last_plan"] is None else ShiftPlan.from_dict(v["last_plan"])
        baseline = v["start_baseline_wh"]
        self._start_baseline_wh = check(
            baseline, dict.fromkeys(baseline, Field()), "start_baseline_wh"
        )
        self.last_plan = last_plan
        self.activated = v["activated"]
        self.epochs = v["epochs"]
        self.grid_avoided_wh = v["grid_avoided_wh"]

    # ------------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """Queue and telemetry roll-up for status endpoints and benches."""
        counts = self.queue.counts()
        return {
            "activated": self.activated,
            "jobs": counts,
            "backlog_wh": self.queue.backlog_wh(),
            "deadline_misses": counts[JobStatus.MISSED],
            "grid_avoided_wh": self.grid_avoided_wh,
            "epochs": self.epochs,
            "last_plan_method": (
                self.last_plan.method if self.last_plan is not None else None
            ),
        }
