"""Serving state: hosted rack controllers and their checkpoints.

A :class:`RackHost` wraps one rack's :class:`~repro.sim.engine.Simulation`
for long-lived operation — its epochs (unbounded: the irradiance trace
wraps) run through :meth:`Simulation.step` — and answers the daemon's
queries (allocate / forecast / status).  :class:`ServeState` assembles
and owns a fleet of hosts — optionally coordinated through the existing
:class:`~repro.core.cluster.ClusterCoordinator` when a shared grid
budget is configured — and implements checkpoint/restore.  A rack's
checkpoint is its simulation's :meth:`~repro.sim.engine.Simulation.state_dict`,
so a restored rack continues the trajectory it would have followed
without the restart, epoch for epoch.

A fleet checkpoint is one plain JSON document, ``checkpoint.json``:
the config, the cluster epoch counter and every rack's state, written
by one :func:`~repro.core.persistence.write_document` call.  Its rename
is the only commit point, so a crash mid-checkpoint restores exactly the
previous generation or the new one, never a mix of racks from both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core.cluster import ClusterCoordinator, GridSplit
from repro.core.controller import EpochRecord
from repro.core.persistence import (
    Field, check, check_rows, dataclass_fields, read_document, within, write_document,
)
from repro.core.policies import make_policy
from repro.errors import ConfigurationError
from repro.servers.rack import Rack
from repro.sim.clock import SimClock
from repro.sim.engine import Simulation
from repro.shift.planner import ShiftPlanner
from repro.shift.queue import ShiftJob
from repro.shift.runtime import ShiftRuntime
from repro.sim.telemetry import record_to_dict
from repro.traces.nrel import Weather
from repro.units import EPOCH_SECONDS

#: The fleet checkpoint document inside the checkpoint directory.
CHECKPOINT_NAME = "checkpoint.json"


@dataclass(frozen=True)
class ServeConfig:
    """Everything needed to (re)assemble the served fleet.

    The config is persisted into the checkpoint so a restart can
    rebuild identical stacks before restoring their state.

    Attributes
    ----------
    platforms:
        ``(platform, count)`` rack groups, shared by every rack.
    workload:
        Workload name run by every group.
    policy:
        Allocation policy name (any Table III entry or extension).
    n_racks:
        How many identical racks to host (seeded ``seed + i``).
    weather:
        Solar regime for the replayed irradiance traces.
    seed:
        Master seed; rack ``i`` uses ``seed + i``.
    shared_grid_w:
        When set, a :class:`ClusterCoordinator` re-divides this shared
        grid budget across the racks every cluster epoch.
    epoch_s:
        Scheduling epoch length (paper: 15 minutes).
    shift_horizon:
        Lookahead window (epochs) of each rack's temporal-shifting
        planner (the ``submit``/``plan`` verbs).
    """

    platforms: tuple[tuple[str, int], ...] = (("E5-2620", 5), ("i5-4460", 5))
    workload: str = "SPECjbb"
    policy: str = "GreenHetero"
    n_racks: int = 1
    weather: Weather = Weather.HIGH
    seed: int = 2021
    shared_grid_w: float | None = None
    epoch_s: float = EPOCH_SECONDS
    shift_horizon: int = 8

    def __post_init__(self) -> None:
        v = check(self.to_dict(), _CONFIG_FIELDS)
        if v["epoch_s"] <= 0:
            raise ConfigurationError(f"epoch_s must be positive, got {self.epoch_s}")
        # Normalized to float so a persisted-and-reloaded config
        # serializes byte-identically to the original.
        object.__setattr__(self, "epoch_s", v["epoch_s"])

    def to_dict(self) -> dict[str, Any]:
        return {
            "platforms": [list(group) for group in self.platforms],
            "workload": self.workload,
            "policy": self.policy,
            "n_racks": self.n_racks,
            "weather": self.weather.name,
            "seed": self.seed,
            "shared_grid_w": self.shared_grid_w,
            "epoch_s": self.epoch_s,
            "shift_horizon": self.shift_horizon,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ServeConfig":
        """Rebuild a config from :meth:`to_dict` output; a coerced ``2.7``
        or ``true`` would restore a differently sized fleet."""
        v = check(data, _CONFIG_FIELDS)
        return cls(**{
            **v,
            "platforms": tuple(check_rows(v["platforms"], _GROUP_FIELDS, "platforms")),
            "weather": Weather[v["weather"]],
        })


#: A config's fields, checked on construction and on load: scalars from
#: the annotations, the rest declared.
_CONFIG_FIELDS = dataclass_fields(
    ServeConfig,
    platforms=Field(list),
    n_racks=Field(int, lo=1),
    weather=Field(str, choices=tuple(Weather.__members__)),
    seed=Field(int, lo=0),
    shared_grid_w=Field(lo=0.0, nullable=True),
    shift_horizon=Field(int, lo=1),
)
_GROUP_FIELDS = {"platform": Field(str), "count": Field(int)}


class RackHost:
    """One long-lived rack behind the serving API.

    Parameters
    ----------
    name:
        Rack identifier used in requests and checkpoints.
    sim:
        The rack's simulation (predictors primed), with the shift runtime
        that serves the ``submit``/``plan`` verbs and gates its epochs.
    """

    def __init__(self, name: str, sim: Simulation) -> None:
        self.name = name
        self.sim = sim
        self.controller = sim.controller
        self.shift = sim.shift

    # ------------------------------------------------------------------
    @property
    def clock_s(self) -> float:
        """Timestamp of the rack's next epoch."""
        return self.sim.clock_s

    @property
    def solver(self):
        """The policy's PAR solver, or ``None`` for non-solver policies."""
        return getattr(self.controller.policy, "solver", None)

    # ------------------------------------------------------------------
    # Queries (called on the daemon's event-loop thread, one at a time)
    # ------------------------------------------------------------------
    def allocate(self, budget_w: float | None = None) -> dict[str, Any]:
        """Solve the PAR program for ``budget_w`` (or the planned budget).

        Runs any pending training runs first, so the very first query
        against a cold database succeeds the way Algorithm 1 specifies.
        """
        self.controller.ensure_profiled()
        if budget_w is None:
            budget_w = self.plan_budget_w()
        if not (math.isfinite(budget_w) and budget_w >= 0):
            raise ConfigurationError(
                f"budget_w must be finite and non-negative, got {budget_w}"
            )
        plan = self.controller.scheduler.allocate_plan(
            budget_w, self.controller.groups
        )
        return {
            "rack": self.name,
            "budget_w": budget_w,
            "groups": [g.name for g in self.controller.groups],
            "ratios": list(plan.ratios),
            "group_budgets_w": [r * budget_w for r in plan.ratios],
            "powered_counts": (
                None if plan.powered_counts is None else list(plan.powered_counts)
            ),
            "projected_perf": plan.projected_perf,
        }

    def _source_decision(self):
        pdu = self.controller.pdu
        return self.controller.scheduler.plan_sources(
            pdu.battery, pdu.grid, self.controller.epoch_s
        )

    def plan_budget_w(self) -> float:
        """The budget the source selector would grant right now."""
        return self._source_decision().rack_budget_w

    def forecast(self) -> dict[str, Any]:
        """Next-epoch supply/demand forecast and the source decision."""
        # The decision carries the forecasts it was made from verbatim.
        decision = self._source_decision()
        return {
            "rack": self.name,
            "renewable_w": decision.predicted_renewable_w,
            "demand_w": decision.predicted_demand_w,
            "case": decision.case.value,
            "budget_w": decision.rack_budget_w,
        }

    def observe(self, renewable_w: float, demand_w: float) -> dict[str, Any]:
        """Ingest one pushed telemetry observation; returns the new forecast."""
        # A NaN would stick in the predictors' level and trend for good and
        # make the rack's next checkpoint unrestorable.
        if not all(math.isfinite(v) and v >= 0 for v in (renewable_w, demand_w)):
            raise ConfigurationError("observations must be finite and non-negative")
        self.controller.scheduler.observe(renewable_w, demand_w)
        return self.forecast()

    def step(self, load_fraction: float | None = None) -> EpochRecord:
        """Execute one full scheduling epoch through :meth:`Simulation.step`.

        Epochs route through the shift runtime, so submitted deferrable
        jobs gate the rack's batch groups per the current plan; with no
        submissions ever made the runtime is pass-through.
        """
        return self.sim.step(load_fraction)

    # ------------------------------------------------------------------
    # Temporal shifting (the submit / plan / queue-status verbs)
    # ------------------------------------------------------------------
    def submit(self, job_document: dict[str, Any]) -> dict[str, Any]:
        """Enqueue one deferrable job; returns the queue snapshot.

        Raises
        ------
        ConfigurationError
            When the rack has no deferrable groups to run the job on, or
            the job document is malformed / a duplicate.
        """
        if not self.shift.deferrable_indices(self.controller):
            raise ConfigurationError(
                f"rack {self.name!r} has no deferrable groups; its "
                "workloads are all interactive"
            )
        job = ShiftJob.from_dict(job_document)
        self.shift.submit(job)
        return self.queue_status()

    def plan(self) -> dict[str, Any]:
        """Replan against current state without executing an epoch.

        Pure with respect to the queue and clock: repeated calls at the
        same instant return identical plans.
        """
        plan = self.shift.plan_now(self.controller, self.clock_s)
        return {"rack": self.name, "plan": plan.to_dict()}

    def queue_status(self) -> dict[str, Any]:
        """The shift queue and telemetry roll-up for this rack."""
        return {
            "rack": self.name,
            "clock_s": self.clock_s,
            **self.shift.summary(),
        }

    def cache_info(self) -> dict[str, Any]:
        """Solver memoization health for serving dashboards."""
        solver = self.solver
        info: dict[str, Any] = {"rack": self.name}
        if solver is None:
            info["solver_cache"] = None
        else:
            info["solver_cache"] = solver.cache_info()
        return info

    def status(self) -> dict[str, Any]:
        """Operational snapshot of this rack."""
        controller = self.controller
        database = controller.scheduler.database
        return {
            "rack": self.name,
            "policy": controller.policy.name,
            "groups": [
                {"platform": g.name, "count": g.count}
                for g in controller.groups
            ],
            "workload": controller.rack.groups[0].workload.name,
            "epochs": self.sim.epoch_index,
            "clock_s": self.clock_s,
            "battery_soc_wh": controller.pdu.battery.soc_wh,
            "battery_soc_fraction": controller.pdu.battery.soc_fraction,
            "grid_budget_w": controller.pdu.grid.budget_w,
            "database_pairs": len(database),
            "predictors_ready": controller.scheduler.renewable_predictor.ready,
            "shift": self.shift.summary(),
            "audit": self.sim.auditor.summary(),
            **self.cache_info(),
        }


class ServeState:
    """The daemon's full fleet: named rack hosts plus optional coordination.

    Build with :meth:`ServeState.build`, which assembles each rack with
    the paper's standard methodology (:meth:`Simulation.assemble`) and —
    when the checkpoint directory holds a checkpoint — restores every
    rack's simulation state, so each continues where it stopped.
    """

    def __init__(
        self,
        config: ServeConfig,
        racks: dict[str, RackHost],
        coordinator: ClusterCoordinator | None = None,
        checkpoint_dir: str | Path | None = None,
    ) -> None:
        if not racks:
            raise ConfigurationError("a serve state needs at least one rack")
        self.config = config
        self.racks = racks
        self.coordinator = coordinator
        self.checkpoint_dir = None if checkpoint_dir is None else Path(checkpoint_dir)
        self.restored = False
        self.cluster_epochs = 0

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        config: ServeConfig | None = None,
        checkpoint_dir: str | Path | None = None,
    ) -> "ServeState":
        """Assemble the fleet; restore from ``checkpoint_dir`` if present.

        When ``checkpoint_dir`` contains a checkpoint, its persisted
        config *replaces* the given one (a checkpoint names the exact
        deployment it belongs to) and every rack's simulation state is
        restored.  A directory in the retired per-rack layout (a
        ``manifest.json``) is rejected rather than booted cold.
        """
        document: dict[str, Any] | None = None
        if checkpoint_dir is not None:
            path = Path(checkpoint_dir) / CHECKPOINT_NAME
            if path.exists():
                document = read_document(path, "fleet checkpoint")
                with within("config"):
                    config = ServeConfig.from_dict(document.get("config"))
            elif (path.parent / "manifest.json").exists():
                raise ConfigurationError(
                    f"{path.parent} holds the retired per-rack checkpoint "
                    f"layout; this build reads only {CHECKPOINT_NAME}"
                )
        if config is None:
            config = ServeConfig()

        racks: dict[str, RackHost] = {}
        for i in range(config.n_racks):
            name = f"rack{i}"
            # One policy instance per rack: each rack owns its solver and
            # its memoization cache, so one rack's queries never evict
            # another's solutions.
            sim = Simulation.assemble(
                policy=make_policy(config.policy),
                rack=Rack(list(config.platforms), config.workload),
                weather=config.weather,
                clock=SimClock(epoch_s=config.epoch_s),
                seed=config.seed + i,
            )
            sim.shift = ShiftRuntime(ShiftPlanner(horizon=config.shift_horizon))
            host = RackHost(name, sim)
            # Pay the training-run cost up front so the first allocation
            # query is served from a warm database.
            host.controller.ensure_profiled()
            racks[name] = host

        coordinator = None
        if config.shared_grid_w is not None:
            coordinator = ClusterCoordinator(
                [host.sim for host in racks.values()],
                config.shared_grid_w,
                split=GridSplit.SHORTFALL,
            )

        state = cls(
            config=config,
            racks=racks,
            coordinator=coordinator,
            checkpoint_dir=checkpoint_dir,
        )
        if document is not None:
            state._restore(document)
        return state

    # ------------------------------------------------------------------
    # Rack access
    # ------------------------------------------------------------------
    def rack(self, name: str) -> RackHost:
        host = self.racks.get(name)
        if host is None:
            raise ConfigurationError(
                f"unknown rack {name!r}; serving {sorted(self.racks)}"
            )
        return host

    def rack_names(self) -> list[str]:
        return list(self.racks)

    # ------------------------------------------------------------------
    # Cluster stepping
    # ------------------------------------------------------------------
    def step_cluster(
        self, load_fractions: list[float] | None = None
    ) -> list[EpochRecord]:
        """One coordinated epoch across every rack.

        Requires a shared grid budget (``config.shared_grid_w``); the
        coordinator re-divides it and steps every rack's simulation with
        its share.  ``load_fractions`` defaults to each rack's own
        offered-load draw.
        """
        if self.coordinator is None:
            raise ConfigurationError(
                "no shared grid budget configured; step racks individually"
            )
        records = self.coordinator.run_epoch(load_fractions)
        self.cluster_epochs += 1
        return records

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self) -> Path:
        """Write the full fleet state; returns the checkpoint directory.

        Raises
        ------
        ConfigurationError
            When no checkpoint directory was configured.
        """
        if self.checkpoint_dir is None:
            raise ConfigurationError("no checkpoint directory configured")
        document = {
            "config": self.config.to_dict(),
            "cluster_epochs": self.cluster_epochs,
            "racks": {n: h.sim.state_dict() for n, h in self.racks.items()},
        }
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        write_document(self.checkpoint_dir / CHECKPOINT_NAME, document)
        return self.checkpoint_dir

    def _restore(self, document: dict[str, Any]) -> None:
        """Install every rack's checkpointed state into the assembled fleet."""
        v = check(document, {"cluster_epochs": Field(int, lo=0), "racks": Field(dict)})
        names = sorted(v["racks"])
        if names != sorted(self.racks):
            raise ConfigurationError(
                f"checkpoint racks {names} do not match the "
                f"assembled fleet {sorted(self.racks)}"
            )
        for name, state in v["racks"].items():
            with within(f"racks.{name}"):
                self.racks[name].sim.load_state_dict(state)
        self.cluster_epochs = v["cluster_epochs"]
        self.restored = True

    # ------------------------------------------------------------------
    # Aggregate views
    # ------------------------------------------------------------------
    def status(self) -> dict[str, Any]:
        """Fleet-wide operational snapshot."""
        return {
            "racks": {name: host.status() for name, host in self.racks.items()},
            "n_racks": len(self.racks),
            "policy": self.config.policy,
            "workload": self.config.workload,
            "coordinated": self.coordinator is not None,
            "shared_grid_w": self.config.shared_grid_w,
            "cluster_epochs": self.cluster_epochs,
            "restored": self.restored,
            "checkpoint_dir": (
                None if self.checkpoint_dir is None else str(self.checkpoint_dir)
            ),
        }

    def cache_stats(self) -> dict[str, Any]:
        """Solver memoization counters for every rack."""
        return {
            "racks": {name: host.cache_info() for name, host in self.racks.items()}
        }

    def epoch_event(self, host: RackHost, record: EpochRecord) -> dict[str, Any]:
        """One JSONL audit-stream event for an executed epoch.

        The epoch telemetry in :func:`record_to_dict` form plus the
        rack's solver cache counters, so serving dashboards can watch
        memoization health directly from the event stream.
        """
        return {
            "event": "epoch",
            "rack": host.name,
            "epoch_index": host.sim.epoch_index - 1,
            **record_to_dict(record),
            **host.cache_info(),
        }
