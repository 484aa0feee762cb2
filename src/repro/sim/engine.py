"""The trace-driven simulation engine.

:class:`Simulation` assembles one policy's full stack — rack, solar farm,
battery bank, grid feed, PDU, monitor, adaptive scheduler, controller —
and replays it over the clock's epoch timeline, producing a
:class:`~repro.sim.telemetry.TelemetryLog`.

The engine is where the paper's experimental methodology is encoded:

* the solar farm is sized relative to the rack's maximum draw so the
  High trace is sufficient around midday and insufficient at the edges;
* interactive workloads see the diurnal offered-load pattern, batch and
  HPC workloads saturate;
* Holt predictors are pre-trained on the day of history preceding the
  simulated window ("training the past renewable power generation
  records", Section IV-B.1);
* the battery starts full, exactly as in Section V-B.1.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace
from typing import Any

from repro.core.controller import (
    NO_DIRECTIVES, EpochDirectives, EpochRecord, GreenHeteroController,
)
from repro.core.database import FitKind, ProfilingDatabase
from repro.core.monitor import Monitor
from repro.core.persistence import Field, check, within
from repro.core.policies import Policy
from repro.core.predictor import HoltPredictor
from repro.core.scheduler import AdaptiveScheduler
from repro.errors import ConfigurationError
from repro.obs.tracing import trace
from repro.power.battery import BatteryBank, UnlimitedSupply
from repro.power.grid import GridSource
from repro.power.pdu import PDU
from repro.power.solar import SolarFarm
from repro.servers.rack import Rack
from repro.sim.clock import SimClock
from repro.sim.faults import FaultInjector
from repro.sim.schedule import WorkloadSchedule
from repro.shift.runtime import ShiftRuntime
from repro.sim.telemetry import TelemetryLog
from repro.traces.datacenter_load import DiurnalLoadPattern
from repro.traces.nrel import IrradianceTrace, Weather, synthesize_irradiance
from repro.verify.auditor import AuditContext, InvariantAuditor
from repro.workloads.generator import LoadGenerator
from repro.workloads.models import response_for

#: The shared diurnal shape; frozen, so its cached peak is computed once.
_DIURNAL = DiurnalLoadPattern()


#: A simulation's own checkpointed fields; the rest of its state is one
#: entry per stateful component.
_STATE_FIELDS = {"epoch_index": Field(int, lo=0), "start_s": Field()}


@dataclass
class Simulation:
    """A fully assembled single-policy run.

    Build directly for full control, or through :meth:`assemble` for the
    paper's standard methodology.  :meth:`step` is the one code path
    that executes an epoch, simulated, served or coordinated.
    """

    controller: GreenHeteroController
    clock: SimClock
    load_generator: LoadGenerator
    log: TelemetryLog = field(default_factory=TelemetryLog)
    #: Optional fault schedule applied at every epoch boundary
    #: (see :mod:`repro.sim.faults`).
    faults: "FaultInjector | None" = None
    #: Optional daily workload rotation (see :mod:`repro.sim.schedule`);
    #: phase changes call :meth:`GreenHeteroController.switch_workload`.
    workload_schedule: "WorkloadSchedule | None" = None
    #: Optional temporal-shifting runtime (see :mod:`repro.shift`); when
    #: set, each epoch routes through it so planner decisions gate the
    #: rack's deferrable groups and shift telemetry accrues in
    #: ``shift.log``.
    shift: "ShiftRuntime | None" = None
    #: Remembered assembly knobs so workload switches can rebuild the
    #: offered-load generator consistently.
    diurnal_load: bool = True
    seed: int = 2021
    #: The per-epoch invariant auditor; a non-strict one is built at
    #: construction when omitted (pass one to customize the check suite
    #: or to raise at the first violation).
    auditor: "InvariantAuditor | None" = None
    #: Constrained-supply mode (:meth:`assemble`): rack budgets, cycled.
    rack_budgets_w: "tuple[float, ...] | None" = None
    #: Epochs executed so far (a restored served rack has an empty log).
    epoch_index: int = 0

    def __post_init__(self) -> None:
        if self.auditor is None:
            self.auditor = InvariantAuditor()

    @classmethod
    def assemble(
        cls,
        policy: Policy,
        rack: Rack,
        weather: Weather = Weather.HIGH,
        clock: SimClock | None = None,
        solar_scale: float = 1.4,
        grid_budget_w: float | None = None,
        battery: BatteryBank | None = None,
        diurnal_load: bool = True,
        seed: int = 2021,
        fit_kind: FitKind = FitKind.QUADRATIC,
        trace: IrradianceTrace | None = None,
        supply_fractions: tuple[float, ...] | None = None,
        budget_reference_w: float | None = None,
        strict: bool = False,
        predictors: tuple[HoltPredictor, HoltPredictor] | None = None,
    ) -> "Simulation":
        """Assemble the paper's standard experimental stack.

        Parameters
        ----------
        policy:
            The allocation policy under test.
        rack:
            The heterogeneous rack.
        weather:
            High or Low solar regime (ignored when ``trace`` is given).
        clock:
            Epoch timeline; defaults to a 24-hour run starting one day
            into a one-week trace.
        solar_scale:
            PV clear-sky peak as a multiple of the rack's maximum draw.
        grid_budget_w:
            Grid cap; ``None`` picks 75% of the rack's maximum draw,
            matching the paper's deliberately under-provisioned 1000 W
            for its ~1.3 kW rack.  Mutually exclusive with
            ``supply_fractions`` (which disables the grid).
        battery:
            Battery bank; the paper's 10 x 12 V x 100 Ah default when
            omitted.  Mutually exclusive with ``supply_fractions``
            (which fixes an effectively unlimited bank).
        diurnal_load:
            Whether interactive workloads follow the diurnal pattern.
        seed:
            Master seed for trace synthesis and measurement noise.
        fit_kind:
            Database curve-fit family (quadratic in the paper; linear
            for the ablation).
        supply_fractions:
            Constrained-supply mode (the Section III-B fixed-budget
            methodology): each epoch's rack budget is forced to
            ``fraction * rack hardware envelope`` (capped at the
            workload's demand), cycling through the given fractions.
            The battery is made effectively unlimited and the grid
            disabled, so scarcity comes solely from the budget — this is
            the regime the Fig. 9/10/13/14 comparisons isolate.  The
            envelope reference makes the sweep workload-independent,
            like the paper's fixed testbed: power-hungry workloads are
            shorted deeply, light ones barely.
        strict:
            Raise :class:`~repro.errors.InvariantViolation` at the first
            epoch whose physics accounting fails an invariant audit
            (otherwise violations only count; see :mod:`repro.verify`).
        predictors:
            The (renewable, demand) pair :meth:`pretrained_predictors`
            returns for this rack, clock and trace; the stack runs on
            copies of it.  Built here when omitted.
        """
        if solar_scale <= 0:
            raise ConfigurationError("solar scale must be positive")
        if budget_reference_w is not None and supply_fractions is None:
            raise ConfigurationError(
                "budget_reference_w scales supply_fractions, so without "
                "them it would be silently ignored — set supply_fractions "
                "or budget_reference_w=None"
            )
        if budget_reference_w is not None and not (
            math.isfinite(budget_reference_w) and budget_reference_w > 0
        ):
            raise ConfigurationError(
                f"budget reference must be finite and positive, got {budget_reference_w}"
            )
        clock = clock or SimClock()
        if trace is None:
            trace = cls.default_trace(clock, weather, seed)
        solar = cls._solar_farm(trace, rack, solar_scale)
        if supply_fractions is not None:
            # NaN fails every comparison and inf would read as uncapped.
            if not supply_fractions or not all(
                math.isfinite(f) and f > 0 for f in supply_fractions
            ):
                raise ConfigurationError(
                    f"supply fractions must be finite and positive, got {supply_fractions}"
                )
            if battery is not None or grid_budget_w is not None:
                raise ConfigurationError(
                    "supply_fractions fixes the battery (unlimited) and the "
                    "grid (disabled); a caller-supplied battery or "
                    "grid_budget_w would be silently discarded — drop them "
                    "or drop supply_fractions"
                )
            # Constrained-supply mode: a truly unlimited supply sentinel
            # and no grid — the override below is the only scarcity.  A
            # merely oversized BatteryBank would still hit its DoD floor
            # on long horizons and pollute the cycle telemetry.
            battery = UnlimitedSupply()
            grid = GridSource(budget_w=0.0)
        else:
            battery = battery if battery is not None else BatteryBank()
            budget = grid_budget_w if grid_budget_w is not None else 0.75 * rack.max_draw_w
            grid = GridSource(budget_w=budget)
        pdu = PDU(solar, battery, grid)
        monitor = Monitor(seed=seed + 1)
        if predictors is None:
            predictors = cls.pretrained_predictors(
                rack, clock, trace, solar_scale, diurnal_load
            )
        renewable_predictor, demand_predictor = map(copy.copy, predictors)
        scheduler = AdaptiveScheduler(
            policy, database=ProfilingDatabase(fit_kind=fit_kind),
            renewable_predictor=renewable_predictor,
            demand_predictor=demand_predictor,
        )
        controller = GreenHeteroController(
            rack=rack, pdu=pdu, policy=policy, monitor=monitor,
            scheduler=scheduler, epoch_s=clock.epoch_s,
        )

        generator = cls._build_generator(rack, diurnal_load, seed)

        rack_budgets_w = None
        if supply_fractions is not None:
            reference_w = (
                budget_reference_w if budget_reference_w is not None else rack.envelope_w
            )
            rack_budgets_w = tuple(f * reference_w for f in supply_fractions)

        return cls(
            controller=controller,
            clock=clock,
            load_generator=generator,
            diurnal_load=diurnal_load,
            seed=seed,
            auditor=InvariantAuditor(strict=strict),
            rack_budgets_w=rack_budgets_w,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def default_trace(clock: SimClock, weather: Weather, seed: int) -> IrradianceTrace:
        """The standard irradiance trace for a run on ``clock``.

        Long enough to cover the simulated window plus the pretraining
        history (at least the paper's one-week trace).  Factored out so
        the experiment runner can synthesize it once and share it across
        every policy of a config instead of re-deriving it per policy.
        """
        n_days = max(7.0, (clock.start_s + clock.duration_s) / 86400.0)
        return synthesize_irradiance(days=n_days, weather=weather, seed=seed)

    @staticmethod
    def _solar_farm(trace: IrradianceTrace, rack: Rack, solar_scale: float) -> SolarFarm:
        """The PV array, sized to ``solar_scale`` times the rack's maximum draw."""
        return SolarFarm.sized_for(trace, peak_power_w=solar_scale * rack.max_draw_w)

    @classmethod
    def pretrained_predictors(
        cls,
        rack: Rack,
        clock: SimClock,
        trace: IrradianceTrace,
        solar_scale: float,
        diurnal_load: bool,
    ) -> tuple[HoltPredictor, HoltPredictor]:
        """The (renewable, demand) Holt predictors, fitted (Eq. 5) on the
        records before the clock's window ("the past renewable power
        generation records", Section IV-B.1).

        The records are one day of epochs (at least 8).  They depend on
        the config and not on the policy, so the experiment runner calls
        this once per config and hands the pair to every policy's
        :meth:`assemble`.
        """
        history_times = clock.history_times(
            n_epochs=max(8, int(86400.0 // clock.epoch_s))
        )
        solar = cls._solar_farm(trace, rack, solar_scale)
        renewable_history = [solar.power_at(t) for t in history_times]
        pattern = cls._load_pattern(rack, diurnal_load)
        if pattern is not None and cls._lead_workload(rack).is_interactive:
            demand_history = [rack.demand_at_load(pattern(t)) for t in history_times]
        else:
            demand_history = [rack.demand_at_load(1.0) for _ in history_times]
        return HoltPredictor.fit(renewable_history), HoltPredictor.fit(demand_history)

    # ------------------------------------------------------------------
    @staticmethod
    def _lead_workload(rack: Rack):
        """The workload whose offered load drives the generator.

        The diurnal request stream only exists for interactive services,
        so on co-located racks the lead is the *first interactive* group's
        workload, wherever it sits in PAR order; all-batch racks fall
        back to group 0 (saturating load either way).  When several
        interactive workloads co-locate, the first one's diurnal pattern
        drives them all — `_samples_for_states` balances each workload's
        groups separately against that shared offered fraction.
        """
        for group in rack.groups:
            if group.workload.is_interactive:
                return group.workload
        return rack.groups[0].workload

    @classmethod
    def _load_pattern(cls, rack: Rack, diurnal_load: bool):
        """The lead workload's diurnal offered load, or None when flat.

        Interactive workloads follow the diurnal pattern scaled by their
        typical datacenter utilisation; batch workloads ignore it.
        """
        if not diurnal_load:
            return None
        util = response_for(cls._lead_workload(rack)).utilization_scale
        return lambda t: util * _DIURNAL.at(t)

    @classmethod
    def _build_generator(cls, rack: Rack, diurnal_load: bool, seed: int) -> LoadGenerator:
        """Offered-load generator for the rack's (current) lead workload."""
        return LoadGenerator(
            cls._lead_workload(rack),
            pattern=cls._load_pattern(rack, diurnal_load),
            seed=seed + 2,
        )

    def _apply_schedule(self, time_s: float) -> None:
        """Switch the rack's workload if the schedule's phase changed."""
        if self.workload_schedule is None:
            return
        spec = self.workload_schedule.workload_at(time_s)
        wanted = [spec] * len(self.controller.rack.groups) if isinstance(spec, str) else list(spec)
        current = [g.workload.name for g in self.controller.rack.groups]
        if wanted != current:
            self.controller.switch_workload(spec)
            self.load_generator = self._build_generator(
                self.controller.rack, self.diurnal_load, self.seed
            )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _stateful_components(self) -> dict[str, Any]:
        """Every component whose state changes the trajectory, by name."""
        scheduler = self.controller.scheduler
        components = {
            "database": scheduler.database,
            "renewable_predictor": scheduler.renewable_predictor,
            "demand_predictor": scheduler.demand_predictor,
            "selector": scheduler.selector,
            "monitor": self.controller.monitor,
            "battery": self.controller.pdu.battery,
            "load_generator": self.load_generator,
        }
        if self.shift is not None:
            components["shift"] = self.shift
        return components

    def state_dict(self) -> dict[str, Any]:
        """JSON-ready state from which a freshly assembled twin continues
        this run bit for bit (see DESIGN.md §9).

        Captured only when called; the epoch path never touches it.  The
        telemetry log, the auditor's counters and the solver memo cache
        are not part of it.
        """
        state = {
            name: component.state_dict()
            for name, component in self._stateful_components().items()
        }
        state["epoch_index"] = self.epoch_index
        state["start_s"] = float(self.clock.start_s)
        return state

    def load_state_dict(self, state: dict[str, Any]) -> None:
        """Install a :meth:`state_dict` capture into this simulation.

        The simulation must be assembled like the one that was captured
        (same rack, policy, seeds, schedule, shift runtime or none).  The
        workload schedule is replayed to the last executed epoch first,
        so the rack and its load generator run the captured workload.

        Raises
        ------
        ConfigurationError
            When the components do not match this simulation's, the
            epoch index is negative, or any component rejects its state.
            The simulation is then left as it was before the call.
        """
        v = check(state, _STATE_FIELDS)
        names = sorted(set(state) - set(_STATE_FIELDS))
        expected = sorted(self._stateful_components())
        if names != expected:
            raise ConfigurationError(
                f"state components {names} do not match this simulation's {expected}"
            )
        epoch_index, start_s = v["epoch_index"], v["start_s"]
        # All or nothing: when a component rejects its state, the
        # schedule replay and every component installed before it are
        # rolled back.
        before = self.state_dict()
        live = (self.controller.rack, self.controller.groups, self.load_generator)
        try:
            if epoch_index > 0:
                self._apply_schedule(start_s + (epoch_index - 1) * self.clock.epoch_s)
            for name, component in self._stateful_components().items():
                with within(name):
                    component.load_state_dict(state[name])
        except BaseException:
            self.controller.rack, self.controller.groups, self.load_generator = live
            for name, component in self._stateful_components().items():
                component.load_state_dict(before[name])
            raise
        self.epoch_index = epoch_index
        self.clock = replace(self.clock, start_s=start_s)

    # ------------------------------------------------------------------
    @property
    def clock_s(self) -> float:
        """Timestamp of the next epoch."""
        return self.clock.start_s + self.epoch_index * self.clock.epoch_s

    def run(self) -> TelemetryLog:
        """Execute every remaining epoch on the clock; returns the log.

        Stepping and running share one per-epoch code path: a run is
        exactly ``n_epochs`` calls to :meth:`step`, so a partially
        stepped simulation can be completed with :meth:`run`.
        """
        while self.epoch_index < self.clock.n_epochs:
            self.step()
        return self.log

    @trace("sim.step")
    def step(
        self, load_fraction: float | None = None,
        directives: EpochDirectives = NO_DIRECTIVES,
    ) -> EpochRecord:
        """Execute the next epoch; returns its record (also logged).

        Faults, schedule, SoC capture, offered load (drawn only when
        ``load_fraction`` is None), shift or controller, log, audit.
        A grid fault scales the epoch's grid budget (the caller's share,
        else the provisioned budget) into ``directives``, and
        constrained-supply mode adds its rack budget to them.
        Served racks step past the clock's end; the traces wrap.
        """
        t = self.clock_s
        if self.faults is not None:
            grid_factor = self.faults.apply(self.controller, t)
            grid_w = directives.grid_budget_w
            if grid_w is None:
                grid_w = self.controller.pdu.grid.budget_w
            directives = replace(directives, grid_budget_w=grid_factor * grid_w)
        self._apply_schedule(t)
        # Captured after fault injection so the audit's SoC delta
        # reflects only the epoch's own flows.
        soc_before = self.controller.pdu.battery.soc_wh
        if load_fraction is None:
            load_fraction = self.load_generator.at(t).fraction
        budgets = self.rack_budgets_w
        if budgets is not None and directives.rack_budget_w is None:
            budget = budgets[self.epoch_index % len(budgets)]
            directives = replace(directives, rack_budget_w=budget)
        if self.shift is not None:
            record, directives = self.shift.execute_epoch(
                self.controller, t, load_fraction, directives
            )
        else:
            record = self.controller.run_epoch(t, load_fraction, directives)
        self.epoch_index += 1
        self.log.append(record)
        self.auditor.audit(
            AuditContext(
                record=record,
                controller=self.controller,
                epoch_s=self.clock.epoch_s,
                soc_before_wh=soc_before,
                directives=directives,
            )
        )
        return record
