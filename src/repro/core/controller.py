"""The GreenHetero Controller (paper Fig. 4): Monitor + Scheduler + Enforcer.

One controller instance manages one rack and its power tree, exactly as
the paper deploys it ("the GreenHetero Controller at the rack level in a
distributed deployment", Section IV-A).  Each call to :meth:`run_epoch`
executes one 15-minute scheduling epoch:

1. meter renewable output and rack demand (Monitor);
2. run a training run for any (configuration, workload) pair the
   database has never seen (Algorithm 1, lines 3-5);
3. forecast next-epoch supply/demand and select power sources
   (Cases A/B/C);
4. obtain the PAR vector from the active policy and enforce it — each
   group's share split evenly over its powered servers and mapped to one
   DVFS state for the group (SPC);
5. execute the epoch in 2.5-minute sub-steps, metering (power, perf)
   samples, flowing energy through the PDU, and accounting EPU;
6. feed execution samples back into the database and re-fit when the
   policy enables the runtime optimisation (Algorithm 1, lines 8-10).

The returned :class:`EpochRecord` carries everything the telemetry layer
and the paper's figures need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.enforcer import PowerSourceController, ServerPowerController
from repro.core.monitor import Monitor
from repro.core.policies import GroupInfo, Policy
from repro.core.scheduler import AdaptiveScheduler
from repro.core.sources import PowerCase, SourceDecision
from repro.errors import ConfigurationError
from repro.obs.tracing import trace
from repro.power.pdu import PDU
from repro.power.sources import ChargeSource
from repro.servers.rack import Rack
from repro.units import EPOCH_SECONDS

if TYPE_CHECKING:
    from repro.servers.dvfs import PowerState

#: Sub-steps per epoch; 15 min / 6 = 2.5 min, matching the paper's
#: ~2-minute profiling cadence.
N_SUBSTEPS = 6

#: Power levels sampled during a training run.  The ~10-minute training
#: run yields a handful of samples (one every 2 minutes).
TRAINING_SAMPLES = 5

#: Fraction of the DVFS ladder the training run's lowest sample reaches.
#: The training run executes under the *ondemand* governor at full load
#: (Section IV-B.2), so the sampled operating points cluster in the upper
#: half of the frequency range — the initial fit extrapolates below that,
#: which is exactly the inaccuracy the online update (GreenHetero vs
#: GreenHetero-a) exists to repair.
TRAINING_LADDER_FLOOR = 0.5


@dataclass(frozen=True)
class EpochDirectives:
    """One epoch's caller-imposed inputs to :meth:`GreenHeteroController.run_epoch`.

    ``None`` means no directive.  Nothing is written to a component, so
    nothing is restored after the epoch.
    """

    #: Per-group caps (W; ``math.inf`` = uncapped) on the metered demand
    #: and the enforced group budgets (shift gating).
    group_caps_w: tuple[float, ...] | None = None
    #: Demand source selection plans for, not the Holt forecast (shift).
    demand_w: float | None = None
    #: Fixed rack budget, applied as ``min(rack_budget_w, metered demand)``
    #: with source dynamics bypassed (constrained supply).
    rack_budget_w: float | None = None
    #: Grid budget in place of the provisioned one (a cluster share).
    grid_budget_w: float | None = None


#: The default: no per-epoch directive at all.
NO_DIRECTIVES = EpochDirectives()


@dataclass(frozen=True)
class EpochRecord:
    """Telemetry for one scheduling epoch.

    Power values are epoch-mean watts; throughput is the epoch-mean
    aggregate rack performance in the workload's metric.
    """

    time_s: float
    case: PowerCase
    budget_w: float
    demand_w: float
    renewable_w: float
    load_fraction: float
    ratios: tuple[float, ...]
    group_budgets_w: tuple[float, ...]
    state_indices: tuple[int, ...]
    throughput: float
    epu: float
    useful_power_w: float
    renewable_to_load_w: float
    battery_to_load_w: float
    grid_to_load_w: float
    charge_w: float
    charge_source: ChargeSource
    battery_soc_wh: float
    curtailed_w: float
    trained_pairs: tuple[tuple[str, str], ...]
    brownout: bool
    #: Epoch-mean of the Monitor's per-substep renewable meter readings —
    #: the value the predictor feedback consumes (``renewable_w`` is the
    #: noise-free mean).  Defaults to 0.0 for records built by hand.
    renewable_metered_w: float = 0.0
    #: Servers powered per group (the partial-group extension); ``None``
    #: means all servers shared their group's budget.
    powered_counts: tuple[int, ...] | None = None
    #: The database-projected performance of the chosen allocation
    #: (solver policies only); compare against ``throughput`` to measure
    #: projection quality.
    projected_perf: float | None = None


class GreenHeteroController:
    """Rack-level controller binding a policy to a rack and its PDU.

    Parameters
    ----------
    rack:
        The heterogeneous rack to manage.
    pdu:
        The rack's power tree (solar + battery + grid).
    policy:
        Any Table III policy.
    monitor:
        Sensing layer; a default seeded Monitor is created when omitted.
    scheduler:
        The adaptive scheduler; constructed around ``policy`` by default.
        A given scheduler must hold ``policy`` itself, which
        :attr:`policy` reads back.
    epoch_s:
        Scheduling epoch length (paper: 15 minutes).
    """

    def __init__(
        self,
        rack: Rack,
        pdu: PDU,
        policy: Policy,
        monitor: Monitor | None = None,
        scheduler: AdaptiveScheduler | None = None,
        epoch_s: float = EPOCH_SECONDS,
    ) -> None:
        if not (math.isfinite(epoch_s) and epoch_s > 0):
            raise ConfigurationError(
                f"epoch length must be finite and positive, got {epoch_s}"
            )
        if scheduler is not None and scheduler.policy is not policy:
            raise ConfigurationError("the scheduler must hold the controller's policy")
        self.rack = rack
        self.pdu = pdu
        self.monitor = monitor or Monitor()
        self.scheduler = scheduler or AdaptiveScheduler(policy)
        self.psc = PowerSourceController(pdu)
        self.epoch_s = epoch_s
        self.groups = tuple(
            GroupInfo(name=g.spec.name, count=g.count, key=g.key) for g in rack.groups
        )

    @property
    def policy(self) -> Policy:
        """The allocation policy, as held by the scheduler."""
        return self.scheduler.policy

    # ------------------------------------------------------------------
    # Workload switching (Algorithm 1's arrival path over time)
    # ------------------------------------------------------------------
    def switch_workload(self, workload) -> None:
        """Swap the rack's workload(s) at an epoch boundary.

        The database persists across switches — it holds projections for
        "all workloads and server configurations it has ever executed"
        (Section IV-B.2) — so returning to a previously-seen workload
        skips the training run, while a new (platform, workload) pair
        triggers one at the next epoch (Algorithm 1, line 3).

        Parameters
        ----------
        workload:
            A workload name/object shared by all groups, or a list with
            one entry per group (co-location).
        """
        self.rack = Rack(
            [(g.spec.name, g.count) for g in self.rack.groups], workload
        )
        self.groups = tuple(
            GroupInfo(name=g.spec.name, count=g.count, key=g.key)
            for g in self.rack.groups
        )

    # ------------------------------------------------------------------
    # Training run (Algorithm 1, lines 4-5)
    # ------------------------------------------------------------------
    def _training_run(self, group_index: int) -> None:
        """Profile one group across its DVFS ladder and seed the database.

        The paper's training run executes the workload under the
        ondemand governor with ample power for ~10 minutes, logging a
        (power, perf) sample every 2 minutes; at full load the governor
        keeps to the upper frequency range, so we sample
        :data:`TRAINING_SAMPLES` states from the top half of the ladder
        (the initial fit must extrapolate below — see
        :data:`TRAINING_LADDER_FLOOR`).
        """
        curve = self.rack.curve(group_index)
        states = curve.states.active_states
        lo = TRAINING_LADDER_FLOOR * (len(states) - 1)
        picks = np.unique(
            np.linspace(lo, len(states) - 1, TRAINING_SAMPLES).round().astype(int)
        )
        samples = [
            self.monitor.observe_server(
                curve.sample_at_state(states[int(idx)], load_fraction=1.0)
            )
            for idx in picks
        ]
        self.scheduler.database.ingest_training_run(
            self.groups[group_index].key, curve.idle_power_w, samples
        )

    def ensure_profiled(self) -> tuple[tuple[str, str], ...]:
        """Run training runs for every pair the database has never seen.

        Algorithm 1, line 3, factored out of the epoch loop so a serving
        deployment (:mod:`repro.serve`) can answer allocation queries
        before its first epoch executes.  No-op for policies that do not
        consult the database.  Returns the pairs that were trained.
        """
        if not self.policy.uses_database:
            return ()
        with trace("scheduler.profile"):
            database = self.scheduler.database
            # A rack's platforms are distinct, so each missing pair is one group.
            missing = [i for i, g in enumerate(self.groups) if g.key not in database]
            for i in missing:
                self._training_run(i)
            return tuple(self.groups[i].key for i in missing)

    # ------------------------------------------------------------------
    # Epoch execution
    # ------------------------------------------------------------------
    def _capped_demand(
        self, load_fraction: float, caps: tuple[float, ...] | None
    ) -> float:
        """Rack demand with the per-group caps applied."""
        demands = self.rack.group_demands_at_load(load_fraction)
        if caps is None:
            return sum(demands)
        if len(caps) != len(demands):
            raise ConfigurationError(
                f"group_caps_w has {len(caps)} entries for {len(demands)} groups"
            )
        return sum(min(d, cap) for d, cap in zip(demands, caps))

    @trace("controller.epoch")
    def run_epoch(
        self, time_s: float, load_fraction: float = 1.0,
        directives: EpochDirectives = NO_DIRECTIVES,
    ) -> EpochRecord:
        """Execute one scheduling epoch starting at ``time_s``."""
        if not 0.0 <= load_fraction <= 1.0:
            raise ConfigurationError("load fraction must be in [0, 1]")
        caps = directives.group_caps_w

        demand_now = self.monitor.observe_demand(self._capped_demand(load_fraction, caps))
        renewable_w = self.pdu.renewable.power_at(time_s)
        renewable_now = self.monitor.observe_renewable(renewable_w)
        if not self.scheduler.renewable_predictor.ready:
            # First epoch with no history: seed the predictors with the
            # current metered values so a forecast exists.
            self.scheduler.observe(renewable_now, demand_now)

        # Algorithm 1, line 3: unseen pairs trigger a training run.
        trained = self.ensure_profiled()

        decision = self.scheduler.plan_sources(
            self.pdu.battery, self.pdu.grid, self.epoch_s,
            demand_w=directives.demand_w, grid_budget_w=directives.grid_budget_w,
        )
        if directives.rack_budget_w is not None:
            decision = replace(
                decision,
                case=PowerCase.B,
                rack_budget_w=min(directives.rack_budget_w, demand_now),
                use_battery=True,
                grid_charges_battery=False,
            )
        budget_w = decision.rack_budget_w

        oracle = self._make_oracle(budget_w, load_fraction) if self.policy.requires_oracle else None
        plan = self.scheduler.allocate_plan(budget_w, self.groups, oracle)
        ratios = plan.ratios
        group_budgets = tuple(r * budget_w for r in ratios)
        if caps is not None:
            group_budgets = tuple(
                min(b, cap) for b, cap in zip(group_budgets, caps)
            )
            ratios = tuple(
                b / budget_w if budget_w > 0 else 0.0 for b in group_budgets
            )
        states = ServerPowerController.apply(
            self.rack, group_budgets, plan.powered_counts
        )

        record = self._execute_substeps(
            time_s, load_fraction, decision, budget_w, ratios, group_budgets,
            states, trained, plan.powered_counts,
            plan.projected_perf, directives.grid_budget_w, renewable_w,
        )

        # End-of-epoch observation feeds the next forecast.  Each substep
        # was metered exactly once inside `_execute_substeps`; feeding the
        # mean of those readings avoids jittering an already-averaged
        # value a second time.
        self.scheduler.observe(record.renewable_metered_w, demand_now)
        return record

    # ------------------------------------------------------------------
    # Rack execution with load balancing
    # ------------------------------------------------------------------
    def _effective_counts(self, powered_counts: tuple[int, ...] | None) -> list[int]:
        """Servers actually executing per group this epoch."""
        if powered_counts is None:
            return [g.count for g in self.rack.groups]
        return list(powered_counts)

    def _samples_for_states(self, states, load_fraction: float, counts=None):
        """One noise-free sample per group at the given power states.

        Batch/HPC workloads saturate every powered server.  Interactive
        workloads see the rack's offered request rate, which a load
        balancer routes proportionally to each server's SLO-compliant
        capacity — so load from powered-down servers is absorbed by the
        survivors when they have headroom (this is what bounds the gains
        on low-utilisation services like Memcached).  Mixed racks are
        supported: balancing happens within each interactive workload's
        groups; batch groups are independent.
        """
        n = len(self.rack.groups)
        if counts is None:
            counts = [g.count for g in self.rack.groups]
        curves = [self.rack.curve(g) for g in range(n)]
        samples: list = [None] * n
        interactive_groups: dict[str, list[int]] = {}
        for g, group in enumerate(self.rack.groups):
            if group.workload.is_interactive:
                interactive_groups.setdefault(group.workload.name, []).append(g)
            else:
                samples[g] = curves[g].serve(states[g], math.inf)
        for indices in interactive_groups.values():
            caps = {g: curves[g].deliverable_capacity(states[g]) for g in indices}
            total_cap = sum(caps[g] * counts[g] for g in indices)
            # Offered load is sized against the rack's nominal capacity
            # (all servers) — powering fewer servers does not shrink the
            # request stream, only the capacity serving it.
            offered = load_fraction * sum(
                curves[g].max_throughput * self.rack.groups[g].count for g in indices
            )
            frac = 1.0 if total_cap <= 0 else min(1.0, offered / total_cap)
            for g in indices:
                samples[g] = curves[g].serve(states[g], caps[g] * frac)
        return samples

    def _rack_throughput(self, states, load_fraction: float) -> float:
        """Noise-free aggregate rack throughput with every server at ``states``."""
        samples = self._samples_for_states(states, load_fraction)
        return sum(
            group.count * sample.throughput
            for group, sample in zip(self.rack.groups, samples)
        )

    def _make_oracle(self, budget_w: float, load_fraction: float):
        """The Manual policy's physical trial runs: enforce, run, meter.

        The oracle takes every trial's PAR vector at once and returns
        each trial's measured rack throughput, in order.  Like the
        paper's physical trials, the measurements carry the Monitor's
        throughput noise.  Trials differ only in each group's share, and
        at Manual's 10% steps a group sees at most 11 shares, so each
        share is mapped to its power state once per epoch (the same
        ``share * budget_w / count`` the SPC would be handed); many
        compositions then land on the same power states, so the
        noise-free throughput is computed once per state tuple.  The
        trials are metered as one batch, from one noise draw, which
        reads as metering each trial on its own in trial order.
        """
        groups = self.rack.groups
        curves = [self.rack.curve(i) for i in range(len(groups))]
        tables: list[dict[float, PowerState]] = [{} for _ in groups]
        rack_perf: dict[tuple[int, ...], float] = {}

        def measure(trials: Sequence[tuple[float, ...]]) -> list[float]:
            perfs = []
            for ratios in trials:
                states = []
                for table, share, curve, group in zip(tables, ratios, curves, groups):
                    state = table.get(share)
                    if state is None:
                        state = table[share] = curve.state_for_budget(
                            share * budget_w / group.count
                        )
                    states.append(state)
                key = tuple(state.index for state in states)
                perf = rack_perf.get(key)
                if perf is None:
                    perf = rack_perf[key] = self._rack_throughput(states, load_fraction)
                perfs.append(perf)
            return self.monitor.observe_throughputs(perfs)

        return measure

    def _execute_substeps(
        self,
        time_s: float,
        load_fraction: float,
        decision: SourceDecision,
        budget_w: float,
        ratios: tuple[float, ...],
        group_budgets: tuple[float, ...],
        states: tuple[PowerState, ...],
        trained: tuple[tuple[str, str], ...],
        powered_counts: tuple[int, ...] | None,
        projected_perf: float | None,
        grid_budget_w: float | None,
        renewable_now_w: float,
    ) -> EpochRecord:
        """Run the epoch's substeps in one pass (DESIGN.md §14).

        ``states`` holds the power state the SPC enforced on each group's
        powered servers.  States, load and counts hold for the whole
        epoch, so the rack physics is computed once; the PDU serves every
        substep in one call, the meters read every substep from one noise
        draw, and each pair gets its readings as one feedback block.
        """
        effective = self._effective_counts(powered_counts)
        samples = self._samples_for_states(states, load_fraction, effective)
        draw_total = 0.0
        perf_total = 0.0
        useful_total = 0.0
        for count, sample in zip(effective, samples):
            draw_total += count * sample.power_w
            perf_total += count * sample.throughput
            if sample.throughput > 0.0:
                useful_total += count * sample.power_w * sample.utilization

        flows = self.psc.apply(
            decision, draw_total, time_s, self.epoch_s / N_SUBSTEPS,
            grid_budget_w, N_SUBSTEPS, renewable_now_w,
        )
        # The PV sensor is read once per substep, like every other meter;
        # the epoch aggregate is the mean of those readings.
        powers, perfs, renewables = self.monitor.observe_epoch(
            samples, flows.interval_renewable_w
        )
        self.scheduler.feed_back(self.groups, powers, perfs)

        # One substep at a time from 0.0, not sum(): Python 3.12's sum()
        # compensates float rounding, and the means must not depend on
        # the Python version.
        perf_sum = 0.0
        useful_sum = 0.0
        metered_renewable_sum = 0.0
        brownout = False
        for delivered_w, metered_w in zip(flows.interval_delivered_w, renewables):
            perf = perf_total
            useful = useful_total
            if delivered_w < draw_total - 1e-6:
                # Sources under-delivered against the plan (forecast
                # error): the rack browns out proportionally.
                scale = delivered_w / draw_total if draw_total > 0 else 0.0
                perf *= scale
                useful *= scale
                brownout = True
            perf_sum += perf
            useful_sum += useful
            metered_renewable_sum += metered_w

        n = float(N_SUBSTEPS)
        useful_mean = useful_sum / n
        epu = 0.0 if budget_w <= 0 else min(useful_mean / budget_w, 1.0)
        breakdown = flows.breakdown
        return EpochRecord(
            time_s=time_s,
            case=decision.case,
            budget_w=budget_w,
            demand_w=decision.predicted_demand_w,
            renewable_w=flows.renewable_available_w,
            load_fraction=load_fraction,
            ratios=ratios,
            group_budgets_w=group_budgets,
            state_indices=tuple(state.index for state in states),
            throughput=perf_sum / n,
            epu=epu,
            useful_power_w=useful_mean,
            renewable_to_load_w=breakdown.renewable_to_load_w,
            battery_to_load_w=breakdown.battery_to_load_w,
            grid_to_load_w=breakdown.grid_to_load_w,
            charge_w=breakdown.charge_w,
            charge_source=breakdown.charge_source,
            battery_soc_wh=flows.battery_soc_wh,
            curtailed_w=flows.curtailed_w,
            trained_pairs=trained,
            brownout=brownout,
            renewable_metered_w=metered_renewable_sum / n,
            powered_counts=powered_counts,
            projected_perf=projected_perf,
        )
