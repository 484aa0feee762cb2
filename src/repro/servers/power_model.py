"""Ground-truth power-to-performance response surfaces.

This module is the simulated stand-in for the paper's *physical servers +
external power meter*.  For a (platform, workload) pair it answers: if the
Server Power Controller enforces power state ``s`` and the offered load is
``x``, what throughput does the server produce and how many watts does it
actually draw?

The model composes four pieces, each anchored in measurable behaviour:

1. **Capacity vs frequency** — throughput scales as
   ``(f / f_base) ** a`` with the workload's frequency sensitivity ``a``
   (compute-bound near 1, memory/network-bound well below).
2. **Power vs frequency** — wall power follows the DVFS ladder's
   CMOS-style ``f**2.4`` dynamic term on top of idle power
   (:mod:`repro.servers.dvfs`).
3. **Latency SLO** — interactive workloads only count throughput that
   meets the tail-latency bound (:mod:`repro.workloads.slo`).
4. **Utilisation feedback** — a partially loaded server draws less than
   its full-load cap; we use the standard linear utilisation-power model
   with a 35% activity floor.

Together these give a perf-vs-allocated-power curve that is zero below
idle power, concave in the operating range, and flat beyond the
workload's maximum draw — precisely the shape GreenHetero's quadratic
database fit presumes (Section IV-B.3).

The GreenHetero controller must never call the oracle methods directly;
it sees only the noisy samples the Monitor reports.  The oracle
(`perf_at_power`) exists for the Manual baseline (which measures every
allocation on real hardware in the paper) and for analysis plots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.epu import effective_power_utilization
from repro.errors import ConfigurationError, IncompatibleWorkloadError, PowerError
from repro.servers.dvfs import PowerState, PowerStateSet
from repro.servers.platform import ServerSpec
from repro.workloads.catalog import Workload, get_workload
from repro.workloads.models import WorkloadResponse, response_for
from repro.workloads.slo import slo_constrained_throughput

#: Fraction of a state's dynamic power drawn by a completely idle-but-
#: powered core complex (clock/uncore activity floor).
ACTIVITY_FLOOR = 0.35


@dataclass(frozen=True)
class ServerSample:
    """One observed (power, performance) operating point.

    Attributes
    ----------
    power_w:
        Wall power actually drawn (W).
    throughput:
        Delivered SLO-compliant throughput (workload metric units).
    state_index:
        Index of the enforced power state.
    utilization:
        Served fraction of the state's compute capacity, in [0, 1].
        Batch workloads saturate (1.0); interactive servers run at the
        offered load.  EPU weighs drawn power by this — power a server
        burns beyond what its served throughput needs is not "directly
        used to generate workload throughput" (Eq. 1).
    """

    power_w: float
    throughput: float
    state_index: int
    utilization: float = 1.0


class ResponseCurve:
    """Ground truth for one (platform, workload) pair.

    Parameters
    ----------
    spec:
        Server platform.
    workload:
        Catalog entry or name.

    Raises
    ------
    IncompatibleWorkloadError
        If the workload cannot run on this device class.
    """

    def __init__(self, spec: ServerSpec, workload: Workload | str) -> None:
        self.spec = spec
        self.workload = get_workload(workload.name if isinstance(workload, Workload) else workload)
        self.response: WorkloadResponse = response_for(self.workload)
        if not self.response.runs_on(spec):
            raise IncompatibleWorkloadError(
                f"{self.workload.name!r} cannot run on {spec.name} "
                f"({spec.device_class.value})"
            )
        self.states = PowerStateSet(spec)
        self._t_max = self.response.max_throughput(spec)
        # Full-load wall draw of each state *for this workload*: the SPC's
        # power-to-state mapping is workload-aware (the Decision Output
        # component maps power values to frequency levels using the
        # profiled power limits, Section IV-B.4).
        self._state_draws = [
            self._draw(state, utilization=1.0) if state.active else state.power_cap_w
            for state in self.states
        ]

    # ------------------------------------------------------------------
    # Envelope properties
    # ------------------------------------------------------------------
    @property
    def max_throughput(self) -> float:
        """Throughput at full frequency and full load (metric units)."""
        return self._t_max

    @property
    def max_draw_w(self) -> float:
        """Maximum wall power this workload draws on this platform (W)."""
        return self._draw(self.states.active_states[-1], utilization=1.0)

    @property
    def idle_power_w(self) -> float:
        """Platform idle power (W); allocations below it yield nothing."""
        return self.spec.idle_power_w

    @property
    def peak_efficiency(self) -> float:
        """Throughput per watt at the workload's maximum draw."""
        return self.max_throughput / self.max_draw_w

    # ------------------------------------------------------------------
    # Physics
    # ------------------------------------------------------------------
    def _capacity(self, state: PowerState) -> float:
        """Raw service capacity at ``state`` (ops/s), before the SLO."""
        if not state.active:
            return 0.0
        rel = state.frequency_hz / self.spec.base_frequency_hz
        return self._t_max * rel**self.response.frequency_sensitivity

    def _draw(self, state: PowerState, utilization: float) -> float:
        """Wall power drawn at ``state`` and ``utilization`` (W)."""
        if not state.active:
            return state.power_cap_w  # 0 for OFF, sleep power for SLEEP
        dyn_cap = state.power_cap_w - self.spec.idle_power_w
        activity = ACTIVITY_FLOOR + (1.0 - ACTIVITY_FLOOR) * utilization
        return (
            self.spec.idle_power_w
            + self.response.power_intensity * activity * dyn_cap
        )

    def deliverable_capacity(self, state: PowerState) -> float:
        """SLO-compliant serving capacity at ``state`` (ops/s).

        For batch workloads this is the raw compute capacity; for
        interactive workloads the tail-latency headroom is subtracted.
        A rack-level load balancer routes requests against exactly this
        quantity.
        """
        if not state.active:
            return 0.0
        return slo_constrained_throughput(self._capacity(state), self.workload.slo)

    def serve(self, state: PowerState, offered_ops: float) -> ServerSample:
        """Run the server at ``state`` with an absolute offered rate.

        Parameters
        ----------
        state:
            The power state the SPC enforces.
        offered_ops:
            Request rate routed to this server (ops/s); ``math.inf``
            saturates it (batch execution).

        Returns
        -------
        ServerSample
            Noise-free throughput and wall power; the Monitor adds
            measurement noise.
        """
        if offered_ops < 0:
            raise PowerError(f"offered load must be non-negative, got {offered_ops}")
        if not state.active:
            return ServerSample(self._draw(state, 0.0), 0.0, state.index, 0.0)
        capacity = self._capacity(state)
        served = min(self.deliverable_capacity(state), offered_ops)
        utilization = 0.0 if capacity == 0.0 else min(served / capacity, 1.0)
        return ServerSample(self._draw(state, utilization), served, state.index, utilization)

    def sample_at_state(self, state: PowerState, load_fraction: float = 1.0) -> ServerSample:
        """Run the server at ``state`` under fractional offered load.

        ``load_fraction`` is relative to this server's own full-load
        throughput; rack-level load balancing (which routes by capacity,
        not by server size) lives in the controller.
        """
        if not 0.0 <= load_fraction <= 1.0:
            raise PowerError(f"load fraction must be in [0, 1], got {load_fraction}")
        return self.serve(state, load_fraction * self._t_max)

    # ------------------------------------------------------------------
    # State selection (the SPC's workload-aware power-to-state mapping)
    # ------------------------------------------------------------------
    def state_for_budget(self, budget_w: float) -> PowerState:
        """The highest state whose full-load draw *of this workload* fits.

        Falls back to SLEEP (then OFF) when even the lowest active
        state's draw exceeds the budget — the power-on cliff.
        """
        if budget_w < 0:
            raise PowerError(f"power budget must be non-negative, got {budget_w}")
        chosen = self.states[0]
        for state, draw in zip(self.states, self._state_draws):
            if draw <= budget_w:
                chosen = state
        return chosen

    # ------------------------------------------------------------------
    # Oracle views (Manual policy, case-study sweeps, analysis)
    # ------------------------------------------------------------------
    def perf_at_power(self, budget_w: float, load_fraction: float = 1.0) -> ServerSample:
        """Throughput/draw when the SPC enforces a ``budget_w`` power cap.

        This is the oracle the Manual baseline effectively queries by
        physically trying an allocation and measuring the outcome.
        """
        state = self.state_for_budget(budget_w)
        return self.sample_at_state(state, load_fraction)


def case_study_sweep(
    a: ResponseCurve, b: ResponseCurve, budget_w: float, step_pct: int = 5
) -> list[tuple[int, float, float]]:
    """Section III-B's case study (Fig. 3): ``budget_w`` split between two servers.

    At each power allocation ratio (PAR) from 0% to 100% in ``step_pct``
    steps, server ``a`` gets PAR × ``budget_w`` and ``b`` the rest.
    Returns one ``(par_pct, epu, perf)`` row per step: the EPU (Eq. 1)
    is the power drawn by the servers that deliver throughput over
    ``budget_w``, and perf the two servers' summed throughput.

    Raises :class:`ConfigurationError` unless ``budget_w`` is finite and
    positive and ``1 <= step_pct <= 100``.
    """
    if not (math.isfinite(budget_w) and budget_w > 0):
        raise ConfigurationError(f"budget_w must be finite and > 0, got {budget_w}")
    if not 1 <= step_pct <= 100:
        raise ConfigurationError(f"step_pct must be from 1 to 100, got {step_pct}")
    rows = []
    for pct in range(0, 101, step_pct):
        par = pct / 100.0
        sa = a.perf_at_power(par * budget_w)
        sb = b.perf_at_power((1 - par) * budget_w)
        useful = sum(s.power_w for s in (sa, sb) if s.throughput > 0)
        rows.append(
            (pct, effective_power_utilization(useful, budget_w), sa.throughput + sb.throughput)
        )
    return rows
