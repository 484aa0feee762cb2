"""Racks: homogeneous groups of heterogeneous server types.

A rack in the paper holds a small number of *server groups* — e.g. five
E5-2620 machines plus five i5-4460 machines in the Fig. 8 runs — all
executing the same workload.  GreenHetero allocates one PAR share per
group and splits it evenly across the group's members ("we distribute the
same amount of power to the same type of servers by default",
Section IV-B.3).

The rack is the unit both the power tree (one PDU, one battery bank, one
solar feed per rack) and the controller operate on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.servers.platform import ServerSpec, get_platform
from repro.servers.power_model import ResponseCurve
from repro.workloads.catalog import Workload, get_workload


@dataclass(frozen=True)
class ServerGroup:
    """``count`` identical servers of one platform running one workload.

    Attributes
    ----------
    spec:
        The platform.
    count:
        Number of servers in the group (>= 1).
    workload:
        The workload the group runs.
    """

    spec: ServerSpec
    count: int
    workload: Workload

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ConfigurationError(f"group {self.spec.name}: count must be >= 1")

    @property
    def key(self) -> tuple[str, str]:
        """(platform, workload) identity used by the profiling database."""
        return (self.spec.name, self.workload.name)


class Rack:
    """A rack of heterogeneous server groups sharing one power feed.

    Parameters
    ----------
    groups:
        ``(platform_name, count)`` pairs; order defines PAR vector order.
    workload:
        Workload run by every group (the paper's evaluation runs one
        workload per experiment), or a list with one entry per group.

    Raises
    ------
    ConfigurationError
        On empty racks, more groups than the solver supports being a
        concern of the caller, duplicate platforms, or workload/platform
        incompatibility.
    """

    def __init__(
        self,
        groups: list[tuple[str, int]],
        workload: str | Workload | list[str | Workload],
    ) -> None:
        if not groups:
            raise ConfigurationError("a rack needs at least one server group")
        names = [name for name, _ in groups]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate platform in rack: {names}")
        if isinstance(workload, list):
            if len(workload) != len(groups):
                raise ConfigurationError(
                    "per-group workload list must match the number of groups"
                )
            workloads = [get_workload(w.name if isinstance(w, Workload) else w) for w in workload]
        else:
            shared = get_workload(workload.name if isinstance(workload, Workload) else workload)
            workloads = [shared] * len(groups)

        self.groups: list[ServerGroup] = []
        self._curves: list[ResponseCurve] = []
        for (name, count), wl in zip(groups, workloads):
            spec = get_platform(name)
            curve = ResponseCurve(spec, wl)  # raises IncompatibleWorkloadError
            self.groups.append(ServerGroup(spec=spec, count=count, workload=wl))
            self._curves.append(curve)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.groups)

    @property
    def n_servers(self) -> int:
        """Total number of machines in the rack."""
        return sum(g.count for g in self.groups)

    @property
    def platform_names(self) -> tuple[str, ...]:
        return tuple(g.spec.name for g in self.groups)

    def curve(self, index: int) -> ResponseCurve:
        """Ground-truth response curve of group ``index``."""
        return self._curves[index]

    # ------------------------------------------------------------------
    # Power envelope
    # ------------------------------------------------------------------
    @property
    def max_draw_w(self) -> float:
        """Rack power demand with every server at full load (W)."""
        return sum(c.max_draw_w * g.count for c, g in zip(self._curves, self.groups))

    @property
    def envelope_w(self) -> float:
        """Rack hardware power envelope: sum of platform peak powers (W).

        Workload-independent — this is what the rack's power delivery
        (PDU, solar array, grid feed) is provisioned against.
        """
        return sum(g.spec.peak_power_w * g.count for g in self.groups)

    @property
    def idle_power_w(self) -> float:
        """Rack power with every server powered but idle (W)."""
        return sum(g.spec.idle_power_w * g.count for g in self.groups)

    @property
    def min_active_power_w(self) -> float:
        """Cheapest way to have one server doing work (W)."""
        return min(c.min_active_power_w for c in self._curves)

    @property
    def max_throughput(self) -> float:
        """Aggregate throughput with unlimited power."""
        return sum(c.max_throughput * g.count for c, g in zip(self._curves, self.groups))

    def group_demands_at_load(self, load_fraction: float) -> tuple[float, ...]:
        """Per-group power demand at ``load_fraction`` load (W).

        Same semantics as :meth:`demand_at_load`, kept separate so
        callers (the shift runtime) can cap individual groups.
        """
        demands = []
        for curve, group in zip(self._curves, self.groups):
            top = curve.states.active_states[-1]
            demands.append(curve.sample_at_state(top, load_fraction).power_w * group.count)
        return tuple(demands)

    def demand_at_load(self, load_fraction: float) -> float:
        """Rack power demand when every server sees ``load_fraction`` load (W)."""
        return sum(self.group_demands_at_load(load_fraction))

    def describe(self) -> str:
        """One-line human-readable rack summary."""
        parts = ", ".join(
            f"{g.count}x {g.spec.name} ({g.workload.name})" for g in self.groups
        )
        return f"Rack[{parts}; max {self.max_draw_w:.0f} W]"
