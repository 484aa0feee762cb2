"""Server platform specifications (paper Table II) and the platform registry.

Each :class:`ServerSpec` captures the electrical and microarchitectural
envelope of one server configuration: nominal frequency, socket/core
counts, and measured peak/idle wall power.  The six entries below are the
exact rows of Table II in the paper.

The module also carries the Fig. 1 motivation data: the number of distinct
server configurations found in ten Google datacenters (2 to 5 per
datacenter, with 80% of datacenters running two or three configurations —
Section IV-B.3 cites this share when bounding the solver at three types).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError, UnknownPlatformError


class DeviceClass(enum.Enum):
    """Coarse device family; constrains which workloads a platform can run."""

    CPU = "cpu"
    GPU = "gpu"


@dataclass(frozen=True)
class ServerSpec:
    """Static description of one server configuration (one Table II row).

    Attributes
    ----------
    name:
        Registry key, e.g. ``"E5-2620"``.
    device_class:
        :class:`DeviceClass.CPU` or :class:`DeviceClass.GPU`.
    base_frequency_hz:
        Nominal frequency of the part (Hz).
    sockets:
        Number of populated sockets (1 for the GPU card).
    cores:
        Total hardware cores (CUDA cores for the GPU).
    peak_power_w:
        Measured wall-power ceiling of the server (W).
    idle_power_w:
        Measured wall power when idle (W).  Allocating less than this to a
        powered-on server yields zero throughput (Section IV-B.3).
    min_frequency_hz:
        Lowest DVFS operating point.  Defaults to 40% of base frequency,
        matching commodity cpufreq ladders.
    dvfs_levels:
        Number of discrete frequency steps exposed by the platform.
    """

    name: str
    device_class: DeviceClass
    base_frequency_hz: float
    sockets: int
    cores: int
    peak_power_w: float
    idle_power_w: float
    min_frequency_hz: float = 0.0
    dvfs_levels: int = 10

    def __post_init__(self) -> None:
        if self.peak_power_w <= self.idle_power_w:
            raise ConfigurationError(
                f"{self.name}: peak power ({self.peak_power_w} W) must exceed "
                f"idle power ({self.idle_power_w} W)"
            )
        if self.idle_power_w < 0:
            raise ConfigurationError(f"{self.name}: idle power must be non-negative")
        if self.sockets < 1 or self.cores < 1:
            raise ConfigurationError(f"{self.name}: sockets and cores must be >= 1")
        if self.dvfs_levels < 2:
            raise ConfigurationError(f"{self.name}: need at least 2 DVFS levels")
        if self.min_frequency_hz <= 0:
            # Frozen dataclass: use object.__setattr__ for the derived default.
            object.__setattr__(self, "min_frequency_hz", 0.4 * self.base_frequency_hz)
        if self.min_frequency_hz >= self.base_frequency_hz:
            raise ConfigurationError(
                f"{self.name}: min frequency must be below base frequency"
            )

    @property
    def dynamic_range_w(self) -> float:
        """Peak-minus-idle power: the controllable dynamic envelope (W)."""
        return self.peak_power_w - self.idle_power_w


def _spec(
    name: str,
    device_class: DeviceClass,
    freq_ghz: float,
    sockets: int,
    cores: int,
    peak_w: float,
    idle_w: float,
) -> ServerSpec:
    return ServerSpec(
        name=name,
        device_class=device_class,
        base_frequency_hz=freq_ghz * 1e9,
        sockets=sockets,
        cores=cores,
        peak_power_w=peak_w,
        idle_power_w=idle_w,
    )


#: The six server configurations of Table II.
PLATFORMS: dict[str, ServerSpec] = {
    spec.name: spec
    for spec in (
        _spec("E5-2620", DeviceClass.CPU, 2.0, 2, 12, 178.0, 88.0),
        _spec("E5-2650", DeviceClass.CPU, 2.0, 1, 8, 112.0, 66.0),
        _spec("E5-2603", DeviceClass.CPU, 1.8, 1, 4, 79.0, 58.0),
        _spec("i7-8700K", DeviceClass.CPU, 3.7, 1, 6, 88.0, 39.0),
        _spec("i5-4460", DeviceClass.CPU, 3.2, 1, 4, 96.0, 47.0),
        _spec("TitanXp", DeviceClass.GPU, 1.582, 1, 3840, 411.0, 149.0),
    )
}

#: Aliases accepted by :func:`get_platform` for convenience.
_ALIASES: dict[str, str] = {
    "xeon e5-2620": "E5-2620",
    "xeon e5-2650": "E5-2650",
    "xeon e5-2603": "E5-2603",
    "core i7-8700k": "i7-8700K",
    "core i5-4460": "i5-4460",
    "i7": "i7-8700K",
    "i5": "i5-4460",
    "titan xp": "TitanXp",
    "titanxp": "TitanXp",
    "nvidia titan xp": "TitanXp",
}

#: Fig. 1 motivation data: number of distinct server configurations in ten
#: Google datacenters.  Values range 2-5 and 80% of the datacenters run
#: two or three configurations, matching the paper's reading of [22].
GOOGLE_DC_CONFIG_COUNTS: tuple[int, ...] = (3, 2, 4, 3, 2, 5, 3, 2, 3, 2)


def platform_names() -> tuple[str, ...]:
    """Names of all registered platforms, in registration order."""
    return tuple(PLATFORMS)


def register_platform(spec: ServerSpec, aliases: tuple[str, ...] = ()) -> None:
    """Add a user-defined server platform to the registry.

    Lets adopters model their own hardware mix beyond Table II.

    Raises
    ------
    ConfigurationError
        If the name or an alias is already taken.
    """
    if spec.name in PLATFORMS:
        raise ConfigurationError(f"platform {spec.name!r} already registered")
    for alias in aliases:
        if alias.lower() in _ALIASES:
            raise ConfigurationError(f"alias {alias!r} already registered")
    PLATFORMS[spec.name] = spec
    for alias in aliases:
        _ALIASES[alias.lower()] = spec.name


def get_platform(name: str) -> ServerSpec:
    """Look up a platform by registry name (case-insensitive, with aliases).

    Raises
    ------
    UnknownPlatformError
        If ``name`` matches no registered platform or alias.
    """
    if name in PLATFORMS:
        return PLATFORMS[name]
    canonical = _ALIASES.get(name.lower())
    if canonical is not None:
        return PLATFORMS[canonical]
    for key in PLATFORMS:
        if key.lower() == name.lower():
            return PLATFORMS[key]
    raise UnknownPlatformError(name, platform_names())
