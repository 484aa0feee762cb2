"""Server substrate: platforms, DVFS ladders, ground-truth response models.

The paper's testbed (Table II) contains five Intel CPU platforms and one
Nvidia GPU.  This subpackage models each platform's electrical envelope
(idle/peak power), its DVFS power-state ladder, and — crucially — the
*ground-truth* power-to-performance response surface for every workload.
The GreenHetero controller never reads the ground truth directly; it only
observes noisy (power, performance) samples through the Monitor, exactly
as the real prototype observed its servers through power meters and
``perf``/``nvprof``.
"""

from repro.servers.dvfs import PowerState, PowerStateSet
from repro.servers.platform import (
    GOOGLE_DC_CONFIG_COUNTS,
    PLATFORMS,
    DeviceClass,
    ServerSpec,
    get_platform,
    platform_names,
    register_platform,
)
from repro.servers.power_model import ResponseCurve
from repro.servers.rack import Rack, ServerGroup

__all__ = [
    "DeviceClass",
    "GOOGLE_DC_CONFIG_COUNTS",
    "PLATFORMS",
    "PowerState",
    "PowerStateSet",
    "Rack",
    "ResponseCurve",
    "ServerGroup",
    "ServerSpec",
    "get_platform",
    "platform_names",
    "register_platform",
]
