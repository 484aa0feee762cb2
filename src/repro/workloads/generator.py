"""Offered-load generation for iterative workload execution.

Within each experiment "a workload can be executed iteratively"
(Section V-A.1): batch and HPC workloads always saturate the servers,
while interactive services see a diurnal request rate that follows the
typical datacenter load pattern the paper takes from [13] (Fig. 6's
demand curve).

:class:`LoadGenerator` turns a normalised intensity pattern (a callable
``time_s -> fraction`` in ``[0, 1]``) plus the workload kind into the
offered load fraction for any simulation time, with seeded jitter
(:data:`LOAD_JITTER`) so that consecutive epochs are not perfectly
smooth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import load_rng_state
from repro.workloads.catalog import Workload

#: Standard deviation of the multiplicative load noise on interactive
#: workloads; the noisy fraction is clamped to ``[0, 1]``.
LOAD_JITTER = 0.02


@dataclass(frozen=True)
class OfferedLoad:
    """Offered load at one instant.

    Attributes
    ----------
    fraction:
        Offered load as a fraction of the workload's full-rack maximum
        throughput, in ``[0, 1]``.
    time_s:
        Simulation time the sample applies to.
    """

    fraction: float
    time_s: float


class LoadGenerator:
    """Generates offered-load fractions over simulation time.

    Parameters
    ----------
    workload:
        Catalog entry; batch/HPC workloads always offer full load.
    pattern:
        Normalised diurnal intensity ``time_s -> [0, 1]`` used for
        interactive workloads.  ``None`` selects a constant 1.0.
    seed:
        Seed for the jitter RNG; generation is deterministic per seed.
    """

    def __init__(
        self,
        workload: Workload,
        pattern: Callable[[float], float] | None = None,
        seed: int = 0,
    ) -> None:
        self.workload = workload
        self._pattern = pattern
        self._rng = np.random.default_rng(seed)

    @property
    def pattern(self) -> Callable[[float], float] | None:
        """The normalised intensity pattern driving interactive load."""
        return self._pattern

    def state_dict(self) -> dict[str, Any]:
        """The jitter RNG's bit-generator state (the pattern is config)."""
        return self._rng.bit_generator.state

    def load_state_dict(self, state: dict[str, Any]) -> None:
        """Install a :meth:`state_dict` capture."""
        load_rng_state(self._rng, state)

    def at(self, time_s: float) -> OfferedLoad:
        """Offered load at ``time_s``."""
        if not self.workload.is_interactive or self._pattern is None:
            return OfferedLoad(fraction=1.0, time_s=time_s)
        base = float(self._pattern(time_s))
        if not 0.0 <= base <= 1.0:
            raise ConfigurationError(
                f"load pattern returned {base} at t={time_s}; must be in [0, 1]"
            )
        base *= 1.0 + LOAD_JITTER * float(self._rng.standard_normal())
        return OfferedLoad(fraction=min(max(base, 0.0), 1.0), time_s=time_s)

    def series(self, times_s: list[float] | np.ndarray) -> list[OfferedLoad]:
        """Offered load at each time in ``times_s`` (in order)."""
        return [self.at(float(t)) for t in times_s]
