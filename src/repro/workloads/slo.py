"""Latency-SLO constrained throughput (Table I's percentile metrics).

The interactive workloads in the paper report throughput *subject to a
tail-latency constraint*: SPECjbb reports jops under a 99th-percentile
500 ms bound, Web-search ops under a 90th-percentile 500 ms bound, and
Memcached rps under a 95th-percentile 10 ms bound.

We model each interactive server as an M/M/1 queue whose service rate is
the server's current compute capacity ``mu`` (ops/s at the operating
frequency).  For M/M/1 the response-time tail is exponential,

    P(W > t) = exp(-(mu - lambda) * t),

so the p-th percentile latency at offered load ``lambda`` is

    t_p = ln(1 / (1 - p)) / (mu - lambda),

and the largest sustainable throughput that still meets ``t_p <= bound``
is

    lambda* = mu - ln(1 / (1 - p)) / bound.

This is the classical "knee" model: the SLO carves a fixed headroom off
the raw capacity, and when capacity falls below that headroom the server
can serve nothing within the SLO at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class LatencySLO:
    """A percentile tail-latency bound, e.g. "99%-ile 500 ms".

    Attributes
    ----------
    percentile:
        Tail percentile in (0, 1), e.g. ``0.99``.
    bound_s:
        Latency bound in seconds, e.g. ``0.5``.
    """

    percentile: float
    bound_s: float

    def __post_init__(self) -> None:
        if not 0.0 < self.percentile < 1.0:
            raise ConfigurationError(
                f"SLO percentile must be in (0, 1), got {self.percentile}"
            )
        if self.bound_s <= 0.0:
            raise ConfigurationError(f"SLO bound must be positive, got {self.bound_s}")

    @property
    def headroom_ops(self) -> float:
        """Capacity headroom the SLO reserves: ``ln(1/(1-p)) / bound`` ops/s."""
        return math.log(1.0 / (1.0 - self.percentile)) / self.bound_s

    def describe(self) -> str:
        """Human-readable form, e.g. ``"99%-ile 500ms"``."""
        return f"{self.percentile:.0%}-ile {self.bound_s * 1000:.0f}ms"


def slo_constrained_throughput(capacity_ops: float, slo: LatencySLO | None) -> float:
    """Largest throughput sustainable within the SLO at capacity ``capacity_ops``.

    Parameters
    ----------
    capacity_ops:
        Raw service capacity ``mu`` of the server at its current power
        state, in ops/s.
    slo:
        The latency constraint; ``None`` means unconstrained (batch), in
        which case the capacity itself is returned.

    Returns
    -------
    float
        ``max(0, mu - headroom)`` for interactive workloads.
    """
    if capacity_ops < 0.0:
        raise ConfigurationError("capacity must be non-negative")
    if slo is None:
        return capacity_ops
    return max(0.0, capacity_ops - slo.headroom_ops)
