"""Discrete simulation clock: epochs over a trace-driven timeline."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from repro.errors import ConfigurationError
from repro.units import EPOCH_SECONDS, SECONDS_PER_DAY


@dataclass(frozen=True)
class SimClock:
    """Epoch timeline for a run.

    Attributes
    ----------
    start_s:
        Timestamp of the first epoch (offset into the replayed traces).
    duration_s:
        Total simulated time.
    epoch_s:
        Epoch length (paper: 15 minutes).
    """

    start_s: float = SECONDS_PER_DAY
    duration_s: float = SECONDS_PER_DAY
    epoch_s: float = EPOCH_SECONDS

    def __post_init__(self) -> None:
        # NaN fails every comparison below, and an infinite span has no
        # whole epoch count.
        if not all(map(math.isfinite, (self.start_s, self.duration_s, self.epoch_s))):
            raise ConfigurationError(
                "start, duration and epoch length must be finite, got "
                f"{self.start_s}, {self.duration_s}, {self.epoch_s}"
            )
        if self.duration_s <= 0 or self.epoch_s <= 0:
            raise ConfigurationError("duration and epoch length must be positive")
        if self.start_s < 0:
            raise ConfigurationError("start must be non-negative")

    @property
    def n_epochs(self) -> int:
        """Number of whole epochs in the run."""
        return int(self.duration_s // self.epoch_s)

    def epoch_times(self) -> Iterator[float]:
        """Start timestamp of each epoch, in order."""
        for i in range(self.n_epochs):
            yield self.start_s + i * self.epoch_s

    def history_times(self, n_epochs: int) -> list[float]:
        """Timestamps of the ``n_epochs`` epochs *preceding* the run.

        Used to pre-train the Holt predictors on "past records"
        (Eq. 5); may dip below zero, which trace wrap-around handles.
        """
        if n_epochs < 1:
            raise ConfigurationError("need at least one history epoch")
        return [self.start_s - (n_epochs - i) * self.epoch_s for i in range(n_epochs)]
