"""Multi-seed statistical comparison.

A single seeded run proves nothing about robustness: the solar trace,
cloud events, offered-load jitter and meter noise are all one draw from
their distributions.  :func:`seed_sweep` replays an experiment across
independent seeds and reports the gain's mean with a Student-t
confidence interval, so headline numbers ("GreenHetero is 1.6x over
Uniform") carry error bars.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.experiment import ExperimentConfig
from repro.sim.runner import run_experiment


@dataclass(frozen=True)
class GainStatistics:
    """Gain distribution over independent seeds.

    Attributes
    ----------
    samples:
        The per-seed gains, in seed order.
    mean / std:
        Sample mean and (ddof=1) standard deviation.
    ci_low / ci_high:
        Two-sided Student-t confidence interval for the mean.
    confidence:
        The interval's confidence level.
    """

    samples: tuple[float, ...]
    mean: float
    std: float
    ci_low: float
    ci_high: float
    confidence: float

    @property
    def n(self) -> int:
        return len(self.samples)

    def describe(self) -> str:
        """One line: ``1.62x +- 0.04 (95% CI [1.58, 1.66], n=5)``."""
        return (
            f"{self.mean:.2f}x +- {self.std:.2f} "
            f"({self.confidence:.0%} CI [{self.ci_low:.2f}, {self.ci_high:.2f}], "
            f"n={self.n})"
        )


def gain_statistics(samples: Sequence[float], confidence: float = 0.95) -> GainStatistics:
    """Summarise a set of per-seed gains.

    Raises
    ------
    ConfigurationError
        With fewer than two samples (no interval exists), a non-finite
        sample, or a nonsensical confidence level.
    """
    if len(samples) < 2:
        raise ConfigurationError("need at least 2 samples for an interval")
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError("confidence must be in (0, 1)")
    data = np.asarray(samples, dtype=float)
    if not np.isfinite(data).all():
        raise ConfigurationError("samples must be finite")
    mean = float(data.mean())
    std = float(data.std(ddof=1))
    sem = std / np.sqrt(len(data))
    if sem == 0.0:
        lo = hi = mean
    else:
        # Imported here: scipy.stats costs ~0.4 s, and only an interval needs it.
        from scipy import stats

        lo, hi = stats.t.interval(confidence, len(data) - 1, loc=mean, scale=sem)
    return GainStatistics(
        samples=tuple(float(x) for x in data),
        mean=mean,
        std=std,
        ci_low=float(lo),
        ci_high=float(hi),
        confidence=confidence,
    )


def seed_sweep(
    config: ExperimentConfig,
    seeds: Sequence[int],
    policy: str = "GreenHetero",
    metric: str = "throughput",
    baseline: str = "Uniform",
    confidence: float = 0.95,
) -> GainStatistics:
    """Run ``config`` across ``seeds`` and return gain statistics.

    Each seed re-synthesises the traces and noise streams; everything
    else (rack, policies, methodology) is held fixed.

    Raises
    ------
    ConfigurationError
        If the baseline or policy is not part of the config's policy
        set, or fewer than two seeds are given.
    """
    if len(seeds) < 2:
        raise ConfigurationError("need at least 2 seeds")
    for name in (policy, baseline):
        if name not in config.policies:
            raise ConfigurationError(f"policy {name!r} not in the config's policies")
    gains = []
    for seed in seeds:
        result = run_experiment(replace(config, seed=int(seed)))
        gains.append(result.gain(policy, metric, baseline=baseline))
    return gain_statistics(gains, confidence=confidence)
