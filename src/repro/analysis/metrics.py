"""Metric aggregation helpers shared by the benches and examples."""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean — the right average for speedup ratios.

    Raises
    ------
    ConfigurationError
        On empty input or non-positive entries.
    """
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        raise ConfigurationError("geometric mean of empty sequence")
    if np.any(data <= 0):
        raise ConfigurationError("geometric mean requires positive values")
    return float(np.exp(np.log(data).mean()))


def shift_comparison(
    shift_log,
    no_shift_log,
    epoch_s: float,
    shift_jobs: Mapping[str, int],
    no_shift_jobs: Mapping[str, int],
    shift_summary: Mapping[str, object] | None = None,
) -> dict[str, object]:
    """Shift-vs-no-shift headline numbers (the ``repro shift`` payload).

    Parameters
    ----------
    shift_log / no_shift_log:
        The two arms' :class:`~repro.sim.telemetry.TelemetryLog`.
    epoch_s:
        Epoch length, for energy integration.
    shift_jobs / no_shift_jobs:
        Each arm's job status counts (``JobQueue.counts()``).
    shift_summary:
        Optional :meth:`ShiftRuntime.summary` of the shifting arm, for
        the planner-side grid-avoided accounting.

    Raises
    ------
    ConfigurationError
        When the arms ran different numbers of epochs (the comparison
        is only meaningful over identical timelines).
    """
    if len(shift_log) != len(no_shift_log):
        raise ConfigurationError(
            f"arms ran {len(shift_log)} vs {len(no_shift_log)} epochs; "
            "shift comparisons need identical timelines"
        )
    shift_grid = shift_log.grid_energy_wh(epoch_s) / 1000.0
    base_grid = no_shift_log.grid_energy_wh(epoch_s) / 1000.0
    saved = base_grid - shift_grid
    shift_epu = shift_log.mean_epu()
    base_epu = no_shift_log.mean_epu()
    total_shift = sum(shift_jobs.values())
    total_base = sum(no_shift_jobs.values())
    result: dict[str, object] = {
        "grid_kwh": {
            "shift": shift_grid,
            "no_shift": base_grid,
            "saved": saved,
            "saved_fraction": saved / base_grid if base_grid > 0 else 0.0,
        },
        "epu": {
            "shift": shift_epu,
            "no_shift": base_epu,
            "delta": shift_epu - base_epu,
        },
        "deadline_misses": {
            "shift": int(shift_jobs.get("missed", 0)),
            "no_shift": int(no_shift_jobs.get("missed", 0)),
        },
        "miss_rate": {
            "shift": shift_jobs.get("missed", 0) / total_shift if total_shift else 0.0,
            "no_shift": (
                no_shift_jobs.get("missed", 0) / total_base if total_base else 0.0
            ),
        },
        "jobs": {"shift": dict(shift_jobs), "no_shift": dict(no_shift_jobs)},
    }
    if shift_summary is not None:
        result["planner"] = dict(shift_summary)
    return result


def summarize_gains(per_workload_gains: Mapping[str, float]) -> dict[str, float]:
    """Min / mean (geometric) / max over a per-workload gain map."""
    if not per_workload_gains:
        raise ConfigurationError("no gains to summarise")
    gains = list(per_workload_gains.values())
    best = max(per_workload_gains, key=per_workload_gains.__getitem__)
    worst = min(per_workload_gains, key=per_workload_gains.__getitem__)
    return {
        "min": min(gains),
        "mean": geometric_mean(gains),
        "max": max(gains),
        "best_workload": best,  # type: ignore[dict-item]
        "worst_workload": worst,  # type: ignore[dict-item]
    }
