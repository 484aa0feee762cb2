"""Unit conventions and small conversion helpers.

The whole library uses a single set of base units so that power flows can
be audited without conversion mistakes:

===========  =======================================
Quantity     Unit
===========  =======================================
power        watt (W)
energy       watt-hour (Wh)
time         second (s) internally; helpers for min/h
frequency    hertz (Hz); GHz helpers for readability
throughput   abstract operations per second (ops/s)
irradiance   W/m^2
===========  =======================================

The paper's scheduling epoch is 15 minutes with 2-minute profiling
sub-steps (Section IV-B); those constants live here so every subsystem
agrees on them.
"""

from __future__ import annotations

SECONDS_PER_MINUTE = 60
MINUTES_PER_HOUR = 60
SECONDS_PER_HOUR = SECONDS_PER_MINUTE * MINUTES_PER_HOUR
HOURS_PER_DAY = 24
SECONDS_PER_DAY = SECONDS_PER_HOUR * HOURS_PER_DAY

#: Scheduling epoch length used throughout the paper (Section IV-B.1).
EPOCH_SECONDS = 15 * SECONDS_PER_MINUTE

#: Profiling sub-step: the database receives one (power, perf) sample
#: every 2 minutes during a run (Section IV-B.2).
SUBSTEP_SECONDS = 2 * SECONDS_PER_MINUTE

#: Training-run duration, "typically 10 minutes" (Section IV-B.2).
TRAINING_RUN_SECONDS = 10 * SECONDS_PER_MINUTE

#: Number of epochs in a 24-hour day at the paper's 15-minute epoch.
EPOCHS_PER_DAY = SECONDS_PER_DAY // EPOCH_SECONDS


def minutes(m: float) -> float:
    """Convert minutes to seconds."""
    return m * SECONDS_PER_MINUTE
