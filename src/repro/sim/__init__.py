"""Simulation substrate: clock, telemetry, engine, experiment harness."""

from repro.sim.clock import SimClock
from repro.sim.engine import Simulation
from repro.sim.faults import FaultInjector, FaultWindow
from repro.sim.schedule import WorkloadPhase, WorkloadSchedule
from repro.sim.experiment import (
    COMBINATIONS,
    ExperimentConfig,
    ExperimentResult,
    PolicySummary,
)
from repro.sim.runner import run_experiment, run_experiments
from repro.sim.telemetry import TelemetryLog

__all__ = [
    "COMBINATIONS",
    "ExperimentConfig",
    "ExperimentResult",
    "FaultInjector",
    "FaultWindow",
    "PolicySummary",
    "SimClock",
    "Simulation",
    "TelemetryLog",
    "WorkloadPhase",
    "WorkloadSchedule",
    "run_experiment",
    "run_experiments",
]
