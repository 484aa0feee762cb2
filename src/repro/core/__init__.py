"""GreenHetero core: the paper's contribution.

The controller (Fig. 4) wires three modules together:

* **Monitor** — samples renewable generation, battery state, and noisy
  per-server (power, performance) readings.
* **Adaptive Scheduler** (Fig. 5) — the Holt power predictor, the
  performance-power profiling database with its training-run and online
  update loop (Fig. 7 / Algorithm 1), the power-source selector (Fig. 6's
  Cases A/B/C), and the PAR solver (Eq. 6-8).
* **Enforcer** — the Power Source Controller (source switching) and the
  Server Power Controller (power budget -> DVFS state mapping).

The five allocation policies of Table III live in
:mod:`repro.core.policies`.
"""

from repro.core.cluster import ClusterCoordinator, GridSplit
from repro.core.database import FitKind, PerfPowerFit, ProfilingDatabase
from repro.core.enforcer import PowerSourceController, ServerPowerController
from repro.core.persistence import load_database, save_database
from repro.core.epu import effective_power_utilization
from repro.core.monitor import Monitor
from repro.core.policies import (
    GreenHeteroPolicy,
    GreenHeteroPriorityPolicy,
    GreenHeteroStaticPolicy,
    ManualPolicy,
    Policy,
    UniformPolicy,
    make_policy,
)
from repro.core.predictor import HoltPredictor
from repro.core.solver import GroupModel, PARSolution, PARSolver
from repro.core.sources import PowerCase, SourceDecision, SourceSelector

__all__ = [
    "ClusterCoordinator",
    "FitKind",
    "GridSplit",
    "GreenHeteroPolicy",
    "GreenHeteroPriorityPolicy",
    "GreenHeteroStaticPolicy",
    "GroupModel",
    "HoltPredictor",
    "ManualPolicy",
    "Monitor",
    "PARSolution",
    "PARSolver",
    "PerfPowerFit",
    "Policy",
    "PowerCase",
    "PowerSourceController",
    "ProfilingDatabase",
    "ServerPowerController",
    "SourceDecision",
    "SourceSelector",
    "UniformPolicy",
    "effective_power_utilization",
    "load_database",
    "make_policy",
    "save_database",
]
