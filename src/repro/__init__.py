"""GreenHetero: adaptive power allocation for heterogeneous green datacenters.

This package is a from-scratch reproduction of the system described in

    Cai, Cao, Jiang, Wang. "GreenHetero: Adaptive Power Allocation for
    Heterogeneous Green Datacenters." ICDCS 2021.

The library is organised as a set of substrates plus the paper's core
contribution:

``repro.servers``
    Heterogeneous server platform models (Table II), DVFS power-state
    ladders, and the ground-truth power -> performance response surfaces
    the controller can only observe through sampling.

``repro.workloads``
    The datacenter workload catalog (Table I): batch, interactive
    (latency-SLO constrained), HPC and GPU workloads, with per-platform
    affinity.

``repro.power``
    The energy substrate: solar farm, battery bank, budget-capped grid,
    and the PDU/ATS power-distribution tree.

``repro.traces``
    Synthetic NREL-style irradiance traces and diurnal rack-load patterns.

``repro.core``
    The GreenHetero contribution: Holt predictor, profiling database,
    PAR solver, power-source selection, enforcer, and the five power
    allocation policies of Table III.

``repro.sim``
    The discrete-time (15-minute epoch / 2-minute sub-step) simulation
    engine and experiment harness.

``repro.analysis``
    Metrics (EPU, normalized performance) and paper-figure reporting.

Quickstart
----------
>>> from repro import run_experiment, ExperimentConfig
>>> cfg = ExperimentConfig.fig8_default()
>>> result = run_experiment(cfg)
"""

from repro._version import __version__
from repro.core.controller import GreenHeteroController
from repro.core.database import ProfilingDatabase
from repro.core.epu import effective_power_utilization
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
from repro.core.solver import PARSolver
from repro.sim.engine import Simulation
from repro.sim.experiment import ExperimentConfig, ExperimentResult
from repro.sim.runner import run_experiment, run_experiments

__all__ = [
    "__version__",
    "ExperimentConfig",
    "ExperimentResult",
    "GreenHeteroController",
    "GreenHeteroPolicy",
    "GreenHeteroPriorityPolicy",
    "GreenHeteroStaticPolicy",
    "HoltPredictor",
    "ManualPolicy",
    "PARSolver",
    "Policy",
    "ProfilingDatabase",
    "Simulation",
    "UniformPolicy",
    "effective_power_utilization",
    "make_policy",
    "run_experiment",
    "run_experiments",
]
