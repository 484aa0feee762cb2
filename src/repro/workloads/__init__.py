"""Workload substrate: the paper's Table I catalog and response models.

The paper evaluates GreenHetero with workloads drawn from SPEC, Cloudsuite,
PARSEC, SPECCPU and Rodinia.  We model each workload's power-performance
behaviour analytically: how strongly its throughput responds to frequency
(compute-bound vs memory/network-bound), how much of a server's dynamic
power envelope it exercises, whether it is latency-SLO constrained, and
whether it has a GPU port (the Rodinia set).
"""

from repro.workloads.catalog import (
    FIG9_WORKLOADS,
    GPU_WORKLOADS,
    INTERACTIVE_WORKLOADS,
    WORKLOADS,
    Workload,
    WorkloadKind,
    get_workload,
)
from repro.workloads.generator import LoadGenerator, OfferedLoad
from repro.workloads.models import WorkloadResponse, response_for
from repro.workloads.slo import LatencySLO, slo_constrained_throughput

__all__ = [
    "FIG9_WORKLOADS",
    "GPU_WORKLOADS",
    "INTERACTIVE_WORKLOADS",
    "LatencySLO",
    "LoadGenerator",
    "OfferedLoad",
    "WORKLOADS",
    "Workload",
    "WorkloadKind",
    "WorkloadResponse",
    "get_workload",
    "response_for",
    "slo_constrained_throughput",
]
