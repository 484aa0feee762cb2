"""The workload catalog (paper Table I).

Sixteen datacenter workloads spanning four suites:

* **SPEC / Cloudsuite** — interactive, latency-SLO constrained services
  (SPECjbb, Web-search, Memcached).
* **PARSEC** — emerging batch workloads (computer vision, encoding,
  financial analytics, ...).
* **SPECCPU** — the HPC representative (Mcf).
* **Rodinia** — GPU-CPU heterogeneous computing kernels, runnable on both
  device classes.

Each entry records the suite, the paper's performance metric, the latency
SLO (for interactive workloads), and whether a GPU port exists.  The
*response* parameters (frequency sensitivity, power intensity, platform
affinity) live in :mod:`repro.workloads.models`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import UnknownWorkloadError
from repro.workloads.slo import LatencySLO


class WorkloadKind(enum.Enum):
    """Coarse behavioural class of a workload."""

    INTERACTIVE = "interactive"  # latency-SLO constrained service
    BATCH = "batch"              # throughput-oriented, always saturating
    HPC = "hpc"                  # long-running compute job


@dataclass(frozen=True)
class Workload:
    """One Table I row.

    Attributes
    ----------
    name:
        Catalog key, e.g. ``"Streamcluster"``.
    suite:
        Originating benchmark suite.
    kind:
        Interactive / batch / HPC.
    metric:
        The performance metric the paper reports for this workload
        (jops, ops, rps, ips, ...).
    slo:
        Tail-latency constraint for interactive workloads, else ``None``.
    gpu_capable:
        True when the workload has a GPU port (the Rodinia set plus the
        Rodinia build of Streamcluster used in Comb6).
    """

    name: str
    suite: str
    kind: WorkloadKind
    metric: str
    slo: LatencySLO | None = None
    gpu_capable: bool = False

    @property
    def is_interactive(self) -> bool:
        return self.kind is WorkloadKind.INTERACTIVE

    @property
    def is_deferrable(self) -> bool:
        """Batch/HPC work can be time-shifted; interactive cannot."""
        return not self.is_interactive


def _interactive(name: str, suite: str, metric: str, pct: float, bound_s: float) -> Workload:
    return Workload(
        name=name,
        suite=suite,
        kind=WorkloadKind.INTERACTIVE,
        metric=metric,
        slo=LatencySLO(percentile=pct, bound_s=bound_s),
    )


def _parsec(name: str) -> Workload:
    return Workload(name=name, suite="PARSEC", kind=WorkloadKind.BATCH, metric="ips")


def _rodinia(name: str) -> Workload:
    return Workload(
        name=name, suite="Rodinia", kind=WorkloadKind.HPC, metric="ips", gpu_capable=True
    )


#: The full Table I catalog, keyed by workload name.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Interactive services: metric is throughput under a tail-latency SLO.
        _interactive("SPECjbb", "SPEC", "jops", 0.99, 0.500),
        _interactive("Web-search", "Cloudsuite", "ops", 0.90, 0.500),
        _interactive("Memcached", "Cloudsuite", "rps", 0.95, 0.010),
        # PARSEC batch workloads.
        Workload(
            "Streamcluster", "PARSEC", WorkloadKind.BATCH, "ips", gpu_capable=True
        ),
        _parsec("Freqmine"),
        _parsec("Blackscholes"),
        _parsec("Bodytrack"),
        _parsec("Swaptions"),
        _parsec("Vips"),
        _parsec("X264"),
        _parsec("Canneal"),
        # SPECCPU HPC representative.
        Workload("Mcf", "SPECCPU", WorkloadKind.HPC, "ips"),
        # Rodinia heterogeneous-computing kernels (CPU and GPU ports).
        _rodinia("Srad_v1"),
        _rodinia("Particlefilter"),
        _rodinia("Cfd"),
    )
}

#: The three latency-constrained services of Table I.
INTERACTIVE_WORKLOADS: tuple[str, ...] = ("SPECjbb", "Web-search", "Memcached")

#: Workloads with a GPU port (evaluated on Comb6 in Fig. 14).
GPU_WORKLOADS: tuple[str, ...] = tuple(
    w.name for w in WORKLOADS.values() if w.gpu_capable
)

#: The thirteen workloads of the Fig. 9 / Fig. 10 sweep: three interactive
#: services, eight PARSEC workloads, the SPECCPU HPC workload, plus the
#: CPU build of Cfd.
FIG9_WORKLOADS: tuple[str, ...] = (
    "SPECjbb",
    "Web-search",
    "Memcached",
    "Streamcluster",
    "Freqmine",
    "Blackscholes",
    "Bodytrack",
    "Swaptions",
    "Vips",
    "X264",
    "Canneal",
    "Mcf",
    "Cfd",
)


def get_workload(name: str) -> Workload:
    """Look up a workload by name (case-insensitive).

    Raises
    ------
    UnknownWorkloadError
        If the name matches no catalog entry.
    """
    if name in WORKLOADS:
        return WORKLOADS[name]
    for key, workload in WORKLOADS.items():
        if key.lower() == name.lower():
            return workload
    raise UnknownWorkloadError(name, tuple(WORKLOADS))
