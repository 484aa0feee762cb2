"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload sim-day --seed 2021 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` wraps each layer's public methods and reports the
per-layer metrics plus one span table per workload.  Human-readable
lines come first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--record-reference`` instead writes the simulated workloads' reference
trajectories for ``--seed`` to ``perfbench/reference_<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The end-to-end metrics every workload reports: ``name -> (unit, better)``.
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_ms_p50": ("ms", "lower"),
}

WORKLOAD_NAMES = ("sim-day", "policy-sweep", "serve-fleet", "shift-day")


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def steal_s() -> float | None:
    """CPU time the hypervisor has taken from this host so far, when known.

    A rise during a run means other tenants of the physical machine
    competed for its CPUs, which slows every workload for a while.
    """
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    except OSError:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else None


def host_info() -> dict[str, object]:
    import numpy
    import scipy

    from perfbench.workloads import NPROC

    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
    }


def finalize(metrics: dict[str, tuple[float, str]], expected: dict[str, tuple[str, str]]) -> dict[str, dict[str, object]]:
    """The result's metrics block: exactly ``expected``, absent layers as 0.

    Raises when a workload reports a metric that is not expected or under
    another unit — the benchmark's definition and its code must agree.
    """
    unknown = sorted(set(metrics) - set(expected))
    if unknown:
        raise RuntimeError(f"metrics not in the benchmark definition: {unknown}")
    out: dict[str, dict[str, object]] = {}
    for name, (unit, _) in expected.items():
        value, got_unit = metrics.get(name, (0.0, unit))
        if got_unit != unit:
            raise RuntimeError(f"{name} measured in {got_unit}, defined in {unit}")
        out[name] = {"value": float(value), "unit": unit}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default="sim-day")
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    # One thread per BLAS call: each workload may use at most nproc threads,
    # and idle OpenBLAS threads spinning beside the runner's worker
    # processes would double a sweep's wall time on 2 CPUs.  Set before
    # numpy loads; the serve daemon inherits it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    from perfbench import workloads
    from perfbench.layers import PER_LAYER

    if args.record_reference:
        print(f"wrote {workloads.record_references(args.seed)}")
        return 0

    print("host " + json.dumps(host_info(), sort_keys=True), flush=True)
    untraced, traced = workloads.WORKLOADS[args.workload]
    steal_before = steal_s()
    outcome = (traced if args.trace else untraced)(args.seed, args.seconds)
    steal_after = steal_s()
    if steal_before is not None and steal_after is not None:
        outcome.info["host_steal_s"] = round(steal_after - steal_before, 2)
    metrics = finalize(outcome.metrics, PER_LAYER if args.trace else END_TO_END)

    tables = outcome.info.pop("trace_tables", None)
    if tables is not None:
        print(f"trace tables {args.workload} " + json.dumps(tables, indent=1))
    print(f"{args.workload} " + json.dumps(outcome.info, sort_keys=True))
    for name, entry in metrics.items():
        print(f"  {name:34s} {entry['value']:.6g} {entry['unit']}")
    for note in outcome.tally.notes:
        print(f"  FAILED: {note}")
    tally = outcome.tally
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
