#!/usr/bin/env python3
"""End-to-end smoke test of the temporal-shifting subsystem (run by CI).

Two halves, mirroring how the subsystem ships:

1. **Benchmark**: run ``repro shift`` over a day of PV trace and assert
   the planner actually shifts — grid energy saved vs the
   run-immediately baseline, with zero deadline misses in either arm
   (writes ``BENCH_shift.json`` for CI to archive).
2. **Serving**: boot ``repro serve`` with a deferrable (batch) workload
   and a checkpoint directory, submit jobs over the wire, plan, execute
   epochs, SIGTERM; then boot a second daemon from the checkpoint and
   verify (a) the restored rack reports the same queue status (running
   totals included) and reproduces the pre-restart plan
   decision-for-decision, and (b) re-checkpointing the restored state —
   queue still non-empty — writes a byte-identical checkpoint document.

Exit status is non-zero on any failure.  Usage:

    python tools/shift_smoke.py [--out BENCH_shift.json]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from smoke_daemon import ENV, ROOT, saved_checkpoint, start_daemon, stop_daemon


def run_bench(out: str, days: float, seed: int) -> None:
    """Half 1: the benchmark must show real savings and no misses."""
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "shift",
            "--days", str(days),
            "--seed", str(seed),
            "--out", out,
        ],
        cwd=ROOT,
        env=ENV,
    )
    if proc.returncode != 0:
        raise SystemExit(f"repro shift exited rc={proc.returncode}")
    payload = json.loads(Path(ROOT / out).read_text())
    grid = payload["comparison"]["grid_kwh"]
    misses = payload["comparison"]["deadline_misses"]
    if grid["saved"] <= 0:
        raise SystemExit(
            f"shifting saved no grid energy: shift {grid['shift']} kWh "
            f"vs no_shift {grid['no_shift']} kWh"
        )
    if misses["shift"] != 0 or misses["no_shift"] != 0:
        raise SystemExit(f"deadline misses: {misses}")
    print(
        f"bench: saved {grid['saved']:.3f} kWh "
        f"({100.0 * grid['saved_fraction']:.1f}%), zero misses"
    )


def boot(checkpoint: Path) -> tuple[subprocess.Popen, int, str]:
    """A daemon whose racks run a batch (deferrable) workload."""
    return start_daemon(
        "--workload", "Streamcluster", "--checkpoint", str(checkpoint)
    )


def run_serve_cycle() -> None:
    """Half 2: submit/plan/step over the wire, then restore and compare."""
    from repro.serve.client import ServeClient

    tmp = Path(tempfile.mkdtemp(prefix="shift-smoke-"))
    checkpoint = tmp / "checkpoint"

    # --- first life: submit jobs, plan, execute, SIGTERM --------------
    proc, port, suffix = boot(checkpoint)
    try:
        with ServeClient(port=port) as client:
            rack = client.racks()[0]
            clock_s = client.queue_status(rack)["clock_s"]
            # Staggered earliest starts keep a pending backlog alive
            # across the SIGTERM so the restore path is non-trivial.
            for i in range(3):
                client.submit(
                    rack,
                    {
                        "job_id": f"smoke-{i}",
                        "energy_wh": 150.0,
                        "power_w": 300.0,
                        "earliest_start_s": clock_s + i * 2 * 3600.0,
                        "deadline_s": clock_s + 12 * 3600.0,
                        "value": 1.0,
                    },
                )
            client.step(rack)
            client.step(rack)
            plan_before = client.plan(rack)
            queue_before = client.queue_status(rack)
            if queue_before["jobs"]["pending"] + queue_before["jobs"]["running"] == 0:
                raise SystemExit("queue drained before SIGTERM; smoke needs a backlog")
    finally:
        stop_daemon(proc)

    saved = saved_checkpoint(checkpoint)

    # --- second life: restore, re-plan, re-checkpoint, compare --------
    proc, port, suffix = boot(checkpoint)
    try:
        if "restored" not in suffix:
            raise SystemExit("second boot did not restore the checkpoint")
        with ServeClient(port=port) as client:
            queue_after = client.queue_status(rack)
            if queue_after != queue_before:
                raise SystemExit(
                    f"restore changed the queue status: {queue_before} "
                    f"-> {queue_after}"
                )
            plan_after = client.plan(rack)
            if plan_after != plan_before:
                raise SystemExit("restored planner produced a different plan")
            client.checkpoint()  # nothing ran, so this must be a no-op rewrite
    finally:
        stop_daemon(proc)

    if saved_checkpoint(checkpoint) != saved:
        raise SystemExit("restored state re-checkpointed differently")
    print(
        "serve: queue status and plan unchanged across restore, "
        "checkpoint byte-identical"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_shift.json",
                        help="benchmark record path")
    parser.add_argument("--days", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=2021)
    args = parser.parse_args()

    run_bench(args.out, args.days, args.seed)
    run_serve_cycle()
    print("shift smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
