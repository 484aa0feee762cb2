#!/usr/bin/env python3
"""End-to-end smoke test of the serving daemon (run by CI).

Exercises the full operational story as a real deployment would see it:

1. boot ``repro serve`` as a subprocess with a checkpoint directory,
2. send ``rack0`` a fixed script of allocations (4 new budgets, each 3
   times) and check from the ``cache-stats`` deltas that each budget
   costs one solve and its repeats hit the solver cache; then
   checkpoint, keep a copy of the checkpoint, and step ``rack0`` a few
   more epochs,
3. stop it with SIGTERM and check the shutdown checkpoint: one
   document, with at least one learned database pair per rack,
4. boot a second daemon from the same checkpoint directory and verify
   it restores — and that re-checkpointing the restored state writes
   a byte-identical document,
5. boot a third daemon from the copy and verify that stepping ``rack0``
   reproduces the first daemon's epochs after the copy, record for
   record.

Any error response fails the smoke.  Request rates, latency and boot
time are perfbench ``serve-fleet``'s job, not this tool's.  Exit status
is non-zero on any failure.  Usage:

    python tools/serve_smoke.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from smoke_daemon import saved_checkpoint, start_daemon, stop_daemon

from repro.serve.client import ServeClient

#: Epochs stepped on ``rack0`` after the mid-life checkpoint, by both
#: the first daemon and the one restored from that checkpoint.
RESUME_STEPS = 3
#: Allocation budgets of the cache check, as fractions of ``rack0``'s
#: planned budget; the run solves none of them earlier.
CACHE_FRACTIONS = (0.55, 0.65, 0.75, 0.85)
#: Times each cache-check budget is sent: one miss, then hits.
CACHE_REPEATS = 3


def step_records(client, rack: str) -> list[dict]:
    """Step ``rack`` :data:`RESUME_STEPS` times; the epoch events without
    the solver cache counters (the memo cache is not checkpointed)."""
    records = []
    for _ in range(RESUME_STEPS):
        event = client.step(rack)
        event.pop("solver_cache", None)
        records.append(event)
    return records


def check_solver_cache(client: ServeClient) -> None:
    """Each new budget costs one solve; its repeats hit the solver cache."""
    planned = client.forecast("rack0")["budget_w"]
    before = client.cache_stats()["racks"]["rack0"]["solver_cache"]
    for fraction in CACHE_FRACTIONS:
        for _ in range(CACHE_REPEATS):
            client.allocate("rack0", budget_w=fraction * planned)
    after = client.cache_stats()["racks"]["rack0"]["solver_cache"]
    misses = after["misses"] - before["misses"]
    hits = after["hits"] - before["hits"]
    want = (len(CACHE_FRACTIONS), len(CACHE_FRACTIONS) * (CACHE_REPEATS - 1))
    if (misses, hits) != want:
        raise SystemExit(
            f"solver cache: {misses} misses, {hits} hits; "
            f"expected {want[0]} misses, {want[1]} hits"
        )
    print(f"solver cache: {misses} misses, {hits} hits — OK")


def boot(checkpoint: Path, audit: Path) -> tuple[subprocess.Popen, int, str]:
    """A two-rack daemon checkpointing to ``checkpoint``."""
    return start_daemon(
        "--racks", "2",
        "--checkpoint", str(checkpoint),
        "--audit-log", str(audit),
    )


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="serve-smoke-"))
    checkpoint = tmp / "checkpoint"
    resume = tmp / "resume"
    audit = tmp / "audit.jsonl"

    # --- first life: cold boot, cache check, SIGTERM ------------------
    proc, port, suffix = boot(checkpoint, audit)
    try:
        if "restored" in suffix:
            raise SystemExit("first boot claims a restore from an empty directory")
        with ServeClient(port=port) as client:
            client.step("rack0")  # learn something worth checkpointing
            client.step("rack1")
            check_solver_cache(client)
            client.checkpoint()
            shutil.copytree(checkpoint, resume)
            first_life = step_records(client, "rack0")
    finally:
        stop_daemon(proc)

    saved = saved_checkpoint(checkpoint)

    # --- second life: restore, re-checkpoint, compare -----------------
    proc, port, suffix = boot(checkpoint, audit)
    try:
        if "restored" not in suffix:
            raise SystemExit("second boot did not restore the checkpoint")
        with ServeClient(port=port) as client:
            status = client.status()
            if not status["restored"]:
                raise SystemExit("daemon status does not report restored=true")
            if status["racks"]["rack0"]["epochs"] < 1:
                raise SystemExit("restored rack lost its epoch counter")
            client.checkpoint()  # nothing ran, so this must be a no-op rewrite
    finally:
        stop_daemon(proc)

    if saved_checkpoint(checkpoint) != saved:
        raise SystemExit("restored state re-checkpointed differently")

    # --- third life: resume from the mid-life copy, step, compare ------
    proc, port, suffix = boot(resume, audit)
    try:
        if "restored" not in suffix:
            raise SystemExit("third boot did not restore the copied checkpoint")
        with ServeClient(port=port) as client:
            resumed = step_records(client, "rack0")
    finally:
        stop_daemon(proc)
    if resumed != first_life:
        raise SystemExit(
            f"restored daemon diverged from the first life's {RESUME_STEPS} "
            f"epochs after the checkpoint:\n{first_life}\n{resumed}"
        )
    print(f"resume: {RESUME_STEPS} epochs after the checkpoint identical")

    audit_lines = audit.read_text().splitlines()
    print(f"audit stream: {len(audit_lines)} events across the three lives")
    print("serve smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
