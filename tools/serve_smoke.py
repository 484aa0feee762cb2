#!/usr/bin/env python3
"""End-to-end smoke test of the serving daemon (run by CI).

Exercises the full operational story as a real deployment would see it:

1. boot ``repro serve`` as a subprocess with a checkpoint directory,
2. fire a bounded ``loadgen`` burst at it (writes ``BENCH_serve.json``),
   then checkpoint, keep a copy of the checkpoint, and step ``rack0``
   a few more epochs,
3. stop it with SIGTERM and check the shutdown checkpoint exists,
4. boot a second daemon from the same checkpoint directory and verify
   it restores — and that re-checkpointing the restored state writes
   byte-identical state,
5. boot a third daemon from the copy and verify that stepping ``rack0``
   reproduces the first daemon's epochs after the copy, record for
   record.

``BENCH_serve.json`` also gets ``boot_s``: each boot's seconds from
launch to the readiness line, in boot order (a report of the cold start,
not a gate).  Exit status is non-zero on any failure.  Usage:

    python tools/serve_smoke.py [--out BENCH_serve.json]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: Child processes must resolve ``repro`` the same way this script does,
#: installed or not.
ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    ),
}

from repro.serve.loadgen import format_summary, run_loadgen  # noqa: E402

READY_RE = re.compile(r"serving \d+ rack\(s\) on ([\d.]+):(\d+)(.*)")
BOOT_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0
#: Epochs stepped on ``rack0`` after the mid-life checkpoint, by both
#: the first daemon and the one restored from that checkpoint.
RESUME_STEPS = 3


def step_records(client, rack: str) -> list[dict]:
    """Step ``rack`` :data:`RESUME_STEPS` times; the epoch events without
    the solver cache counters (the memo cache is not checkpointed)."""
    records = []
    for _ in range(RESUME_STEPS):
        event = client.step(rack)
        event.pop("solver_cache", None)
        records.append(event)
    return records


def start_daemon(checkpoint: Path, audit: Path) -> tuple[subprocess.Popen, int, str, float]:
    """Boot ``repro serve`` and wait for its readiness line; also returns
    the seconds from launch to that line."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0",
            "--racks", "2",
            "--checkpoint", str(checkpoint),
            "--audit-log", str(audit),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=ROOT,
        env=ENV,
    )
    assert proc.stdout is not None
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    while True:
        if time.monotonic() > deadline:
            proc.kill()
            raise SystemExit("daemon did not become ready in time")
        line = proc.stdout.readline()
        if not line:
            proc.wait()
            raise SystemExit(f"daemon exited during boot (rc={proc.returncode})")
        print(f"[daemon] {line.rstrip()}")
        match = READY_RE.match(line.strip())
        if match:
            return proc, int(match.group(2)), match.group(3), time.perf_counter() - start


def stop_daemon(proc: subprocess.Popen) -> None:
    """SIGTERM and wait for the graceful checkpoint-and-exit."""
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=STOP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise SystemExit("daemon ignored SIGTERM")
    if proc.returncode != 0:
        raise SystemExit(f"daemon exited rc={proc.returncode}")
    assert proc.stdout is not None
    for line in proc.stdout:
        print(f"[daemon] {line.rstrip()}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_serve.json",
                        help="benchmark record path")
    parser.add_argument("--requests", type=int, default=120)
    parser.add_argument("--connections", type=int, default=4)
    args = parser.parse_args()

    tmp = Path(tempfile.mkdtemp(prefix="serve-smoke-"))
    checkpoint = tmp / "checkpoint"
    resume = tmp / "resume"
    audit = tmp / "audit.jsonl"

    boot_s = []

    # --- first life: cold boot, burst, SIGTERM ------------------------
    proc, port, suffix, seconds = start_daemon(checkpoint, audit)
    boot_s.append(seconds)
    if "restored" in suffix:
        raise SystemExit("first boot claims a restore from an empty directory")
    try:
        from repro.serve.client import ServeClient

        with ServeClient(port=port) as client:
            client.step("rack0")  # learn something worth checkpointing
            client.step("rack1")
        result = run_loadgen(
            port=port,
            connections=args.connections,
            requests=args.requests,
            out=args.out,
        )
        print(format_summary(result))
        if result["errors"]:
            raise SystemExit(f"loadgen saw {result['errors']} errors")
        cache = result["cache_after"]["racks"]["rack0"]["solver_cache"]
        if cache["hits"] == 0:
            raise SystemExit("duplicate queries never hit the solver cache")
        with ServeClient(port=port) as client:
            client.checkpoint()
            shutil.copytree(checkpoint, resume)
            first_life = step_records(client, "rack0")
    finally:
        stop_daemon(proc)

    manifest = checkpoint / "manifest.json"
    if not manifest.exists():
        raise SystemExit("SIGTERM did not leave a checkpoint manifest")
    saved = {
        p.name: p.read_bytes()
        for p in checkpoint.iterdir()
        if p.name != "manifest.json"
    }
    if not any(name.endswith(".database.json") for name in saved):
        raise SystemExit("checkpoint holds no rack databases")

    # --- second life: restore, re-checkpoint, compare -----------------
    proc, port, suffix, seconds = start_daemon(checkpoint, audit)
    boot_s.append(seconds)
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

    for name, blob in saved.items():
        now = (checkpoint / name).read_bytes()
        if now != blob:
            raise SystemExit(f"restored state re-checkpointed differently: {name}")

    # --- third life: resume from the mid-life copy, step, compare ------
    proc, port, suffix, seconds = start_daemon(resume, audit)
    boot_s.append(seconds)
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

    bench = json.loads(Path(args.out).read_text())
    bench["boot_s"] = boot_s
    Path(args.out).write_text(json.dumps(bench, indent=2, sort_keys=True))
    print("boot: " + ", ".join(f"{s:.2f} s" for s in boot_s))

    audit_lines = audit.read_text().splitlines()
    print(f"audit stream: {len(audit_lines)} events across the three lives")
    print("serve smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
