"""The ``repro serve`` lifecycle shared by the CI smoke tools.

``serve_smoke.py``, ``shift_smoke.py`` and ``obs_smoke.py`` each boot
the daemon as a subprocess, talk to it over the wire, and stop it with
SIGTERM.  They import :func:`start_daemon` and :func:`stop_daemon` from
here and pass only their own ``repro serve`` flags; the two that restore
read the checkpoint the SIGTERM left through :func:`saved_checkpoint`.
Importing this module also puts the repository's ``src/`` on
``sys.path``, so the tools resolve ``repro`` whether or not it is
installed.
"""

from __future__ import annotations

import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: Child processes must resolve ``repro`` the same way the tools do,
#: installed or not.
ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    ),
}

#: The command every smoke boots; each tool appends its own flags.
SERVE = (sys.executable, "-m", "repro.cli", "serve", "--port", "0")
READY_RE = re.compile(r"serving \d+ rack\(s\) on ([\d.]+):(\d+)(.*)")
BOOT_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0


def start_daemon(*flags: str) -> tuple[subprocess.Popen, int, str]:
    """Boot ``repro serve`` with ``flags`` and wait for its readiness line.

    Returns the process, its port, and the rest of the readiness line
    (``" (restored from checkpoint)"`` after a restore).  The wait polls
    the pipe with :func:`select.select`, so a daemon that hangs without
    printing is killed at :data:`BOOT_TIMEOUT_S` too.
    """
    proc = subprocess.Popen(
        [*SERVE, *flags],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=ROOT,
        env=ENV,
    )
    assert proc.stdout is not None
    fd = proc.stdout.fileno()
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    pending = b""
    while True:
        remaining = deadline - time.monotonic()
        ready, _, _ = select.select([fd], [], [], max(0.0, remaining))
        if not ready:
            proc.kill()
            proc.communicate()
            raise SystemExit("daemon did not become ready in time")
        chunk = os.read(fd, 4096)
        if not chunk:
            proc.communicate()
            raise SystemExit(f"daemon exited during boot (rc={proc.returncode})")
        *lines, pending = (pending + chunk).split(b"\n")
        match = None
        for raw in lines:
            line = raw.decode()
            print(f"[daemon] {line}")
            match = match or READY_RE.match(line.strip())
        if match:
            return proc, int(match.group(2)), match.group(3)


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


def saved_checkpoint(directory: Path) -> bytes:
    """The fleet checkpoint document in ``directory``, as written.

    Fails unless the directory holds exactly that one document and every
    rack in it has learned at least one database pair.
    """
    from repro.serve.state import CHECKPOINT_NAME

    names = sorted(p.name for p in directory.iterdir())
    if names != [CHECKPOINT_NAME]:
        raise SystemExit(f"checkpoint directory holds {names}")
    blob = (directory / CHECKPOINT_NAME).read_bytes()
    racks = json.loads(blob)["racks"]
    unlearned = [
        name for name, rack in racks.items() if not rack["database"]["entries"]
    ]
    if not racks or unlearned:
        raise SystemExit(f"checkpoint racks without a database pair: {unlearned}")
    return blob
