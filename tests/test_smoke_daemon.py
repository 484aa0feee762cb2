"""``tools/smoke_daemon.py``: the daemon lifecycle the CI smoke tools share."""

import importlib.util
import sys
import time
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "smoke_daemon.py"
_SPEC = importlib.util.spec_from_file_location("smoke_daemon", _PATH)
smoke_daemon = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(smoke_daemon)


def test_silent_boot_is_killed_at_the_deadline(monkeypatch):
    # A child that never prints: the wait must not block on its pipe.
    monkeypatch.setattr(
        smoke_daemon, "SERVE", (sys.executable, "-c", "import time; time.sleep(60)")
    )
    monkeypatch.setattr(smoke_daemon, "BOOT_TIMEOUT_S", 1.0)
    start = time.monotonic()
    with pytest.raises(SystemExit, match="did not become ready in time"):
        smoke_daemon.start_daemon()
    assert time.monotonic() - start < 10.0


def test_child_that_exits_during_boot_is_reported(monkeypatch):
    monkeypatch.setattr(
        smoke_daemon,
        "SERVE",
        (sys.executable, "-c", "print('booting'); raise SystemExit(3)"),
    )
    with pytest.raises(SystemExit, match=r"exited during boot \(rc=3\)"):
        smoke_daemon.start_daemon()


def test_ready_line_yields_port_and_suffix(monkeypatch):
    script = (
        "import sys, time\n"
        "print('warming up')\n"
        "print('serving 2 rack(s) on 127.0.0.1:4321 (restored from checkpoint)')\n"
        "sys.stdout.flush()\n"
        "time.sleep(60)\n"
    )
    monkeypatch.setattr(smoke_daemon, "SERVE", (sys.executable, "-c", script))
    proc, port, suffix = smoke_daemon.start_daemon()
    try:
        assert port == 4321
        assert suffix == " (restored from checkpoint)"
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
