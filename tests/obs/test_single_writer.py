"""Each process writes its metrics from one thread.

``Counter.inc``, ``Gauge.set`` and ``Histogram.observe`` take no lock
on that rule (``repro.obs`` module docstring, DESIGN.md §12).  These
tests record the thread behind every write, spans included, while a
daemon serves cluster steps and allocates and while a sim runs a lap.
"""

import threading

import pytest

from repro.obs.bench import _assemble
from repro.obs.metrics import Counter, Gauge, Histogram, obs_enabled, set_enabled
from repro.obs.tracing import Span
from repro.serve.client import ServeClient
from repro.serve.daemon import AllocationDaemon
from repro.serve.state import ServeConfig, ServeState


@pytest.fixture
def writers(monkeypatch):
    """The idents of the threads that write any metric."""
    before = obs_enabled()
    set_enabled(True)
    seen = set()

    def recording(method):
        def write(self, *args, **kwargs):
            seen.add(threading.get_ident())
            return method(self, *args, **kwargs)
        return write

    for cls, name in (
        (Counter, "inc"), (Gauge, "set"), (Histogram, "observe"), (Span, "__exit__"),
    ):
        monkeypatch.setattr(cls, name, recording(getattr(cls, name)))
    yield seen
    set_enabled(before)


def test_a_served_fleet_writes_from_its_loop_thread(writers, tmp_path):
    state = ServeState.build(
        ServeConfig(platforms=(("E5-2620", 2), ("i5-4460", 2)), n_racks=2,
                    seed=2021, shared_grid_w=2000.0),
    )
    writers.clear()  # building the fleet happens before the loop starts
    daemon = AllocationDaemon(
        state, port=0, audit_log=tmp_path / "audit.jsonl", metrics_interval_s=0.05,
    )
    thread = daemon.run_in_thread()
    try:
        with ServeClient(port=daemon.port) as client:
            for _ in range(3):
                assert len(client.step()["racks"]) == 2  # a coordinated step
                for rack in ("rack0", "rack1"):
                    client.allocate(rack)
                    client.allocate(rack, budget_w=400.0)
            client.metrics()
    finally:
        daemon.stop_from_thread()
        thread.join(timeout=30)
    assert writers == {thread.ident}


def test_a_sim_lap_writes_from_its_own_thread(writers):
    sim = _assemble(days=0.25, seed=2021)
    sim.run()
    assert writers == {threading.get_ident()}
