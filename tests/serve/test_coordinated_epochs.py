"""Coordinated (shared-grid) serve epochs run the same epoch as any other.

Cluster steps and single-rack steps both go through
``Simulation.step``: shift gating, the invariant audit and the epoch
counter behave identically on either path.
"""

from repro.serve.state import ServeConfig, ServeState
from repro.shift.queue import JobStatus

#: Two Canneal racks (a deferrable batch workload) on a shared grid.
CANNEAL = ServeConfig(
    n_racks=2, seed=2021, shared_grid_w=2000.0, workload="Canneal"
)

DEADLINE_EPOCHS = 12


def submit_job(state: ServeState) -> str:
    host = state.rack("rack0")
    epoch_s = host.controller.epoch_s
    host.submit(
        {
            "job_id": "deadline-job",
            "energy_wh": 200.0,
            "power_w": 400.0,
            "earliest_start_s": host.clock_s,
            "deadline_s": host.clock_s + DEADLINE_EPOCHS * epoch_s,
            "value": 1.0,
        }
    )
    return "deadline-job"


class TestCoordinatedShift:
    def test_cluster_steps_run_the_shift_runtime(self):
        clustered = ServeState.build(CANNEAL)
        job_id = submit_job(clustered)
        for _ in range(DEADLINE_EPOCHS):
            clustered.step_cluster()
        shift = clustered.rack("rack0").shift
        status = shift.queue.status(job_id)
        assert status != JobStatus.PENDING
        assert len(shift.log) == DEADLINE_EPOCHS

        single = ServeState.build(CANNEAL)
        submit_job(single)
        host = single.rack("rack0")
        for _ in range(DEADLINE_EPOCHS):
            host.step()
        assert status == host.shift.queue.status(job_id)


class TestPerRackAudit:
    def test_status_reports_every_served_epoch_audited(self):
        k = 3
        state = ServeState.build(
            ServeConfig(n_racks=2, seed=2021, shared_grid_w=2000.0)
        )
        for host in state.racks.values():
            for _ in range(k):
                host.step()
        for _ in range(k):
            state.step_cluster()
        racks = state.status()["racks"]
        for name in state.rack_names():
            audit = racks[name]["audit"]
            assert audit["epochs_audited"] == 2 * k
            assert audit["violations"] == 0
            assert audit["strict"] is False
