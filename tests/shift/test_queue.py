"""Deferrable job queue: validation, lifecycle, expiry, serialization."""

import pytest

from repro.errors import ConfigurationError
from repro.shift.queue import JobQueue, JobStatus, ShiftJob

EPOCH = 900.0


def job(job_id="j0", energy_wh=150.0, power_w=300.0,
        earliest_start_s=0.0, deadline_s=7200.0, value=1.0):
    return ShiftJob(
        job_id=job_id,
        energy_wh=energy_wh,
        power_w=power_w,
        earliest_start_s=earliest_start_s,
        deadline_s=deadline_s,
        value=value,
    )


class TestShiftJob:
    def test_duration_rounds_to_whole_epochs(self):
        # 150 Wh at 300 W = 30 min = exactly 2 epochs.
        assert job().n_epochs(EPOCH) == 2
        # A hair more energy must round up, a hair less must not round up
        # past the exact count.
        assert job(energy_wh=151.0).n_epochs(EPOCH) == 3
        assert job(energy_wh=149.999999).n_epochs(EPOCH) == 2

    def test_latest_start_leaves_room_for_full_run(self):
        j = job(deadline_s=7200.0)
        assert j.latest_start_s(EPOCH) == 7200.0 - 2 * EPOCH

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"job_id": ""},
            {"energy_wh": 0.0},
            {"power_w": -1.0},
            {"deadline_s": 0.0, "earliest_start_s": 0.0},
            {"value": -0.5},
        ],
    )
    def test_invalid_jobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            job(**kwargs)

    def test_dict_roundtrip(self):
        j = job()
        assert ShiftJob.from_dict(j.to_dict()) == j

    def test_malformed_dict_rejected(self):
        with pytest.raises(ConfigurationError, match="energy_wh is missing"):
            ShiftJob.from_dict({"job_id": "x"})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field", ["energy_wh", "power_w", "earliest_start_s", "deadline_s", "value"]
    )
    def test_non_finite_field_rejected(self, field, bad):
        data = {**job().to_dict(), field: bad}
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            ShiftJob.from_dict(data)


class TestLifecycle:
    def test_submission_order_preserved(self):
        q = JobQueue()
        for i in (3, 1, 2):
            q.submit(job(job_id=f"j{i}"))
        assert [j.job_id for j in q.jobs()] == ["j3", "j1", "j2"]

    def test_duplicate_id_rejected(self):
        q = JobQueue()
        q.submit(job())
        with pytest.raises(ConfigurationError, match="duplicate"):
            q.submit(job())

    def test_run_to_completion(self):
        q = JobQueue()
        q.submit(job())  # 2 epochs
        q.mark_running("j0", 0.0)
        assert q.status("j0") == JobStatus.RUNNING
        q.advance("j0", EPOCH, EPOCH)
        assert q.status("j0") == JobStatus.RUNNING
        q.advance("j0", EPOCH, 2 * EPOCH)
        assert q.status("j0") == JobStatus.DONE
        assert q.backlog_wh() == 0.0

    def test_cannot_start_twice(self):
        q = JobQueue()
        q.submit(job())
        q.mark_running("j0", 0.0)
        with pytest.raises(ConfigurationError):
            q.mark_running("j0", 0.0)

    def test_expire_marks_unreachable_deadlines(self):
        q = JobQueue()
        q.submit(job(job_id="tight", deadline_s=2 * EPOCH))
        q.submit(job(job_id="loose", deadline_s=10 * EPOCH))
        # At t=0 both are startable; one epoch later "tight" can no
        # longer fit its two epochs before the deadline.
        assert q.expire(0.0, EPOCH) == []
        assert q.expire(EPOCH, EPOCH) == ["tight"]
        assert q.status("tight") == JobStatus.MISSED
        assert q.status("loose") == JobStatus.PENDING

    def test_counts(self):
        q = JobQueue()
        q.submit(job(job_id="a"))
        q.submit(job(job_id="b"))
        q.mark_running("a", 0.0)
        assert q.counts() == {"pending": 1, "running": 1, "done": 0, "missed": 0}


class TestSerialization:
    def test_state_roundtrip_preserves_everything(self):
        q = JobQueue()
        q.submit(job(job_id="a"))
        q.submit(job(job_id="b", deadline_s=2 * EPOCH))
        q.submit(job(job_id="c"))
        q.mark_running("a", 0.0)
        q.advance("a", EPOCH, EPOCH)
        q.expire(EPOCH, EPOCH)  # misses "b"

        restored = JobQueue()
        restored.load_state_dict(q.state_dict())
        assert restored.state_dict() == q.state_dict()
        assert restored.status("a") == JobStatus.RUNNING
        assert restored.epochs_run("a") == 1
        assert restored.status("b") == JobStatus.MISSED
        assert restored.status("c") == JobStatus.PENDING
        assert [j.job_id for j in restored.jobs()] == ["a", "b", "c"]

    def test_malformed_state_rejected(self):
        with pytest.raises(ConfigurationError, match="jobs.0.energy_wh is missing"):
            JobQueue().load_state_dict({"jobs": [{"job_id": "x"}]})
        with pytest.raises(ConfigurationError, match="jobs.0.status must be one of"):
            JobQueue().load_state_dict(
                {"jobs": [{**job().to_dict(), "status": "paused"}]}
            )
        with pytest.raises(ConfigurationError, match="duplicate"):
            JobQueue().load_state_dict(
                {"jobs": [{**job().to_dict(), "status": "pending"}] * 2}
            )
