"""The deadline-aware deferrable-job queue.

A :class:`ShiftJob` is the unit of deferrable work: a fixed energy
demand delivered at a constant power draw, runnable any time between
its earliest start and its deadline, worth ``value`` when it completes
(the deadline-bounded revenue abstraction of the time-sensitive-work
literature).  Jobs run as one contiguous block of whole scheduling
epochs — no preemption — which keeps the planner's placement space
small and the execution layer trivial to audit.

:class:`JobQueue` tracks every submitted job through its lifecycle
(``pending -> running -> done``, or ``pending -> missed`` when the
deadline becomes unreachable) in deterministic submission order, and
serializes to plain JSON for the serve daemon's checkpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterator

from repro.core.persistence import Field, check, dataclass_fields, dump, within
from repro.errors import ConfigurationError

#: Tolerance when deriving whole-epoch durations from energy/power, so a
#: job sized as "exactly two epochs of energy" never rounds up to three.
_EPOCH_EPS = 1e-9


@dataclass(frozen=True)
class ShiftJob:
    """One deferrable job.

    Attributes
    ----------
    job_id:
        Caller-chosen unique identifier.
    energy_wh:
        Total energy the job must receive to complete (Wh).
    power_w:
        Constant power draw while running (W); together with
        ``energy_wh`` this fixes the job's duration.
    earliest_start_s:
        The job may not start before this timestamp.
    deadline_s:
        The job must *finish* by this timestamp or it is missed.
    value:
        Utility of completing the job (the planner's objective currency;
        grid energy is priced against it).
    """

    job_id: str
    energy_wh: float
    power_w: float
    earliest_start_s: float
    deadline_s: float
    value: float = 1.0

    def __post_init__(self) -> None:
        # A non-finite field would reach the planner's epoch-count and
        # pricing arithmetic.
        check(vars(self), _JOB_FIELDS)
        if not self.job_id:
            raise ConfigurationError("job_id must be non-empty")
        if self.energy_wh <= 0 or self.power_w <= 0:
            raise ConfigurationError(f"job {self.job_id}: energy and power must be positive")
        if self.deadline_s <= self.earliest_start_s:
            raise ConfigurationError(
                f"job {self.job_id}: deadline must follow the earliest start"
            )

    def n_epochs(self, epoch_s: float) -> int:
        """Whole epochs the job occupies at its rated power."""
        if epoch_s <= 0:
            raise ConfigurationError("epoch length must be positive")
        epochs_exact = self.energy_wh * 3600.0 / (self.power_w * epoch_s)
        return max(1, math.ceil(epochs_exact - _EPOCH_EPS))

    def latest_start_s(self, epoch_s: float) -> float:
        """Latest epoch-start timestamp from which the deadline is met."""
        return self.deadline_s - self.n_epochs(epoch_s) * epoch_s

    def to_dict(self) -> dict[str, Any]:
        return dump(self, _JOB_FIELDS)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ShiftJob":
        """A job from :meth:`to_dict` output (a checkpoint or a ``submit``):
        ``true`` or ``"50"`` is not read as 1 or 50, nor ``7`` as ``"7"``."""
        return cls(**check(data, _JOB_FIELDS))


class JobStatus:
    """Lifecycle states (plain strings so they serialize trivially)."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    MISSED = "missed"

    ALL = (PENDING, RUNNING, DONE, MISSED)


#: The fields of a job, from its annotations, and of its lifecycle in a
#: queue checkpoint (all but ``status`` may be left out).
_JOB_FIELDS = dataclass_fields(ShiftJob, value=Field(lo=0.0))
_ENTRY_FIELDS = {"status": Field(str, choices=JobStatus.ALL), "started_s": Field(nullable=True),
                 "epochs_run": Field(int, lo=0), "completed_s": Field(nullable=True)}
_ENTRY_DEFAULTS = {"started_s": None, "epochs_run": 0, "completed_s": None}


class JobQueue:
    """All submitted jobs and their lifecycle, in submission order."""

    def __init__(self) -> None:
        self._jobs: dict[str, ShiftJob] = {}
        self._status: dict[str, str] = {}
        self._started_s: dict[str, float] = {}
        self._epochs_run: dict[str, int] = {}
        self._completed_s: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Submission and queries
    # ------------------------------------------------------------------
    def submit(self, job: ShiftJob) -> None:
        if job.job_id in self._jobs:
            raise ConfigurationError(f"duplicate job id {job.job_id!r}")
        self._jobs[job.job_id] = job
        self._status[job.job_id] = JobStatus.PENDING

    def __len__(self) -> int:
        return len(self._jobs)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._jobs

    def job(self, job_id: str) -> ShiftJob:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise ConfigurationError(f"unknown job {job_id!r}") from None

    def status(self, job_id: str) -> str:
        self.job(job_id)
        return self._status[job_id]

    def jobs(self) -> Iterator[ShiftJob]:
        """Every job, in submission order."""
        yield from self._jobs.values()

    def with_status(self, status: str) -> list[ShiftJob]:
        return [j for j in self._jobs.values() if self._status[j.job_id] == status]

    def pending(self) -> list[ShiftJob]:
        return self.with_status(JobStatus.PENDING)

    def running(self) -> list[ShiftJob]:
        return self.with_status(JobStatus.RUNNING)

    def epochs_run(self, job_id: str) -> int:
        """Epochs a running/finished job has already executed."""
        self.job(job_id)
        return self._epochs_run.get(job_id, 0)

    def started_s(self, job_id: str) -> float | None:
        self.job(job_id)
        return self._started_s.get(job_id)

    def backlog_wh(self) -> float:
        """Total energy demanded by jobs not yet started."""
        return sum(j.energy_wh for j in self.pending())

    # ------------------------------------------------------------------
    # Lifecycle transitions (driven by the runtime)
    # ------------------------------------------------------------------
    def mark_running(self, job_id: str, time_s: float) -> None:
        if self.status(job_id) != JobStatus.PENDING:
            raise ConfigurationError(
                f"job {job_id!r} is {self._status[job_id]}, cannot start"
            )
        self._status[job_id] = JobStatus.RUNNING
        self._started_s[job_id] = float(time_s)
        self._epochs_run[job_id] = 0

    def advance(self, job_id: str, epoch_s: float, time_s: float) -> None:
        """Account one executed epoch; completes the job when done."""
        if self.status(job_id) != JobStatus.RUNNING:
            raise ConfigurationError(f"job {job_id!r} is not running")
        self._epochs_run[job_id] += 1
        if self._epochs_run[job_id] >= self._jobs[job_id].n_epochs(epoch_s):
            self._status[job_id] = JobStatus.DONE
            self._completed_s[job_id] = float(time_s)

    def expire(self, time_s: float, epoch_s: float) -> list[str]:
        """Fail pending jobs whose deadline is no longer reachable.

        A job whose latest feasible epoch-start has passed can never
        complete; it transitions to ``missed`` and is returned.
        """
        missed = []
        for job in self.pending():
            if time_s > job.latest_start_s(epoch_s) + _EPOCH_EPS:
                self._status[job.job_id] = JobStatus.MISSED
                missed.append(job.job_id)
        return missed

    # ------------------------------------------------------------------
    # Summaries and serialization
    # ------------------------------------------------------------------
    def counts(self) -> dict[str, int]:
        counts = {status: 0 for status in JobStatus.ALL}
        for status in self._status.values():
            counts[status] += 1
        return counts

    def state_dict(self) -> dict[str, Any]:
        """JSON-ready full queue state, in submission order."""
        entries = []
        for job in self._jobs.values():
            entries.append(
                {
                    **job.to_dict(),
                    "status": self._status[job.job_id],
                    "started_s": self._started_s.get(job.job_id),
                    "epochs_run": self._epochs_run.get(job.job_id, 0),
                    "completed_s": self._completed_s.get(job.job_id),
                }
            )
        return {"jobs": entries}

    def load_state_dict(self, state: dict[str, Any]) -> None:
        """Replace the queue with a :meth:`state_dict` capture.

        Nothing is installed unless the whole state is valid.
        """
        staged = JobQueue()
        for i, entry in enumerate(check(state, {"jobs": Field(dict, many=True)})["jobs"]):
            with within(f"jobs.{i}"):
                job = ShiftJob.from_dict(entry)
                v = check({**_ENTRY_DEFAULTS, **entry}, _ENTRY_FIELDS)
            if job.job_id in staged:
                raise ConfigurationError(f"duplicate job id {job.job_id!r}")
            staged._jobs[job.job_id] = job
            staged._status[job.job_id] = v["status"]
            if v["started_s"] is not None:
                staged._started_s[job.job_id] = v["started_s"]
            if v["epochs_run"] or v["status"] in (JobStatus.RUNNING, JobStatus.DONE):
                staged._epochs_run[job.job_id] = v["epochs_run"]
            if v["completed_s"] is not None:
                staged._completed_s[job.job_id] = v["completed_s"]
        vars(self).update(vars(staged))
