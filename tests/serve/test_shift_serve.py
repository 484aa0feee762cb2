"""The serve daemon's temporal-shifting verbs and checkpointed plans."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import AllocationDaemon
from repro.serve.state import CHECKPOINT_NAME, ServeConfig, ServeState

#: All-batch rack: every group runs a deferrable workload.
BATCH = ServeConfig(
    platforms=(("E5-2620", 2), ("i5-4460", 2)),
    workload="Streamcluster",
    n_racks=1,
)

#: SPECjbb is interactive, so this rack has nothing to defer.
INTERACTIVE = ServeConfig(
    platforms=(("E5-2620", 2),), workload="SPECjbb", n_racks=1
)


def make_job(clock_s, job_id="j0", offset_epochs=0):
    return {
        "job_id": job_id,
        "energy_wh": 100.0,
        "power_w": 200.0,
        "earliest_start_s": clock_s + offset_epochs * 900.0,
        "deadline_s": clock_s + 24 * 3600.0,
        "value": 1.0,
    }


@pytest.fixture(scope="module")
def served():
    daemon = AllocationDaemon(ServeState.build(BATCH), port=0)
    thread = daemon.run_in_thread()
    yield daemon
    daemon.stop_from_thread()
    thread.join(timeout=30)


@pytest.fixture
def client(served):
    with ServeClient(port=served.port) as c:
        yield c


class TestVerbs:
    def test_submit_reports_queue(self, client):
        clock_s = client.queue_status("rack0")["clock_s"]
        status = client.submit("rack0", make_job(clock_s, "verb-submit"))
        assert status["rack"] == "rack0"
        assert status["activated"] is True
        assert status["jobs"]["pending"] >= 1

    def test_plan_names_decisions(self, client):
        clock_s = client.queue_status("rack0")["clock_s"]
        client.submit("rack0", make_job(clock_s, "verb-plan"))
        result = client.plan("rack0")
        assert result["rack"] == "rack0"
        plan = result["plan"]
        assert plan["policy"] == "shift"
        assert plan["horizon"] == 8
        placed = {p["job_id"] for p in plan["placements"]}
        assert "verb-plan" in placed | set(plan["unplaced"])

    def test_plan_is_idempotent(self, client):
        assert client.plan("rack0") == client.plan("rack0")

    def test_queue_status_shape(self, client):
        status = client.queue_status("rack0")
        assert set(status) >= {
            "rack", "clock_s", "activated", "jobs", "backlog_wh",
            "deadline_misses", "grid_avoided_wh", "epochs",
        }

    def test_duplicate_submit_rejected(self, client):
        clock_s = client.queue_status("rack0")["clock_s"]
        client.submit("rack0", make_job(clock_s, "verb-dup"))
        with pytest.raises(ServeError, match="duplicate"):
            client.submit("rack0", make_job(clock_s, "verb-dup"))

    def test_malformed_job_rejected(self, client):
        with pytest.raises(ServeError, match="job"):
            client.request("submit", rack="rack0")
        with pytest.raises(ServeError, match="energy_wh is missing"):
            client.submit("rack0", {"job_id": "incomplete"})

    def test_verbs_require_a_rack(self, client):
        for op in ("submit", "plan", "queue-status"):
            with pytest.raises(ServeError, match="rack"):
                client.request(op)

    def test_step_executes_submitted_jobs(self, served):
        # Fresh daemon so module-scope submissions don't interfere.
        daemon = AllocationDaemon(ServeState.build(BATCH), port=0)
        thread = daemon.run_in_thread()
        try:
            with ServeClient(port=daemon.port) as client:
                clock_s = client.queue_status("rack0")["clock_s"]
                client.submit("rack0", make_job(clock_s, "runner"))
                for _ in range(4):
                    client.step("rack0")
                status = client.queue_status("rack0")
                assert status["jobs"]["done"] == 1
                assert status["epochs"] == 4
        finally:
            daemon.stop_from_thread()
            thread.join(timeout=30)

    @pytest.mark.parametrize("field", ["energy_wh", "earliest_start_s"])
    def test_non_finite_job_rejected_and_rack_keeps_stepping(self, field):
        # A bare NaN is valid to the daemon's JSON parser; the job must
        # be refused before it reaches the queue, or every later step fails.
        daemon = AllocationDaemon(ServeState.build(BATCH), port=0)
        thread = daemon.run_in_thread()
        try:
            with ServeClient(port=daemon.port) as client:
                clock_s = client.queue_status("rack0")["clock_s"]
                job = {**make_job(clock_s, "nan-job"), field: float("nan")}
                with pytest.raises(ServeError, match="must be finite") as err:
                    client.submit("rack0", job)
                assert err.value.error_type == "ConfigurationError"
                for _ in range(3):
                    client.step("rack0")
                status = client.queue_status("rack0")
                assert status["epochs"] == 3
                assert sum(status["jobs"].values()) == 0
        finally:
            daemon.stop_from_thread()
            thread.join(timeout=30)


    @pytest.mark.parametrize(
        "field, value", [("power_w", True), ("energy_wh", "50"), ("job_id", 7)]
    )
    def test_submit_does_not_coerce_job_fields(self, client, field, value):
        # ``true`` would be a 1 W job, ``"50"`` 50 Wh and ``7`` the id "7".
        clock_s = client.queue_status("rack0")["clock_s"]
        before = client.queue_status("rack0")["jobs"]
        job = {**make_job(clock_s, "coerced"), field: value}
        with pytest.raises(ServeError, match=f"{field} must be a") as err:
            client.submit("rack0", job)
        assert err.value.error_type == "ConfigurationError"
        assert client.queue_status("rack0")["jobs"] == before


class TestInteractiveRackRejected:
    def test_submit_needs_deferrable_groups(self):
        state = ServeState.build(INTERACTIVE)
        with pytest.raises(ConfigurationError, match="no deferrable groups"):
            state.rack("rack0").submit(make_job(0.0))


class TestCheckpointedPlans:
    def test_restore_with_nonempty_queue_is_bit_identical(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        state = ServeState.build(BATCH, checkpoint_dir=ckpt)
        host = state.rack("rack0")
        host.submit(make_job(host.clock_s, "ride-along"))
        host.submit(make_job(host.clock_s, "pending", offset_epochs=40))
        host.step()
        host.step()
        host.plan()
        state.checkpoint()
        want = (ckpt / CHECKPOINT_NAME).read_bytes()
        counts = host.shift.queue.counts()
        assert counts["pending"] >= 1  # the backlog must survive

        restored = ServeState.build(BATCH, checkpoint_dir=ckpt)
        assert restored.restored
        again = restored.rack("rack0")
        assert again.shift.queue.counts() == counts
        # The whole roll-up survives, its running totals included.
        assert again.queue_status() == host.queue_status()
        assert again.queue_status()["epochs"] == 2
        assert again.shift.state_dict() == host.shift.state_dict()
        # Replanning from restored state reproduces the old decision.
        assert again.plan() == host.plan()
        restored.checkpoint()
        assert (ckpt / CHECKPOINT_NAME).read_bytes() == want

    def test_checkpoints_without_shift_state_are_rejected(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        state = ServeState.build(BATCH, checkpoint_dir=ckpt)
        state.rack("rack0").step()
        state.checkpoint()
        # Strip the shift section, as a pre-shift daemon would have
        # written it; such (version-1) documents are no longer read.
        doc_path = ckpt / CHECKPOINT_NAME
        document = json.loads(doc_path.read_text())
        document["racks"]["rack0"].pop("shift")
        doc_path.write_text(json.dumps(document, indent=2, sort_keys=True))

        with pytest.raises(ConfigurationError, match="components"):
            ServeState.build(BATCH, checkpoint_dir=ckpt)
