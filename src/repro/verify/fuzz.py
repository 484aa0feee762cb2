"""Checkpoint fuzzing for serve/shift state: round trips, cuts, values.

The serve daemon's restore promise is bit-identical learned state; this
module stress-tests it with seeded randomized instances of the
checkpointed components — Holt predictors, job queues, shift runtimes,
profiling databases, batteries, source selectors, monitors, and serve
configs — asserting that ``state_dict -> load_state_dict -> state_dict``
is a fixed point (canonical-JSON equality, the same representation the
checkpoint files use).  It also checks the whole fleet checkpoint: a
restored fleet re-checkpoints byte for byte, and the same document cut
at random byte offsets (a torn write) is rejected with
:class:`~repro.errors.ConfigurationError`, never a bare exception.

Last, it mutates values.  A coordinated two-rack fleet with a queued
shift job on each rack steps three cluster epochs and checkpoints; each
case writes one leaf of that checkpoint (keeping the first two entries
of every list) back as NaN, inf, -1, -1e9, ``true``, ``"x"`` or
``null``.  The restore must raise ``ConfigurationError``, or restore a
fleet whose own checkpoint holds the leaf exactly as written (``true``
is not 1; ``1`` equals ``1.0``) and that then steps three epochs.

The serve/shift imports are function-local: the verify package is
imported by the simulation engine, and pulling :mod:`repro.serve.state`
at module import time would close an import cycle through the engine.
"""

from __future__ import annotations

import copy
import json
import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class FuzzReport:
    """Result of :func:`fuzz_round_trips`."""

    n_cases: int
    failures: tuple[str, ...]
    #: Value mutations among ``n_cases``, and how many restores rejected.
    n_mutations: int = 0
    n_rejected: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        if self.passed:
            return (
                f"fuzz: {self.n_cases} checkpoint cases, every round trip "
                "a fixed point, every torn checkpoint rejected; "
                f"{self.n_mutations} value mutations, {self.n_rejected} rejected "
                "and the rest restored as written"
            )
        lines = [f"fuzz: {len(self.failures)}/{self.n_cases} checkpoint cases FAILED"]
        lines.extend(f"  {failure}" for failure in self.failures[:10])
        if len(self.failures) > 10:
            lines.append(f"  ... and {len(self.failures) - 10} more")
        return "\n".join(lines)


def _canon(document: object) -> str:
    """Canonical JSON — the equality the checkpoint files actually use."""
    return json.dumps(document, sort_keys=True)


def _fixed_point(original, fresh) -> str | None:
    """``state_dict`` -> JSON text -> ``load_state_dict`` into ``fresh`` ->
    ``state_dict``; returns an error string unless both states agree."""
    before = _canon(original.state_dict())
    fresh.load_state_dict(json.loads(before))
    if _canon(fresh.state_dict()) != before:
        return f"{type(original).__name__}: state diverged after restore"
    return None


# ----------------------------------------------------------------------
# Per-kind random instances.  Each returns (populated, fresh) components.
# ----------------------------------------------------------------------
def _predictor(rng: random.Random):
    from repro.core.predictor import HoltPredictor

    predictor = HoltPredictor(
        alpha=rng.random(), beta=rng.random(), nonnegative=rng.random() < 0.5
    )
    for _ in range(rng.randint(0, 12)):
        predictor.observe(rng.uniform(0.0, 2000.0))
    return predictor, HoltPredictor()


def _random_job(rng: random.Random, job_id: str):
    from repro.shift.queue import ShiftJob

    start = rng.uniform(0.0, 86400.0)
    return ShiftJob(
        job_id=job_id,
        energy_wh=rng.uniform(10.0, 500.0),
        power_w=rng.uniform(50.0, 400.0),
        earliest_start_s=start,
        deadline_s=start + rng.uniform(3600.0, 86400.0),
        value=rng.uniform(0.0, 10.0),
    )


def _queue(rng: random.Random):
    from repro.shift.queue import JobQueue, JobStatus

    epoch_s = 900.0
    queue = JobQueue()
    for i in range(rng.randint(0, 6)):
        job = _random_job(rng, f"job-{i}")
        queue.submit(job)
        roll = rng.random()
        if roll < 0.4:
            queue.mark_running(job.job_id, job.earliest_start_s)
            for _ in range(rng.randint(0, job.n_epochs(epoch_s))):
                if queue.status(job.job_id) == JobStatus.RUNNING:
                    queue.advance(
                        job.job_id, epoch_s, job.earliest_start_s + epoch_s
                    )
        elif roll < 0.5:
            queue.expire(job.deadline_s + epoch_s, epoch_s)
    return queue, JobQueue()


def _shift_runtime(rng: random.Random):
    from repro.shift.runtime import ShiftRuntime

    runtime = ShiftRuntime()
    for i in range(rng.randint(0, 4)):
        runtime.submit(_random_job(rng, f"job-{i}"))
    for _ in range(rng.randint(0, 8)):
        runtime._interactive_predictor.observe(rng.uniform(0.0, 1500.0))
    runtime._start_baseline_wh = {
        f"job-{i}": rng.uniform(0.0, 100.0) for i in range(rng.randint(0, 3))
    }
    return runtime, ShiftRuntime()


def _database(rng: random.Random):
    from repro.core.database import ProfilingDatabase

    database = ProfilingDatabase()
    for i in range(rng.randint(1, 3)):
        key = (f"platform-{i}", f"workload-{i % 2}")
        idle = rng.uniform(20.0, 60.0)
        samples = []
        for _ in range(rng.randint(4, 8)):
            power = idle + rng.uniform(5.0, 150.0)
            samples.append((power, rng.uniform(1.0, 500.0)))
        database.ingest_training_run(key, idle, samples)
    return database, ProfilingDatabase()


def _battery(rng: random.Random):
    from repro.power.battery import BatteryBank

    battery = BatteryBank(initial_soc_fraction=rng.uniform(0.6, 1.0))
    for _ in range(rng.randint(0, 6)):
        battery.discharge(rng.uniform(0.0, 3000.0), 900.0)
        battery.charge(rng.uniform(0.0, 1500.0), 900.0)
    return battery, BatteryBank()


def _selector(rng: random.Random):
    from repro.core.sources import RationedSourceSelector

    selector = RationedSourceSelector()
    selector._grid_mode = rng.random() < 0.5
    selector._dark_elapsed_s = rng.uniform(0.0, 43200.0)
    return selector, RationedSourceSelector()


def _monitor(rng: random.Random):
    from repro.core.monitor import Monitor

    monitor = Monitor(seed=rng.randint(0, 10_000))
    for _ in range(rng.randint(0, 8)):
        monitor.observe_renewable(rng.uniform(1.0, 1500.0))
    return monitor, Monitor()


class _ConfigHolder:
    """A :class:`~repro.serve.state.ServeConfig` behind the state protocol."""

    def __init__(self, config=None) -> None:
        self.config = config

    def state_dict(self):
        return self.config.to_dict()

    def load_state_dict(self, state) -> None:
        from repro.serve.state import ServeConfig

        self.config = ServeConfig.from_dict(state)


def _serve_config(rng: random.Random):
    from repro.serve.state import ServeConfig
    from repro.traces.nrel import Weather

    config = ServeConfig(
        platforms=(("E5-2620", rng.randint(1, 8)), ("i5-4460", rng.randint(1, 8))),
        workload=rng.choice(["SPECjbb", "Memcached"]),
        policy=rng.choice(["GreenHetero", "Uniform"]),
        n_racks=rng.randint(1, 4),
        weather=rng.choice(list(Weather)),
        seed=rng.randint(0, 10_000),
        shared_grid_w=rng.choice([None, rng.uniform(500.0, 5000.0)]),
        epoch_s=rng.choice([300.0, 900.0]),
        shift_horizon=rng.randint(1, 16),
    )
    return _ConfigHolder(config), _ConfigHolder()


_KINDS = (
    _predictor,
    _queue,
    _shift_runtime,
    _database,
    _battery,
    _selector,
    _monitor,
    _serve_config,
)


def _fleet_checkpoint(rng: random.Random, n_cuts: int) -> list[str]:
    """Round-trip one small coordinated fleet's checkpoint, then restore
    ``n_cuts`` copies of it cut short at random byte offsets."""
    import tempfile
    from pathlib import Path

    from repro.errors import ConfigurationError
    from repro.serve.state import CHECKPOINT_NAME, ServeConfig, ServeState

    config = ServeConfig(
        platforms=(("E5-2620", 1), ("i5-4460", 1)),
        n_racks=2,
        shared_grid_w=rng.uniform(300.0, 1500.0),
    )
    failures = []
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as tmp:
        state = ServeState.build(config, checkpoint_dir=Path(tmp) / "whole")
        for _ in range(rng.randint(1, 4)):
            state.step_cluster()
        blob = (state.checkpoint() / CHECKPOINT_NAME).read_bytes()
        restored = ServeState.build(checkpoint_dir=state.checkpoint_dir)
        if (restored.checkpoint() / CHECKPOINT_NAME).read_bytes() != blob:
            failures.append("fleet checkpoint: re-checkpointed differently")
        for i in range(n_cuts):
            cut = rng.randrange(len(blob))
            # A fresh file per cut: truncating one in place can cost a
            # flush per write on some filesystems.
            torn = Path(tmp) / f"torn-{i}"
            torn.mkdir()
            (torn / CHECKPOINT_NAME).write_bytes(blob[:cut])
            try:
                ServeState.build(checkpoint_dir=torn)
                failures.append(f"fleet checkpoint cut at byte {cut}: restored")
            except ConfigurationError:
                pass
            except Exception as exc:  # pragma: no cover - defect path
                failures.append(f"fleet checkpoint cut at byte {cut}: raised {exc!r}")
    return failures


#: What each value mutation writes over one checkpoint leaf.
_MUTANTS = (math.nan, math.inf, -1, -1e9, True, "x", None)


def _leaves(node, path=()):
    """Paths of the scalar leaves of ``node``, two entries per list."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _leaves(node[key], (*path, key))
    elif isinstance(node, list):
        for i, item in enumerate(node[:2]):
            yield from _leaves(item, (*path, i))
    else:
        yield path


def _same(got, written) -> bool:
    """``got`` is ``written`` as JSON reads it: ``true`` is not 1, but
    ``1`` is ``1.0``."""
    if isinstance(written, float) and math.isnan(written):
        return isinstance(got, float) and math.isnan(got)
    numbers = (int, float)
    if type(got) in numbers and type(written) in numbers:
        return got == written
    return type(got) is type(written) and got == written


def _fleet_steps(state, n: int) -> None:
    for _ in range(n):
        if state.coordinator is not None:
            state.step_cluster()
        else:
            for host in state.racks.values():
                host.step()


def _value_mutations(rng: random.Random, n_cases: int) -> tuple[list[str], int, int]:
    """Restore ``n_cases`` copies of a fleet checkpoint, each with one leaf
    mutated; returns the failures, the cases run and how many restores
    rejected."""
    import tempfile
    from pathlib import Path

    from repro.errors import ConfigurationError
    from repro.serve.state import CHECKPOINT_NAME, ServeConfig, ServeState

    config = ServeConfig(
        platforms=(("E5-2620", 1), ("i5-4460", 1)), workload="Streamcluster",
        n_racks=2, shared_grid_w=rng.uniform(600.0, 1200.0),
    )
    failures, rejected = [], 0
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as tmp:
        state = ServeState.build(config, checkpoint_dir=Path(tmp) / "base")
        for i, host in enumerate(state.racks.values()):
            host.submit({
                "job_id": f"job-{i}", "energy_wh": 60.0, "power_w": 40.0,
                "earliest_start_s": 0.0, "deadline_s": 86400.0, "value": 1.0,
            })
        _fleet_steps(state, 3)
        base = json.loads((state.checkpoint() / CHECKPOINT_NAME).read_text())
        cases = [(path, value) for path in _leaves(base) for value in _MUTANTS]
        cases = rng.sample(cases, min(n_cases, len(cases)))
        for i, (path, value) in enumerate(cases):
            document = copy.deepcopy(base)
            node = document
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            where = f"{'.'.join(map(str, path))} = {value!r}"
            case = Path(tmp) / f"case-{i}"
            case.mkdir()
            (case / CHECKPOINT_NAME).write_text(json.dumps(document))
            try:
                restored = ServeState.build(checkpoint_dir=case)
            except ConfigurationError:
                rejected += 1
                continue
            except Exception as exc:  # pragma: no cover - defect path
                failures.append(f"{where}: restore raised {exc!r}")
                continue
            got = {
                "format_version": document["format_version"],
                "config": restored.config.to_dict(),
                "cluster_epochs": restored.cluster_epochs,
                "racks": {n: h.sim.state_dict() for n, h in restored.racks.items()},
            }
            try:
                for key in path:
                    got = got[key]
            except (KeyError, IndexError, TypeError):
                got = "<absent>"
            if not _same(got, value):
                failures.append(f"{where}: restored as {got!r}")
                continue
            try:
                _fleet_steps(restored, 3)
            except Exception as exc:  # pragma: no cover - defect path
                failures.append(f"{where}: restored, then a step raised {exc!r}")
    return failures, len(cases), rejected


def fuzz_round_trips(n_cases: int = 50, seed: int = 0) -> FuzzReport:
    """Run ``n_cases`` seeded round trips across every component kind.

    Then one small fleet's checkpoint must re-checkpoint byte for byte
    after a restore, and ``n_cases`` torn copies of it must be rejected;
    and ``n_cases`` value mutations (drawn without replacement) must each
    be rejected or restored as written.  Deterministic for a given
    (n_cases, seed): failure ``i`` reproduces from ``random.Random(seed *
    7919 + i)``, the fleet cases from ``random.Random(seed * 7919 +
    n_cases)`` and the mutations from ``random.Random(seed * 7919 +
    n_cases + 1)``.
    """
    failures: list[str] = []
    total = 0
    for i in range(n_cases):
        rng = random.Random(seed * 7919 + i)
        for build in _KINDS:
            total += 1
            try:
                error = _fixed_point(*build(rng))
            except Exception as exc:  # pragma: no cover - defect path
                error = f"{build.__name__}: raised {exc!r}"
            if error is not None:
                failures.append(f"case {i}: {error}")
    try:
        rng = random.Random(seed * 7919 + n_cases)
        failures.extend(_fleet_checkpoint(rng, n_cases))
    except Exception as exc:  # pragma: no cover - defect path
        failures.append(f"fleet checkpoint: raised {exc!r}")
    mutations = rejected = 0
    try:
        rng = random.Random(seed * 7919 + n_cases + 1)
        mutation_failures, mutations, rejected = _value_mutations(rng, n_cases)
        failures.extend(mutation_failures)
    except Exception as exc:  # pragma: no cover - defect path
        failures.append(f"value mutations: raised {exc!r}")
    return FuzzReport(
        n_cases=total + 1 + n_cases + mutations, failures=tuple(failures),
        n_mutations=mutations, n_rejected=rejected,
    )
