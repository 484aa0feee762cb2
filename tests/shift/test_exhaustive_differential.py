"""The pruned exhaustive search against an unpruned reference enumeration.

Seeded random instances cover multi-epoch jobs, staggered starts,
must-start-now deadlines, committed running jobs, battery-limited and
grid-infeasible epochs, battery prices above and below the grid price,
and batch models drawn from :data:`repro.verify.differential.SHAPES`.
The pruned planner must return the reference's plan: the same method,
placements and unplaced jobs exactly, and floats within 1e-9 relative.
"""

import math
import random

import pytest

from repro.core.solver import GroupModel
from repro.obs.metrics import REGISTRY, obs_enabled, set_enabled
from repro.shift import planner
from repro.shift.planner import PlanInputs, ShiftPlanner, _peak_perf
from repro.shift.queue import JobQueue, ShiftJob
from repro.verify.differential import SHAPES, random_fit

EPOCH = 900.0
N_CASES = 240
PERF_WEIGHTS = (0.0, 1e-6, 1.0)
REL_TOL = 1e-9


class UnprunedPlanner(ShiftPlanner):
    """The exhaustive enumeration with every branch visited."""

    def _search_exhaustive(self, pending, inputs, state):
        best_total = -math.inf
        best = [None] * len(pending)

        def recurse(idx, scratch, total, chosen):
            nonlocal best_total, best
            if idx == len(pending):
                if total > best_total + 1e-9:
                    best_total = total
                    best = list(chosen)
                return
            job = pending[idx]
            penalty = job.value if job.must_start_now else 0.0
            chosen.append(None)
            recurse(idx + 1, scratch, total - penalty, chosen)
            chosen.pop()
            for offset in job.offsets:
                cand = self._evaluate(job, offset, inputs, scratch)
                if cand is None:
                    continue
                branch = scratch.clone()
                self._commit(cand, branch)
                chosen.append(cand)
                recurse(idx + 1, branch, total + cand.utility, chosen)
                chosen.pop()

        recurse(0, state, 0.0, [])
        return best


def random_instance(seed):
    """``(queue, inputs, planner kwargs, PERF_WEIGHT)`` for one seeded case."""
    rng = random.Random(seed)
    horizon = rng.randint(3, 7)
    time_s = 10 * EPOCH
    queue = JobQueue()
    for i in range(rng.choice((1, 2, 3, 3, 4, 4))):
        power = rng.uniform(100.0, 600.0)
        n_epochs = rng.randint(1, 3)
        energy = power * n_epochs * EPOCH / 3600.0 * rng.uniform(0.6, 1.0)
        # Staggered starts, some already open; a zero slack on an open
        # job makes this epoch its last feasible start.
        earliest = time_s + rng.choice((-2, -1, 0, 0, 1, 2)) * EPOCH
        slack = rng.choice((0, 1, 3, 5, 8, 8))
        deadline = max(earliest, time_s) + (n_epochs + slack) * EPOCH
        queue.submit(ShiftJob(
            job_id=f"j{i}", energy_wh=energy, power_w=power,
            earliest_start_s=earliest, deadline_s=deadline,
            value=rng.uniform(0.1, 2.0),
        ))
    n = horizon + 3
    committed = tuple(
        rng.choice((0.0, 0.0, rng.uniform(50.0, 500.0))) for _ in range(rng.randint(0, n))
    )
    models = tuple(
        GroupModel(f"g{g}", rng.randint(1, 5), random_fit(rng, rng.choice(SHAPES)))
        for g in range(rng.choice((0, 1, 1, 2, 3)))
    )
    inputs = PlanInputs(
        time_s=time_s,
        epoch_s=EPOCH,
        renewable_w=tuple(rng.choice((0.0, rng.uniform(0.0, 1500.0))) for _ in range(n)),
        interactive_w=tuple(rng.uniform(0.0, 400.0) for _ in range(n)),
        committed_w=committed,
        batch_capacity_w=rng.uniform(400.0, 1500.0),
        battery_usable_wh=rng.choice((0.0, rng.uniform(0.0, 400.0))),
        battery_max_discharge_w=rng.uniform(0.0, 500.0),
        # Small grid budgets leave epochs the grid cannot complete.
        grid_budget_w=rng.choice(
            (0.0, rng.uniform(0.0, 300.0), rng.uniform(300.0, 1500.0), 2000.0)
        ),
        batch_models=models,
    )
    kwargs = dict(
        horizon=horizon,
        grid_penalty_per_kwh=rng.choice((0.0, 1.0, rng.uniform(0.0, 10.0))),
        battery_penalty_per_kwh=rng.choice((0.0, 0.1, rng.uniform(0.0, 10.0))),
    )
    return queue, inputs, kwargs, PERF_WEIGHTS[seed % len(PERF_WEIGHTS)]


def assert_close_plan(got, want):
    g, w = got.to_dict(), want.to_dict()
    assert g["method"] == w["method"] == "exhaustive"
    assert [(p["job_id"], p["start_offset"]) for p in g["placements"]] == [
        (p["job_id"], p["start_offset"]) for p in w["placements"]
    ]
    assert g["unplaced"] == w["unplaced"]
    assert [j for j, _ in g["start_now_grid_wh"]] == [j for j, _ in w["start_now_grid_wh"]]
    floats = [
        (a, b)
        for gp, wp in zip(g["placements"], w["placements"])
        for key, a in gp.items()
        if isinstance(a, float)
        for b in (wp[key],)
    ]
    floats += list(zip(g["batch_power_w"], w["batch_power_w"]))
    floats += [(a, b) for (_, a), (_, b) in zip(g["start_now_grid_wh"], w["start_now_grid_wh"])]
    for a, b in floats:
        assert a == pytest.approx(b, rel=REL_TOL, abs=1e-12)


def candidates_priced(planner, queue, inputs):
    before = REGISTRY.get("repro_shift_candidates_total").labels().value
    plan = planner.plan(queue, inputs)
    return plan, REGISTRY.get("repro_shift_candidates_total").labels().value - before


@pytest.fixture
def enabled():
    before = obs_enabled()
    set_enabled(True)
    yield
    set_enabled(before)


@pytest.mark.parametrize("block", range(4))
def test_pruned_search_returns_the_reference_plan(block, monkeypatch):
    # Every case is searched exhaustively, whatever its assignment space.
    monkeypatch.setattr(planner, "EXHAUSTIVE_LIMIT", 10**6)
    shapes_seen = set()
    for seed in range(block, N_CASES, 4):
        queue, inputs, kwargs, perf_weight = random_instance(seed)
        monkeypatch.setattr(planner, "PERF_WEIGHT", perf_weight)
        got = ShiftPlanner(**kwargs).plan(queue, inputs)
        want = UnprunedPlanner(**kwargs).plan(queue, inputs)
        assert_close_plan(got, want)
        shapes_seen.add((bool(want.placements), bool(want.unplaced)))
    # The corpus places jobs and leaves jobs unplaced, alone and together.
    assert len(shapes_seen) >= 3


def test_corpus_covers_the_hard_cases():
    """Deadlines, running jobs, battery limits and grid shortfalls occur."""
    must_now = committed = battery_limited = grid_short = multi_epoch = 0
    for seed in range(N_CASES):
        queue, inputs, _, _ = random_instance(seed)
        jobs = queue.pending()
        must_now += any(
            inputs.time_s + EPOCH > j.latest_start_s(EPOCH) + 1e-9 for j in jobs
        )
        multi_epoch += any(j.n_epochs(EPOCH) > 1 for j in jobs)
        committed += any(w > 0 for w in inputs.committed_w)
        battery_limited += 0 < inputs.battery_usable_wh < 100.0
        grid_short += inputs.grid_budget_w < min(j.power_w for j in jobs)
    for count in (must_now, committed, battery_limited, grid_short, multi_epoch):
        assert count >= 10


def test_pruning_prices_fewer_candidates(enabled):
    """Four identical one-epoch jobs: pruning skips most of the tree."""
    queue = JobQueue()
    for i in range(4):
        queue.submit(ShiftJob(
            job_id=f"j{i}", energy_wh=75.0, power_w=300.0,
            earliest_start_s=0.0, deadline_s=6 * EPOCH, value=1.0,
        ))
    inputs = PlanInputs(
        time_s=0.0, epoch_s=EPOCH,
        renewable_w=(0.0, 0.0, 400.0, 400.0, 400.0, 400.0),
        interactive_w=(0.0,) * 6, committed_w=(),
        batch_capacity_w=1000.0, battery_usable_wh=0.0,
        battery_max_discharge_w=0.0, grid_budget_w=1000.0,
    )
    got, pruned = candidates_priced(ShiftPlanner(horizon=6), queue, inputs)
    want, full = candidates_priced(UnprunedPlanner(horizon=6), queue, inputs)
    assert_close_plan(got, want)
    assert 0 < pruned < full / 2


def test_battery_dearer_than_grid():
    """Draining the battery can make a later job *cheaper*.

    Energy is drawn from the battery before the grid, so once the first
    placement empties the battery the others run on cheaper grid energy:
    the untouched ledger's battery quote is no lower bound on their
    penalty, only the grid price is.
    """
    queue = JobQueue()
    for i in range(3):
        queue.submit(ShiftJob(
            job_id=f"j{i}", energy_wh=75.0, power_w=300.0,
            earliest_start_s=0.0, deadline_s=2 * EPOCH, value=1.0,
        ))
    inputs = PlanInputs(
        time_s=0.0, epoch_s=EPOCH, renewable_w=(0.0,), interactive_w=(0.0,),
        committed_w=(), batch_capacity_w=1000.0, battery_usable_wh=75.0,
        battery_max_discharge_w=300.0, grid_budget_w=1000.0,
    )
    kwargs = dict(horizon=1, grid_penalty_per_kwh=0.0, battery_penalty_per_kwh=10.0)
    got = ShiftPlanner(**kwargs).plan(queue, inputs)
    want = UnprunedPlanner(**kwargs).plan(queue, inputs)
    assert_close_plan(got, want)
    assert [p.job_id for p in want.placements] == ["j0", "j1", "j2"]


class TestPeakPerf:
    def test_bounds_every_feasible_score(self):
        rng = random.Random(5)
        for _ in range(50):
            fit = random_fit(rng, rng.choice(SHAPES))
            grid = [fit.min_power_w + k * (fit.max_power_w - fit.min_power_w) / 400
                    for k in range(401)]
            dense = max(max(0.0, fit.raw(p)) for p in grid)
            peak = _peak_perf((GroupModel("g", 3, fit),))
            assert peak >= 3 * dense * (1 - 1e-12)
            assert peak <= 3 * dense * 1.01 + 1e-9

    def test_no_models(self):
        assert _peak_perf(()) == 0.0
