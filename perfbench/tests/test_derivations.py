"""Tests for the benchmark's own derivations.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import checks, layers, run
from perfbench.checks import Tally
from perfbench.stats import percentile, samples_beyond
from perfbench.tracer import LayerTracer


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Self-time subtraction
# ----------------------------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)
    outer = tracer.enter("engine")
    clock.tick(1.0)
    mid = tracer.enter("epoch")
    clock.tick(2.0)
    leaf = tracer.enter("solver")
    clock.tick(4.0)
    tracer.exit(leaf)
    clock.tick(0.5)
    tracer.exit(mid)
    leaf2 = tracer.enter("audit")
    clock.tick(0.25)
    tracer.exit(leaf2)
    tracer.exit(outer)

    table = tracer.table("engine")
    assert table["engine"].total_s == pytest.approx(7.75)
    assert table["engine"].self_s == pytest.approx(1.0)
    assert table["epoch"].total_s == pytest.approx(6.5)
    assert table["epoch"].self_s == pytest.approx(2.5)
    assert table["solver"].self_s == pytest.approx(4.0)
    assert table["audit"].self_s == pytest.approx(0.25)
    # No gap: the self times under a root sum to the root's total.
    assert sum(row.self_s for row in table.values()) == pytest.approx(table["engine"].total_s)
    assert tracer.total("solver", parent="epoch").calls == 1
    assert tracer.total("solver", parent="engine").calls == 0


class Inner:
    def leaf(self, clock: FakeClock) -> str:
        clock.tick(3.0)
        return "leaf"


class Outer:
    def __init__(self) -> None:
        self.inner = Inner()

    def work(self, clock: FakeClock) -> str:
        clock.tick(1.0)
        result = self.inner.leaf(clock)
        self.inner.leaf(clock)
        return result

    @classmethod
    def build(cls, clock: FakeClock) -> "Outer":
        clock.tick(0.5)
        return cls()


def test_wrapped_methods_nest_and_unwrap():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)
    original_work = Outer.__dict__["work"]
    original_build = Outer.__dict__["build"]
    tracer.wrap_all([(Outer, "work", "outer"), (Inner, "leaf", "inner"), (Outer, "build", "build")])
    try:
        obj = Outer.build(clock)
        assert obj.work(clock) == "leaf"
    finally:
        tracer.unwrap_all()

    assert Outer.__dict__["work"] is original_work
    assert Outer.__dict__["build"] is original_build
    outer = tracer.table("outer")
    assert outer["outer"].total_s == pytest.approx(7.0)
    assert outer["outer"].self_s == pytest.approx(1.0)
    assert outer["inner"].calls == 2
    assert outer["inner"].self_s == pytest.approx(6.0)
    assert tracer.table("build")["build"].total_s == pytest.approx(0.5)
    assert tracer.roots() == ["build", "outer"]
    assert layers.report_tables(tracer)["outer"]["self_sum_ms"] == pytest.approx(7000.0)


def test_span_survives_exceptions_and_collects_instances():
    tracer = LayerTracer()

    class Boom:
        def __init__(self) -> None:
            self.armed = True

        def fail(self) -> None:
            raise ValueError("boom")

    instances = tracer.collect_instances(Boom)
    tracer.wrap(Boom, "fail", "boom")
    try:
        with pytest.raises(ValueError):
            Boom().fail()
    finally:
        tracer.unwrap_all()
    assert len(instances) == 1
    assert tracer.total("boom").calls == 1
    Boom()
    assert len(instances) == 1  # unpatched constructor no longer records


# ----------------------------------------------------------------------
# Percentile rule
# ----------------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond():
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(999, 99) == 9
    assert percentile(list(range(999)), 99) is None
    assert percentile([float(i) for i in range(1, 1001)], 99) == 990.0
    assert percentile([1.0] * 19, 50) is None
    assert percentile([float(i) for i in range(1, 21)], 50) == 10.0
    assert percentile([], 50) is None


# ----------------------------------------------------------------------
# Failure counting
# ----------------------------------------------------------------------
def _allocation(ratios, budget_w=1000.0):
    return {"ratios": ratios, "group_budgets_w": [r * budget_w for r in ratios], "budget_w": budget_w}


def test_allocation_checks_count_failures():
    tally = Tally()
    checks.check_allocation(tally, _allocation([0.6, 0.4]), None)
    checks.check_allocation(tally, _allocation([0.6, 0.4 + 1e-12]), 1000.0)
    checks.check_allocation(tally, _allocation([0.7, 0.4]), None)  # sums above 1
    checks.check_allocation(tally, _allocation([0.5, 0.5]), 900.0)  # not the budget asked for
    overdraw = _allocation([0.5, 0.5])
    overdraw["group_budgets_w"] = [500.0, 500.01]
    checks.check_allocation(tally, overdraw, None)
    assert (tally.attempted, tally.failed) == (5, 3)
    assert len(tally.notes) == 3


def test_ratio_limit_allows_the_solvers_absolute_slack():
    # Seen in a served cluster step: a 290 W budget handed out 1 + 1.17e-9.
    tally = Tally()
    checks.check_allocation(tally, _allocation([0.0, 1.0 + 1.17e-9], 289.79), None)
    checks.check_allocation(tally, _allocation([0.0, 1.0 + 5e-9], 1000.0), None)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_step_check_and_note_cap():
    tally = Tally()
    good = {"racks": [{"ratios": [0.5, 0.5], "group_budgets_w": [10.0, 10.0], "budget_w": 20.0}]}
    bad = {"racks": [{"ratios": [0.9, 0.5], "group_budgets_w": [18.0, 10.0], "budget_w": 20.0}]}
    checks.check_step(tally, good)
    checks.check_step(tally, {"racks": []})
    for _ in range(20):
        checks.check_step(tally, bad)
    assert (tally.attempted, tally.failed) == (22, 21)
    assert len(tally.notes) == 10


# ----------------------------------------------------------------------
# Reference-digest check
# ----------------------------------------------------------------------
def _reference(n=4):
    epochs = [[100.0 + i, 50.0 + i, 0.5, 0.0] for i in range(n)]
    return checks.trajectory([tuple(e) for e in epochs], {"mean_epu": 0.5, "grid_kwh": 1.25})


def test_trajectory_within_tolerance_passes():
    want = _reference()
    got = [tuple(x * (1 + 1e-11) for x in e) for e in want["epochs"]]
    tally = Tally()
    checks.check_trajectory(tally, "t", got, {"mean_epu": 0.5 * (1 + 1e-11), "grid_kwh": 1.25}, want)
    assert (tally.attempted, tally.failed) == (4, 0)


def test_trajectory_counts_each_epoch_off_the_reference():
    want = _reference()
    got = [tuple(e) for e in want["epochs"]]
    got[1] = (got[1][0] * (1 + 1e-8),) + got[1][1:]
    got[3] = got[3][:3] + (1e-6,)
    tally = Tally()
    checks.check_trajectory(tally, "t", got, want["summary"], want)
    assert (tally.attempted, tally.failed) == (4, 2)


def test_trajectory_summary_or_length_mismatch_fails_everything():
    want = _reference()
    got = [tuple(e) for e in want["epochs"]]
    tally = Tally()
    checks.check_trajectory(tally, "t", got, {"mean_epu": 0.5, "grid_kwh": 1.3}, want)
    assert (tally.attempted, tally.failed) == (4, 4)
    tally = Tally()
    checks.check_trajectory(tally, "t", got[:3], want["summary"], want)
    assert (tally.attempted, tally.failed) == (3, 1)
    tally = Tally()
    checks.check_trajectory(tally, "t", [], want["summary"], want)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_committed_reference_round_trips(tmp_path, monkeypatch):
    monkeypatch.setattr(checks, "REFERENCE_DIR", tmp_path)
    want = _reference()
    checks.store_reference(7, "sim-day", want)
    loaded = checks.load_reference(7, "sim-day")
    tally = Tally()
    checks.check_trajectory(tally, "t", [tuple(e) for e in want["epochs"]], want["summary"], loaded)
    assert tally.failed == 0
    assert checks.load_reference(8, "sim-day") is None


# ----------------------------------------------------------------------
# The definition and the code agree
# ----------------------------------------------------------------------
def test_finalize_fills_absent_layers_and_rejects_unknown():
    expected = {"a": ("ms", "lower"), "b": ("count", "higher")}
    out = run.finalize({"a": (1.5, "ms")}, expected)
    assert out == {"a": {"value": 1.5, "unit": "ms"}, "b": {"value": 0.0, "unit": "count"}}
    with pytest.raises(RuntimeError):
        run.finalize({"c": (1.0, "ms")}, expected)
    with pytest.raises(RuntimeError):
        run.finalize({"a": (1.0, "s")}, expected)


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
