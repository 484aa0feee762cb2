"""Output checks: every failed check counts against the attempted operations.

Simulated workloads are compared against a reference trajectory — one
computed in the same run through an independent call path, and, for the
reference seed, the values committed in ``reference_<seed>.json`` — to
:data:`REL_TOL` relative tolerance.  Served responses are checked for
feasibility.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

#: The relative tolerance telemetry must match its reference to.
REL_TOL = 1e-9
#: Absolute floor, so exact zeros compare equal to denormal noise.
ABS_TOL = 1e-12
#: Slack on budget feasibility (W): the solver's ``FEASIBILITY_SLACK_W``.
BUDGET_SLACK_W = 1e-6

REFERENCE_DIR = Path(__file__).resolve().parent


@dataclass
class Tally:
    """Attempted and failed operations, plus the first failure messages."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, note: str = "", count: int = 1) -> bool:
        self.attempted += count
        if not ok:
            self.failed += count
            if note and len(self.notes) < 10:
                self.notes.append(note)
        return ok

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes.extend(other.notes[: max(0, 10 - len(self.notes))])

    def fail(self, note: str, count: int = 1) -> None:
        """Count ``count`` already-attempted operations as failed."""
        self.failed += count
        if len(self.notes) < 10:
            self.notes.append(note)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def epoch_digest(record: Any) -> tuple[float, ...]:
    """Four floats that summarize one epoch: budget, throughput, EPU, grid draw."""
    return (record.budget_w, record.throughput, record.epu, record.grid_to_load_w)


def log_digests(log: Iterable[Any]) -> list[tuple[float, ...]]:
    return [epoch_digest(record) for record in log]


def log_summary(log: Any, epoch_s: float) -> dict[str, float]:
    """Mean EPU, mean throughput and grid energy of one telemetry log."""
    return {
        "mean_epu": log.mean_epu(),
        "mean_throughput": log.mean_throughput(),
        "grid_kwh": log.grid_energy_wh(epoch_s) / 1000.0,
    }


def mismatched_epochs(
    got: Sequence[Sequence[float]], want: Sequence[Sequence[float]]
) -> int:
    """Epochs whose digest differs from the reference (missing ones count)."""
    bad = abs(len(got) - len(want))
    for g, w in zip(got, want):
        if len(g) != len(w) or not all(close(x, y) for x, y in zip(g, w)):
            bad += 1
    return bad


def summary_matches(got: dict[str, float], want: dict[str, float]) -> bool:
    return got.keys() == want.keys() and all(close(got[k], want[k]) for k in want)


def check_trajectory(
    tally: Tally,
    label: str,
    digests: list[tuple[float, ...]],
    summary: dict[str, float],
    reference: dict[str, Any],
) -> None:
    """Count ``label``'s epochs as attempted; failed where they miss ``reference``.

    A summary mismatch fails every epoch of the trajectory.
    """
    n = max(1, len(digests))
    bad = min(n, mismatched_epochs(digests, reference["epochs"]))
    if not summary_matches(summary, reference["summary"]):
        bad = n
    tally.attempted += n
    if bad:
        tally.fail(f"{label}: {bad} of {n} epoch(s) off the reference", count=bad)


def trajectory(digests: list[tuple[float, ...]], summary: dict[str, float]) -> dict[str, Any]:
    return {"epochs": [list(d) for d in digests], "summary": summary}


def _rounded(value: Any) -> Any:
    """``value`` with floats cut to 12 significant digits, far inside :data:`REL_TOL`."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return value


def ratio_limit(budget_w: float) -> float:
    """Largest feasible PAR-vector sum under ``budget_w``.

    ``1 + 1e-9``, widened by the solver's absolute slack: at a 290 W
    budget, :data:`BUDGET_SLACK_W` alone is 3.4e-9 of the budget.
    """
    return 1.0 + 1e-9 + (BUDGET_SLACK_W / budget_w if budget_w > 0 else 0.0)


def _feasible(ratios: list[float], budgets: list[float], budget_w: float) -> bool:
    return (
        sum(ratios) <= ratio_limit(budget_w)
        and all(r >= 0.0 for r in ratios)
        and all(b >= -BUDGET_SLACK_W for b in budgets)
        and sum(budgets) <= budget_w * (1.0 + 1e-9) + BUDGET_SLACK_W
    )


def check_allocation(tally: Tally, result: dict[str, Any], budget_w: float | None) -> None:
    """One served ``allocate`` answer: feasible under the budget it was
    granted, which is the budget asked for when one was."""
    granted = result["budget_w"]
    ok = _feasible(result["ratios"], result["group_budgets_w"], granted) and (
        budget_w is None or close(granted, budget_w)
    )
    tally.record(ok, "" if ok else f"infeasible allocation {result!r}"[:300])


def check_step(tally: Tally, result: dict[str, Any]) -> None:
    """One served cluster ``step``: every rack's allocation is feasible."""
    racks = result.get("racks", [])
    ok = bool(racks) and all(
        _feasible(event["ratios"], event["group_budgets_w"], event["budget_w"])
        for event in racks
    )
    tally.record(ok, "" if ok else f"infeasible cluster step {result!r}"[:300])


# ----------------------------------------------------------------------
# Committed references
# ----------------------------------------------------------------------
def reference_path(seed: int) -> Path:
    return REFERENCE_DIR / f"reference_{seed}.json"


def load_reference(seed: int, workload: str) -> dict[str, Any] | None:
    """The committed reference for ``workload`` at ``seed``, when one exists."""
    path = reference_path(seed)
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(workload)


def check_committed(tally: Tally, seed: int, workload: str, want: dict[str, Any]) -> None:
    """Compare a run's reference trajectories (by key) with the committed ones.

    Does nothing for a seed with no committed reference; a key missing
    from the committed file fails its whole trajectory.
    """
    committed = load_reference(seed, workload)
    if committed is None:
        return
    for key, entry in want.items():
        check_trajectory(
            tally, f"{workload} {key} reference vs committed",
            [tuple(e) for e in entry["epochs"]], entry["summary"],
            committed.get(key, {"epochs": [], "summary": {}}),
        )


def store_reference(seed: int, workload: str, value: dict[str, Any]) -> Path:
    path = reference_path(seed)
    document = json.loads(path.read_text()) if path.exists() else {}
    document[workload] = _rounded(value)
    path.write_text(json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n")
    return path
