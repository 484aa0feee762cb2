#!/usr/bin/env python3
"""Count the work one lap of each reference scenario does (run by CI).

Replays, through the public ``repro`` API, one lap of each seed-2021
scenario of the two simulated benchmark workloads:

* ``sim-day``: the Fig. 8 reference rack under GreenHetero
  (``ExperimentConfig.fig8_default``), 3 simulated days;
* ``shift-day``: the bundled temporal-shifting scenario
  (``run_shift_bench``, both arms), 1 day, horizon 8, 6 jobs;

each at scenario seeds 8084-8087, the four seeds ``perfbench`` rotates
through for ``--seed 2021``, plus the served cluster path:

* ``serve-cluster``: an in-process ``ServeState`` with 4 racks, seed
  2021 and a 2000 W shared grid, stepped through 96 coordinated epochs;
* ``serve-daemon``: the same fleet behind an in-process
  ``AllocationDaemon``, driven over one ``ServeClient`` by perfbench's
  ``serve-fleet`` request round, 96 times: per rack ``allocate`` at the
  planned budget and at 400/700/1000 W, then ``forecast``; then one
  coordinated ``step``.

Per scenario it writes the work the process-wide metrics registry
counted: database refits, solver solves, shift plans and predictor
fits; both serve scenarios add the epochs their racks' auditors
checked, and ``serve-daemon`` adds the solver-cache hits and misses of
its requests, which pins how many solves the served allocations cost
per cluster step.

Unlike wall time, which moves by tens of percent between runs on a
shared host, these counts are host-independent, so CI compares them
exactly with the committed file; a change that alters a count must
commit the regenerated file and say why.

    python tools/work_counts.py [--out WORK_COUNTS.json]
    git show HEAD:WORK_COUNTS.json | python tools/json_close.py - WORK_COUNTS.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro import ExperimentConfig, run_experiment  # noqa: E402
from repro.obs import REGISTRY  # noqa: E402
from repro.serve import AllocationDaemon, ServeClient, ServeConfig, ServeState  # noqa: E402
from repro.shift.bench import run_shift_bench  # noqa: E402

SEED = 2021
#: perfbench's lap rotation: scenario seeds ``4 * seed + k``, k = 0..3.
SCENARIOS = tuple(4 * SEED + k for k in range(4))
SIM_DAY_DAYS = 3.0
SHIFT_DAY_DAYS = 1.0
SHIFT_HORIZON = 8
SHIFT_JOBS = 6
SERVE_RACKS = 4
SERVE_SHARED_GRID_W = 2000.0
SERVE_CLUSTER_STEPS = 96
SERVE_DAEMON_ROUNDS = 96
#: Explicit ``allocate`` budgets of a ``serve-daemon`` round, after the
#: planned one (perfbench's ``serve-fleet`` levels).
SERVE_DAEMON_BUDGETS_W = (400.0, 700.0, 1000.0)

#: Output key -> metric family; a labelled family counts all its children.
COUNTERS = {
    "refits": "repro_database_refits_total",
    "solver_solves": "repro_solver_solves_total",
    "shift_plans": "repro_shift_plans_total",
    "predictor_fits": "repro_predictor_fits_total",
}


def _totals() -> dict[str, int]:
    totals = {}
    for key, name in COUNTERS.items():
        family = REGISTRY.get(name)
        totals[key] = 0 if family is None else int(sum(c.value for _, c in family.children()))
    return totals


def count(run: Callable[[int], dict[str, int] | None], seed: int) -> dict[str, int]:
    """The work counters ``run(seed)`` adds to the registry, plus the
    counts ``run`` returns itself."""
    before = _totals()
    extra = run(seed) or {}
    after = _totals()
    return {**{key: after[key] - before[key] for key in COUNTERS}, **extra}


def sim_day(seed: int) -> None:
    config = ExperimentConfig.fig8_default(
        days=SIM_DAY_DAYS, policies=("GreenHetero",), seed=seed
    )
    run_experiment(config, jobs=1)


def shift_day(seed: int) -> None:
    run_shift_bench(days=SHIFT_DAY_DAYS, seed=seed, horizon=SHIFT_HORIZON, n_jobs=SHIFT_JOBS)


def _serve_fleet(seed: int) -> ServeState:
    config = ServeConfig(
        n_racks=SERVE_RACKS, seed=seed, shared_grid_w=SERVE_SHARED_GRID_W
    )
    return ServeState.build(config)


def _epochs_audited(state: ServeState) -> int:
    racks = state.status()["racks"].values()
    return sum(r["audit"]["epochs_audited"] for r in racks)


def serve_cluster(seed: int) -> dict[str, int]:
    state = _serve_fleet(seed)
    for _ in range(SERVE_CLUSTER_STEPS):
        state.step_cluster()
    return {"epochs_audited": _epochs_audited(state)}


def _cache_lookups() -> tuple[int, int]:
    family = REGISTRY.get("repro_solver_cache_lookups_total")
    return int(family.labels("hit").value), int(family.labels("miss").value)


def serve_daemon(seed: int) -> dict[str, int]:
    state = _serve_fleet(seed)
    daemon = AllocationDaemon(state, port=0)
    thread = daemon.run_in_thread()
    try:
        hits, misses = _cache_lookups()
        with ServeClient(port=daemon.port) as client:
            for _ in range(SERVE_DAEMON_ROUNDS):
                for rack in state.rack_names():
                    client.allocate(rack)
                    for budget_w in SERVE_DAEMON_BUDGETS_W:
                        client.allocate(rack, budget_w=budget_w)
                    client.forecast(rack)
                client.step()
        hits_after, misses_after = _cache_lookups()
    finally:
        daemon.stop_from_thread()
        thread.join(timeout=30)
    return {
        "epochs_audited": _epochs_audited(state),
        "solver_cache_hits": hits_after - hits,
        "solver_cache_misses": misses_after - misses,
    }


def work_counts() -> dict[str, object]:
    workloads = {
        "sim-day": (sim_day, SCENARIOS),
        "shift-day": (shift_day, SCENARIOS),
        "serve-cluster": (serve_cluster, (SEED,)),
        "serve-daemon": (serve_daemon, (SEED,)),
    }
    return {
        "seed": SEED,
        "counters": COUNTERS,
        "workloads": {
            name: {str(seed): count(run, seed) for seed in seeds}
            for name, (run, seeds) in workloads.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="WORK_COUNTS.json", help="output path")
    args = parser.parse_args(argv)
    document = work_counts()
    Path(args.out).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
