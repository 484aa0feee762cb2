"""Which public methods a traced run wraps, and the per-layer metrics.

Span names are the layer names the report uses.  ``controller.run_epoch``
is the epoch; its self time is the substep physics (metering, power
flow, EPU accounting) that no narrower public method covers.
"""

from __future__ import annotations

from typing import Any

from perfbench.tracer import LayerTracer

EPOCH = "controller.run_epoch"

#: Solver methods reported as shares of all solves.
SOLVER_METHODS = ("kkt", "grid", "slsqp", "cached")

#: Every per-layer metric a traced run reports: ``name -> (unit, better)``.
#: A workload that does not exercise a layer reports it as 0.  Each
#: ratio is listed next to its base.
PER_LAYER: dict[str, tuple[str, str]] = {
    "epochs": ("count", "higher"),
    "load.ms_per_epoch": ("ms", "lower"),
    "select.ms_per_call": ("ms", "lower"),
    "select.calls": ("count", "lower"),
    "profile.ms_total": ("ms", "lower"),
    "policy.ms_per_epoch": ("ms", "lower"),
    "solver.ms_per_call": ("ms", "lower"),
    "solver.calls": ("count", "lower"),
    "solver.share_of_epoch": ("ratio", "lower"),
    "solver.cache_hit_ratio": ("ratio", "higher"),
    "solver.cache_lookups": ("count", "lower"),
    "solver.method_share.kkt": ("ratio", "higher"),
    "solver.method_share.grid": ("ratio", "lower"),
    "solver.method_share.slsqp": ("ratio", "lower"),
    "solver.method_share.cached": ("ratio", "higher"),
    "solver.solves": ("count", "lower"),
    "spc.ms_per_epoch": ("ms", "lower"),
    "psc.ms_per_epoch": ("ms", "lower"),
    "substep.self_ms_per_epoch": ("ms", "lower"),
    "feedback.ms_per_epoch": ("ms", "lower"),
    "feedback.refits_per_epoch": ("1/epoch", "lower"),
    "audit.ms_per_epoch": ("ms", "lower"),
    "engine.self_ms_per_epoch": ("ms", "lower"),
    "shift.plan_ms_per_call": ("ms", "lower"),
    "shift.plan_calls": ("count", "lower"),
    "shift.execute_self_ms_per_epoch": ("ms", "lower"),
    "shift.solver_calls_per_epoch": ("1/epoch", "lower"),
    "cluster.self_ms_per_step": ("ms", "lower"),
    "cluster.steps": ("count", "higher"),
    "runner.task_s": ("s", "lower"),
    "runner.parallel_efficiency": ("ratio", "higher"),
    "runner.parallel_wall_s": ("s", "lower"),
    "runner.jobs": ("count", "higher"),
    "serve.handler_ms_p50.allocate": ("ms", "lower"),
    "serve.transport_ms_p50": ("ms", "lower"),
    "serve.coalesced_ratio": ("ratio", "higher"),
    "serve.allocate_requests": ("count", "higher"),
    "trace.overhead_ratio": ("ratio", "higher"),
    "trace.traced_rate": ("1/s", "higher"),
    "trace.untraced_rate": ("1/s", "higher"),
}


def controller_layers() -> list[tuple[type, str, str]]:
    """``(class, method, span)`` for every layer of a rack epoch."""
    from repro.core.cluster import ClusterCoordinator
    from repro.core.controller import GreenHeteroController
    from repro.core.database import ProfilingDatabase
    from repro.core.enforcer import PowerSourceController, ServerPowerController
    from repro.core.scheduler import AdaptiveScheduler
    from repro.core.solver import PARSolver
    from repro.serve.state import RackHost
    from repro.shift.planner import ShiftPlanner
    from repro.shift.runtime import ShiftRuntime
    from repro.sim.engine import Simulation
    from repro.verify.auditor import InvariantAuditor
    from repro.workloads.generator import LoadGenerator

    return [
        (Simulation, "step", "engine"),
        (LoadGenerator, "at", "load"),
        (ShiftRuntime, "execute_epoch", "shift.execute"),
        (ShiftPlanner, "plan", "shift.plan"),
        (ClusterCoordinator, "run_epoch", "cluster"),
        (RackHost, "allocate", "serve.allocate"),
        (GreenHeteroController, "run_epoch", EPOCH),
        (GreenHeteroController, "ensure_profiled", "profile"),
        (AdaptiveScheduler, "plan_sources", "select"),
        (AdaptiveScheduler, "allocate_plan", "policy"),
        (PARSolver, "solve", "solver"),
        (ServerPowerController, "apply", "spc"),
        (PowerSourceController, "apply", "psc"),
        (AdaptiveScheduler, "feed_back", "feedback"),
        (ProfilingDatabase, "refit", "refit"),
        (InvariantAuditor, "audit", "audit"),
    ]


def runner_layers() -> list[tuple[type, str, str]]:
    """The two halves of one runner task: assembling and running a stack."""
    from repro.sim.engine import Simulation

    return [
        (Simulation, "assemble", "runner.assemble"),
        (Simulation, "run", "runner.run"),
    ]


def install(tracer: LayerTracer, runner: bool = False) -> list[Any]:
    """Wrap every layer; returns the list that collects new PARSolvers."""
    from repro.core.solver import PARSolver

    if runner:
        tracer.wrap_all(runner_layers())
    tracer.wrap_all(controller_layers())
    return tracer.collect_instances(PARSolver)


# ----------------------------------------------------------------------
# Solver counters
# ----------------------------------------------------------------------
def solver_method_counts() -> dict[str, float]:
    """``repro_solver_solves_total`` by method, from the public registry."""
    from repro.obs.metrics import REGISTRY

    family = REGISTRY.snapshot().get("repro_solver_solves_total", {})
    return {str(k): float(v) for k, v in family.get("values", {}).items()}


def add_method_delta(methods: dict[str, float], before: dict[str, float]) -> None:
    """Add the solves by method since the ``before`` snapshot to ``methods``."""
    for key, value in solver_method_counts().items():
        methods[key] = methods.get(key, 0.0) + value - before.get(key, 0.0)


def cache_counts(solvers: list[Any], baseline: dict[int, dict[str, float]]) -> tuple[int, int]:
    """(hits, lookups) of ``solvers``' memo caches since ``baseline``."""
    hits = lookups = 0
    for solver in {id(s): s for s in solvers}.values():
        info = solver.cache_info()
        base = baseline.get(id(solver), {})
        h = info["hits"] - base.get("hits", 0)
        hits += h
        lookups += h + info["misses"] - base.get("misses", 0)
        lookups += info["stale_hits"] - base.get("stale_hits", 0)
    return int(hits), int(lookups)


def cache_baseline(solvers: list[Any]) -> dict[int, dict[str, float]]:
    return {id(s): dict(s.cache_info()) for s in solvers}


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _ms(seconds: float) -> float:
    return seconds * 1e3


def _per(value: float, base: float) -> float:
    return value / base if base else 0.0


def layer_metrics(
    tracer: LayerTracer,
    stacks: int,
    cache: tuple[int, int],
    methods: dict[str, float],
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric the spans can give.

    ``stacks`` is how many rack stacks were built (and profiled) in the
    traced window, ``cache`` the memo cache's (hits, lookups) and
    ``methods`` the delta of solves by winning mechanism.
    """
    t = tracer.total
    epoch = t(EPOCH)
    epochs = epoch.calls
    epoch_roots = {r for (r, _, n) in tracer.stats if n == EPOCH}
    solver = t("solver")
    solver_in_epoch = sum(t("solver", root=r, parent="policy").total_s for r in epoch_roots)
    select = t("select")
    plan = t("shift.plan")
    cluster = t("cluster")
    hits, lookups = cache
    solves = sum(methods.values())

    out: dict[str, tuple[float, str]] = {
        "epochs": (epochs, "count"),
        "load.ms_per_epoch": (_per(_ms(t("load").total_s), epochs), "ms"),
        "select.ms_per_call": (_per(_ms(select.total_s), select.calls), "ms"),
        "select.calls": (select.calls, "count"),
        "profile.ms_total": (_per(_ms(t("profile").total_s), stacks), "ms"),
        "policy.ms_per_epoch": (_per(_ms(t("policy", parent=EPOCH).total_s), epochs), "ms"),
        "solver.ms_per_call": (_per(_ms(solver.total_s), solver.calls), "ms"),
        "solver.calls": (solver.calls, "count"),
        "solver.share_of_epoch": (_per(solver_in_epoch, epoch.total_s), "ratio"),
        "solver.cache_hit_ratio": (_per(hits, lookups), "ratio"),
        "solver.cache_lookups": (lookups, "count"),
        "solver.solves": (solves, "count"),
        "spc.ms_per_epoch": (_per(_ms(t("spc").total_s), epochs), "ms"),
        "psc.ms_per_epoch": (_per(_ms(t("psc").total_s), epochs), "ms"),
        "substep.self_ms_per_epoch": (_per(_ms(epoch.self_s), epochs), "ms"),
        "feedback.ms_per_epoch": (_per(_ms(t("feedback").total_s), epochs), "ms"),
        "feedback.refits_per_epoch": (_per(t("refit").calls, epochs), "1/epoch"),
        "audit.ms_per_epoch": (_per(_ms(t("audit").total_s), epochs), "ms"),
        "engine.self_ms_per_epoch": (_per(_ms(t("engine").self_s), epochs), "ms"),
        "shift.plan_ms_per_call": (_per(_ms(plan.total_s), plan.calls), "ms"),
        "shift.plan_calls": (plan.calls, "count"),
        "shift.execute_self_ms_per_epoch": (
            _per(_ms(t("shift.execute").self_s), epochs), "ms"),
        "shift.solver_calls_per_epoch": (
            _per(t("solver", parent="shift.plan").calls, epochs), "1/epoch"),
        "cluster.self_ms_per_step": (_per(_ms(cluster.self_s), cluster.calls), "ms"),
        "cluster.steps": (cluster.calls, "count"),
    }
    for method in SOLVER_METHODS:
        out[f"solver.method_share.{method}"] = (_per(methods.get(method, 0.0), solves), "ratio")
    return out


def report_tables(tracer: LayerTracer) -> dict[str, Any]:
    """One table per root span: each layer's calls, total and self time.

    ``self_sum_ms`` equals the root's ``total_ms``: every traced call under
    the root is attributed to exactly one layer.
    """
    tables: dict[str, Any] = {}
    for root in tracer.roots():
        table = tracer.table(root)
        rows = {
            name: {
                "calls": row.calls,
                "total_ms": round(_ms(row.total_s), 6),
                "self_ms": round(_ms(row.self_s), 6),
            }
            for name, row in sorted(table.items(), key=lambda kv: -kv[1].self_s)
        }
        tables[root] = {
            "total_ms": round(_ms(table[root].total_s), 6),
            "self_sum_ms": round(_ms(sum(r.self_s for r in table.values())), 6),
            "layers": rows,
        }
    return tables
