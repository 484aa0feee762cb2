"""Load generator for the serving daemon (``repro loadgen``).

Opens N concurrent connections (one worker thread each, mirroring N
independent clients) and hammers the daemon with a deterministic mix of
``allocate`` / ``forecast`` / ``status`` / ``cache-stats`` queries.
Allocation budgets cycle through a small set of levels, so duplicates
exercise the PAR solver's memo cache — exactly the serving-path
behaviour the benchmark exists to measure.

Results (qps, p50/p99 latency, per-op counts, cache counters) are
returned as a dictionary and optionally written to ``BENCH_serve.json``
for CI to archive.
"""

from __future__ import annotations

import json
import random
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError
from repro.obs.stats import percentile as _percentile
from repro.serve.client import ServeClient, ServeError

#: Relative weight of each op in the generated stream.
DEFAULT_OP_MIX: tuple[tuple[str, int], ...] = (
    ("allocate", 6),
    ("forecast", 2),
    ("status", 1),
    ("cache-stats", 1),
)

#: Budget levels as fractions of the rack's planned budget; few distinct
#: levels on purpose — duplicate programs are the serving hot path.
BUDGET_FRACTIONS: tuple[float, ...] = (0.6, 0.8, 1.0, 1.2)


def solver_cache_hit_ratio(
    before: dict[str, Any], after: dict[str, Any]
) -> float | None:
    """The burst's aggregate solver-cache hit ratio across all racks.

    Computed from the *delta* of the daemon's counters, so warm caches
    from earlier traffic don't flatter the measurement.  ``None`` when
    the burst triggered no solver lookups at all (e.g. an op mix with no
    ``allocate``).

    The preferred source is the daemon's process-wide obs counter
    snapshot (``stats["obs"]``): one atomic read covering every rack's
    solver.  Snapshots from older daemons without the obs block fall
    back to summing the per-rack ``solver_cache`` counters.
    """

    def totals(stats: dict[str, Any]) -> tuple[int, int]:
        obs = stats.get("obs")
        if obs is not None:
            return (
                int(obs.get("solver_cache_hits", 0)),
                int(obs.get("solver_cache_misses", 0)),
            )
        hits = misses = 0
        for info in stats.get("racks", {}).values():
            cache = info.get("solver_cache")
            if cache:
                hits += int(cache.get("hits", 0))
                misses += int(cache.get("misses", 0))
        return hits, misses

    hits_before, misses_before = totals(before)
    hits_after, misses_after = totals(after)
    hits = hits_after - hits_before
    lookups = hits + (misses_after - misses_before)
    if lookups <= 0:
        return None
    return hits / lookups


def _worker(
    host: str,
    port: int,
    rack: str,
    ops: list[tuple[str, float | None]],
    timeout_s: float,
) -> tuple[list[float], int]:
    """One connection's request loop; returns (latencies_s, errors)."""
    latencies: list[float] = []
    errors = 0
    with ServeClient(host, port, timeout_s=timeout_s) as client:
        for op, budget in ops:
            start = time.perf_counter()
            try:
                if op == "allocate":
                    client.allocate(rack, budget_w=budget)
                elif op == "forecast":
                    client.forecast(rack)
                elif op == "status":
                    client.status()
                else:
                    client.cache_stats()
            except ServeError:
                errors += 1
            latencies.append(time.perf_counter() - start)
    return latencies, errors


def run_loadgen(
    host: str = "127.0.0.1",
    port: int = 7313,
    connections: int = 4,
    requests: int = 200,
    rack: str | None = None,
    seed: int = 0,
    timeout_s: float = 60.0,
    out: str | Path | None = None,
) -> dict[str, Any]:
    """Drive the daemon with ``connections`` concurrent clients.

    Parameters
    ----------
    host / port:
        The daemon's address.
    connections:
        Concurrent connections (worker threads), each with its own
        client.
    requests:
        Total requests across all connections.
    rack:
        Target rack; defaults to the daemon's first rack.
    seed:
        Seed for the deterministic op mix.
    timeout_s:
        Per-request client timeout.
    out:
        When given, the result dictionary is written there as JSON
        (the ``BENCH_serve.json`` artifact).

    Returns
    -------
    dict
        qps, latency percentiles (ms), per-op counts, error count, and
        the daemon's cache counters after the burst.
    """
    if connections < 1:
        raise ConfigurationError("need at least one connection")
    if requests < 1:
        raise ConfigurationError("need at least one request")

    probe = ServeClient(host, port, timeout_s=timeout_s)
    try:
        racks = probe.racks()
        if rack is None:
            rack = racks[0]
        elif rack not in racks:
            raise ConfigurationError(f"unknown rack {rack!r}; daemon serves {racks}")
        # A reference budget anchors the cycled levels to a realistic
        # operating point for this rack.
        reference_w = probe.allocate(rack)["budget_w"]
        cache_before = probe.cache_stats()
    finally:
        probe.close()
    budgets = [round(f * reference_w, 3) for f in BUDGET_FRACTIONS]

    # Deterministic op stream, dealt round-robin to the connections.
    rng = random.Random(seed)
    op_names = [name for name, weight in DEFAULT_OP_MIX for _ in range(weight)]
    stream: list[tuple[str, float | None]] = []
    for i in range(requests):
        op = rng.choice(op_names)
        budget = budgets[i % len(budgets)] if op == "allocate" else None
        stream.append((op, budget))
    per_worker: list[list[tuple[str, float | None]]] = [
        stream[i::connections] for i in range(connections)
    ]

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=connections) as pool:
        outcomes = list(
            pool.map(
                lambda ops: _worker(host, port, rack, ops, timeout_s),
                per_worker,
            )
        )
    duration_s = time.perf_counter() - start

    latencies = sorted(lat for lats, _ in outcomes for lat in lats)
    errors = sum(errs for _, errs in outcomes)
    op_counts: dict[str, int] = {}
    for op, _ in stream:
        op_counts[op] = op_counts.get(op, 0) + 1

    with ServeClient(host, port, timeout_s=timeout_s) as client:
        cache_after = client.cache_stats()

    result: dict[str, Any] = {
        "connections": connections,
        "requests": requests,
        "rack": rack,
        "budget_levels_w": budgets,
        "duration_s": duration_s,
        "qps": len(latencies) / duration_s if duration_s > 0 else 0.0,
        "latency_ms": {
            "p50": 1e3 * _percentile(latencies, 0.50),
            "p99": 1e3 * _percentile(latencies, 0.99),
            "mean": 1e3 * (sum(latencies) / len(latencies)) if latencies else 0.0,
            "max": 1e3 * latencies[-1] if latencies else 0.0,
        },
        "ops": op_counts,
        "errors": errors,
        "cache_hit_ratio": solver_cache_hit_ratio(cache_before, cache_after),
        "cache_before": cache_before,
        "cache_after": cache_after,
    }
    if out is not None:
        Path(out).write_text(json.dumps(result, indent=2, sort_keys=True))
    return result


def format_summary(result: dict[str, Any]) -> str:
    """Human-readable one-screen summary of a loadgen run."""
    latency = result["latency_ms"]
    lines = [
        f"{result['requests']} requests over {result['connections']} "
        f"connections against rack {result['rack']!r}",
        f"  wall time   {result['duration_s']:.2f} s   "
        f"qps {result['qps']:.0f}",
        f"  latency ms  p50 {latency['p50']:.2f}   p99 {latency['p99']:.2f}   "
        f"mean {latency['mean']:.2f}   max {latency['max']:.2f}",
        f"  ops         {result['ops']}",
        f"  errors      {result['errors']}",
    ]
    hit_ratio = result.get("cache_hit_ratio")
    lines.append(
        "  cache hit ratio  "
        + (f"{hit_ratio:.0%}" if hit_ratio is not None else "n/a (no solver lookups)")
    )
    for name, info in result["cache_after"].get("racks", {}).items():
        cache = info.get("solver_cache")
        if cache:
            lines.append(
                f"  {name} solver cache: {cache['hits']} hits / "
                f"{cache['misses']} misses (hit rate {cache['hit_rate']:.0%})"
            )
    return "\n".join(lines)
