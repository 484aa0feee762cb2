"""Unified observability: metrics, span tracing, Prometheus exposition.

One instrumentation layer shared by every subsystem — the solver's memo
cache, the adaptive scheduler's epoch phases, the simulation engine, the
shifting planner, and the serving daemon all record into a process-wide
:class:`~repro.obs.metrics.MetricsRegistry`.  The daemon exposes the
registry through its ``metrics`` protocol verb in Prometheus text
format; tests and benches read it via :meth:`MetricsRegistry.snapshot`.

Design constraints, in order:

1. **Cheap.** Instrumentation sits on per-epoch and per-request hot
   paths; a counter increment is a float add, a histogram observation
   a list append, folded into buckets, sum and sample when read.
   ``set_enabled(False)`` turns every mutation into a single global
   check, which is how :mod:`repro.obs.bench` measures the overhead
   (< 5% required).
2. **One writer per process.** Each process writes its metrics from
   one thread: the daemon's event loop, or the main thread of a sim or
   runner worker.  That rule is why no write takes a lock; a thread
   that only reads (a scrape, a snapshot) is always safe.  A second
   writer must get its own metric, sharded per thread, not a lock
   (``tests/obs/test_single_writer.py`` checks the rule).
3. **Deterministic outputs stay deterministic.** Nothing here feeds
   back into allocation decisions, checkpoints, or benchmark payloads —
   observability is strictly write-only from the control loop's view.
4. **Stdlib only.** No prometheus_client dependency; the exposition
   format is small enough to emit (and parse, for the smoke test) by
   hand.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    POWER_OF_TWO_BUCKETS,
    REGISTRY,
    obs_enabled,
    parse_exposition,
    set_enabled,
)
from repro.obs.stats import percentile
from repro.obs.tracing import Span, current_span, set_trace_sink, trace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "POWER_OF_TWO_BUCKETS",
    "REGISTRY",
    "Span",
    "current_span",
    "obs_enabled",
    "parse_exposition",
    "percentile",
    "set_enabled",
    "set_trace_sink",
    "trace",
]
