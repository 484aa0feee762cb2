#!/usr/bin/env python3
"""End-to-end smoke test of the observability subsystem (run by CI).

1. boot ``repro serve`` as a subprocess with an audit log, a periodic
   ``--metrics-interval`` dump, and a ``--trace-log`` span sink,
2. drive traffic covering every instrumented subsystem: epochs
   (scheduler phases + solver), repeated allocates (cache hits), and a
   submit + plan (shift planner),
3. scrape the ``metrics`` protocol verb, parse the Prometheus text
   exposition, and assert the required metric families exist with
   structurally valid histogram series,
4. after SIGTERM, check the audit stream carries metrics snapshots and
   the trace log carries parent/child span records,
5. run the instrumentation-overhead bench (writes ``BENCH_obs.json``)
   and require the < 5% budget to hold.

Exit status is non-zero on any failure.  Usage:

    python tools/obs_smoke.py [--out BENCH_obs.json]
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import tempfile
import time
from pathlib import Path

from smoke_daemon import start_daemon, stop_daemon

from repro.obs.metrics import parse_exposition
from repro.serve.client import ServeClient

#: Families the scrape must cover: solver, scheduler (span phases),
#: serve verbs, shift planner, predictor fits.
REQUIRED_FAMILIES = (
    "repro_solver_solve_seconds",
    "repro_solver_cache_lookups_total",
    "repro_span_seconds",
    "repro_serve_request_seconds",
    "repro_serve_requests_total",
    "repro_shift_plan_seconds",
    "repro_shift_plans_total",
    "repro_shift_candidates_total",
    "repro_predictor_fits_total",
)

#: Scheduler phases that must appear as span labels after one epoch.
REQUIRED_SPANS = (
    "controller.epoch",
    "scheduler.forecast",
    "scheduler.select",
    "scheduler.solve",
)


def check_exposition(text: str) -> None:
    """Structural checks over the scraped Prometheus text."""
    families = parse_exposition(text)
    missing = [f for f in REQUIRED_FAMILIES if f not in families]
    if missing:
        raise SystemExit(f"metrics scrape is missing families: {missing}")

    spans = {
        m.group(1)
        for name, labels, _ in families["repro_span_seconds"]["samples"]
        for m in [re.search(r'span="([^"]+)"', labels)]
        if m is not None
    }
    missing_spans = [s for s in REQUIRED_SPANS if s not in spans]
    if missing_spans:
        raise SystemExit(f"span histogram is missing phases: {missing_spans}")

    # Histogram series must be structurally valid: cumulative buckets,
    # +Inf bucket equal to _count, non-zero activity on the hot paths.
    for family in ("repro_solver_solve_seconds", "repro_serve_request_seconds",
                   "repro_shift_plan_seconds"):
        info = families[family]
        if info["kind"] != "histogram":
            raise SystemExit(f"{family} is {info['kind']}, expected histogram")
        by_series: dict[str, list[tuple[float, float]]] = {}
        counts: dict[str, float] = {}
        for name, labels, value in info["samples"]:
            if name.endswith("_bucket"):
                le_match = re.search(r'le="([^"]+)"', labels)
                assert le_match is not None
                le = math.inf if le_match.group(1) == "+Inf" else float(le_match.group(1))
                series = re.sub(r',?le="[^"]+"', "", labels)
                if series == "{}":  # label-less histogram: only le was set
                    series = ""
                by_series.setdefault(series, []).append((le, value))
            elif name.endswith("_count"):
                counts[labels] = value
        if not by_series:
            raise SystemExit(f"{family} exposes no buckets")
        for series, buckets in by_series.items():
            cumulative = [v for _, v in sorted(buckets)]
            if cumulative != sorted(cumulative):
                raise SystemExit(f"{family}{series}: buckets are not cumulative")
            if cumulative[-1] != counts.get(series):
                raise SystemExit(f"{family}{series}: +Inf bucket != _count")
        total = sum(counts.values())
        if total <= 0:
            raise SystemExit(f"{family} recorded no observations")

    hits = sum(
        value
        for _, labels, value in families["repro_solver_cache_lookups_total"]["samples"]
        if 'result="hit"' in labels
    )
    if hits <= 0:
        raise SystemExit("duplicate allocates produced no solver-cache hits")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_obs.json",
                        help="overhead benchmark record path")
    parser.add_argument("--bench-days", type=float, default=1.0)
    parser.add_argument("--bench-repeats", type=int, default=7)
    args = parser.parse_args()

    tmp = Path(tempfile.mkdtemp(prefix="obs-smoke-"))
    audit = tmp / "audit.jsonl"
    trace_log = tmp / "trace.jsonl"

    proc, port, _ = start_daemon(
        "--racks", "1",
        "--workload", "Streamcluster",  # deferrable: submit/plan work
        "--audit-log", str(audit),
        "--metrics-interval", "0.2",
        "--trace-log", str(trace_log),
    )
    try:
        with ServeClient(port=port) as client:
            client.ping()
            client.step("rack0")  # epoch: scheduler phases + solver
            budget = client.allocate("rack0")["budget_w"]
            client.allocate("rack0", budget_w=budget)  # same program: cache hit
            client.allocate("rack0", budget_w=budget)
            clock_s = client.status()["racks"]["rack0"]["clock_s"]
            client.submit("rack0", {
                "job_id": "obs-smoke",
                "energy_wh": 100.0,
                "power_w": 200.0,
                "earliest_start_s": clock_s,
                "deadline_s": clock_s + 24 * 3600.0,
                "value": 1.0,
            })
            client.plan("rack0")  # shift planner metrics
            scrape = client.metrics()
        if not scrape["families"]:
            raise SystemExit("metrics verb reported no families")
        check_exposition(scrape["text"])
        print(f"metrics scrape: {len(scrape['families'])} families, "
              f"{len(scrape['text'].splitlines())} exposition lines — OK")
        time.sleep(0.5)  # let at least one periodic metrics dump land
    finally:
        stop_daemon(proc)

    metrics_events = [
        json.loads(line)
        for line in audit.read_text().splitlines()
        if json.loads(line).get("event") == "metrics"
    ]
    if not metrics_events:
        raise SystemExit("--metrics-interval wrote no metrics events")
    if "repro_serve_request_seconds" not in metrics_events[-1]["snapshot"]:
        raise SystemExit("metrics snapshot lacks the serve-verb histogram")
    print(f"audit stream: {len(metrics_events)} periodic metrics snapshots — OK")

    spans = [json.loads(line) for line in trace_log.read_text().splitlines()]
    if not spans:
        raise SystemExit("--trace-log wrote no spans")
    by_id = {s["span_id"]: s for s in spans}
    children = [s for s in spans if s["parent_id"] is not None]
    if not children:
        raise SystemExit("no nested spans recorded")
    for child in children:
        parent = by_id.get(child["parent_id"])
        if parent is not None and parent["trace_id"] != child["trace_id"]:
            raise SystemExit("child span does not share its parent's trace id")
    print(f"trace log: {len(spans)} spans, {len(children)} nested — OK")

    from repro.obs.bench import run_obs_bench

    payload = run_obs_bench(
        days=args.bench_days, repeats=args.bench_repeats, out=args.out
    )
    print(
        f"obs overhead: {payload['overhead_fraction']:+.2%} "
        f"(budget {payload['overhead_budget']:.0%})"
    )
    if not payload["pass"]:
        raise SystemExit("instrumentation overhead exceeds the 5% budget")
    print("obs smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
