"""The daemon's observability surface: metrics verb, obs cache block,
periodic metrics snapshots."""

import json
import re
import time

import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import parse_exposition
from repro.serve.client import ServeClient
from repro.serve.daemon import AllocationDaemon
from repro.serve.state import ServeConfig, ServeState

SMALL = ServeConfig(platforms=(("E5-2620", 2), ("i5-4460", 2)), n_racks=1)


@pytest.fixture
def served(tmp_path):
    state = ServeState.build(SMALL)
    daemon = AllocationDaemon(
        state, port=0,
        audit_log=tmp_path / "audit.jsonl",
        metrics_interval_s=0.1,
    )
    thread = daemon.run_in_thread()
    yield daemon, tmp_path / "audit.jsonl"
    daemon.stop_from_thread()
    thread.join(timeout=30)
    assert not thread.is_alive()


@pytest.fixture
def client(served):
    daemon, _ = served
    with ServeClient(port=daemon.port) as c:
        yield c


class TestMetricsVerb:
    def test_returns_parseable_exposition(self, client):
        client.allocate("rack0", budget_w=400.0)
        scrape = client.metrics()
        families = parse_exposition(scrape["text"])
        assert "repro_serve_request_seconds" in families
        assert "repro_serve_requests_total" in families
        assert "solver.solve" in span_counts(families)
        assert set(families) <= set(scrape["families"])

    def test_request_counters_grow(self, client):
        def ping_count():
            families = parse_exposition(client.metrics()["text"])
            return sum(
                value
                for name, labels, value in
                families["repro_serve_requests_total"]["samples"]
                if 'op="ping"' in labels and 'status="ok"' in labels
            )
        client.ping()
        first = ping_count()
        client.ping()
        assert ping_count() == first + 1

    def test_error_responses_counted(self, client):
        families_before = parse_exposition(client.metrics()["text"])

        def errors(families):
            return sum(
                value
                for name, labels, value in
                families.get("repro_serve_requests_total", {"samples": []})["samples"]
                if 'status="error"' in labels
            )
        with pytest.raises(Exception):
            client.allocate("rack9")
        families_after = parse_exposition(client.metrics()["text"])
        assert errors(families_after) == errors(families_before) + 1


def span_counts(families):
    """``repro_span_seconds`` observation counts by span name."""
    return {
        re.search(r'span="([^"]+)"', labels).group(1): value
        for name, labels, value in families["repro_span_seconds"]["samples"]
        if name == "repro_span_seconds_count"
    }


def cache_hits(families):
    return sum(
        value
        for _, labels, value in families["repro_solver_cache_lookups_total"]["samples"]
        if 'result="hit"' in labels
    )


class TestOneTimingInstrument:
    """Every timed region is a span; the request histogram is the one
    other duration family."""

    def test_served_work_is_timed_by_spans(self, tmp_path):
        state = ServeState.build(SMALL, checkpoint_dir=tmp_path / "ckpt")
        daemon = AllocationDaemon(state, port=0)
        thread = daemon.run_in_thread()
        try:
            with ServeClient(port=daemon.port) as client:
                client.step("rack0")
                budget = client.allocate("rack0")["budget_w"]
                before = parse_exposition(client.metrics()["text"])
                client.allocate("rack0", budget_w=budget)  # same program: hit
                after = parse_exposition(client.metrics()["text"])
                client.plan("rack0")
                client.checkpoint()
                families = parse_exposition(client.metrics()["text"])
        finally:
            daemon.stop_from_thread()
            thread.join(timeout=30)
        assert cache_hits(after) == cache_hits(before) + 1
        assert span_counts(after)["solver.solve"] == span_counts(before)["solver.solve"] + 1
        durations = {name for name, info in families.items() if info["kind"] == "histogram"}
        assert durations == {"repro_span_seconds", "repro_serve_request_seconds"}
        assert {
            "sim.step", "solver.solve", "shift.plan", "predictor.fit", "serve.checkpoint",
        } <= set(span_counts(families))


class TestCacheStatsObsBlock:
    def test_obs_totals_match_per_rack_counters(self, client):
        client.allocate("rack0", budget_w=400.0)
        client.allocate("rack0", budget_w=400.0)
        stats = client.cache_stats()
        assert "obs" in stats
        obs = stats["obs"]
        # Process-wide counters can only be >= this daemon's rack sums.
        rack_hits = sum(
            info["solver_cache"]["hits"] for info in stats["racks"].values()
        )
        assert obs["solver_cache_hits"] >= rack_hits
        assert obs["solver_cache_misses"] >= 0


class TestMetricsInterval:
    def test_periodic_snapshots_written(self, served, client):
        _, audit = served
        client.ping()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            events = [
                json.loads(line)
                for line in audit.read_text().splitlines()
                if '"metrics"' in line
            ] if audit.exists() else []
            metrics_events = [e for e in events if e.get("event") == "metrics"]
            if metrics_events:
                break
            time.sleep(0.05)
        assert metrics_events, "no periodic metrics snapshot within 10 s"
        snapshot = metrics_events[-1]["snapshot"]
        assert "repro_serve_requests_total" in snapshot

    def test_interval_requires_audit_log(self):
        state = ServeState.build(SMALL)
        with pytest.raises(ConfigurationError, match="audit"):
            AllocationDaemon(state, port=0, metrics_interval_s=1.0)

    def test_interval_must_be_positive(self, tmp_path):
        state = ServeState.build(SMALL)
        with pytest.raises(ConfigurationError):
            AllocationDaemon(
                state, port=0,
                audit_log=tmp_path / "a.jsonl",
                metrics_interval_s=0.0,
            )

    @pytest.mark.parametrize("interval", [float("nan"), float("inf")])
    def test_interval_must_be_finite(self, tmp_path, interval):
        # asyncio.sleep(nan) never returns: the dumps would silently stop.
        state = ServeState.build(SMALL)
        with pytest.raises(ConfigurationError, match="finite"):
            AllocationDaemon(
                state, port=0,
                audit_log=tmp_path / "a.jsonl",
                metrics_interval_s=interval,
            )


class TestRequestLabelChildren:
    """Each (op, status) resolves its children once and reuses them."""

    def test_every_op_keeps_one_cached_child_per_label_set(self, client):
        from repro.serve import daemon as daemon_module
        from repro.serve.client import ServeError
        from repro.serve.protocol import OPS

        requests_cache = daemon_module._REQUESTS
        latency_cache = daemon_module._REQUEST_LATENCY
        params = {
            "observe": {"renewable_w": 300.0, "demand_w": 500.0},
            "submit": {"job": {
                "job_id": "j0", "energy_wh": 10.0, "power_w": 100.0,
                "earliest_start_s": 0.0, "deadline_s": 1e9, "value": 1.0,
            }},
        }

        def serve_every_op():
            served = set()
            for op in sorted(OPS - {"shutdown"}) + ["no-such-op"]:
                for rack in ("rack0", "rack9"):
                    try:
                        client.request(op, rack=rack, **params.get(op, {}))
                        status = "ok"
                    except ServeError:
                        status = "error"
                    served.add((op if op in OPS else "invalid", status))
            return served

        served = serve_every_op()
        assert {status for _, status in served} == {"ok", "error"}
        assert served <= set(requests_cache)
        assert {op for op, _ in served} <= set(latency_cache)
        cached = dict(requests_cache), dict(latency_cache)
        n_children = (
            len(list(daemon_module._REQUESTS_TOTAL.children())),
            len(list(daemon_module._REQUEST_SECONDS.children())),
        )
        serve_every_op()
        # A second round resolves nothing new: same keys, same children.
        assert (dict(requests_cache), dict(latency_cache)) == cached
        for (op, status), child in requests_cache.items():
            assert child is daemon_module._REQUESTS_TOTAL.labels(op, status)
        for op, child in latency_cache.items():
            assert child is daemon_module._REQUEST_SECONDS.labels(op)
        assert n_children == (
            len(list(daemon_module._REQUESTS_TOTAL.children())),
            len(list(daemon_module._REQUEST_SECONDS.children())),
        )
