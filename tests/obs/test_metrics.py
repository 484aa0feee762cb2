"""Metric primitives, the registry, and Prometheus exposition."""

import math
import threading

import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import (
    POWER_OF_TWO_BUCKETS,
    Histogram,
    MetricsRegistry,
    obs_enabled,
    parse_exposition,
    set_enabled,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


@pytest.fixture
def enabled():
    """Instrumentation on for the test, restored afterwards."""
    before = obs_enabled()
    set_enabled(True)
    yield
    set_enabled(before)


class TestCounter:
    def test_starts_at_zero_and_increments(self, registry, enabled):
        c = registry.counter("c_total")
        assert c.labels().value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.labels().value == 3.5

    def test_negative_increment_rejected(self, registry, enabled):
        c = registry.counter("c_total")
        with pytest.raises(ConfigurationError, match="only go up"):
            c.inc(-1.0)

    def test_reset(self, registry, enabled):
        c = registry.counter("c_total")
        c.inc(4.0)
        registry.reset()
        assert c.labels().value == 0.0

    def test_disabled_is_a_noop(self, registry, enabled):
        c = registry.counter("c_total")
        set_enabled(False)
        c.inc(100.0)
        assert c.labels().value == 0.0

    def test_labelled_children_are_independent(self, registry, enabled):
        fam = registry.counter("hits_total", labelnames=("result",))
        fam.labels("hit").inc(3)
        fam.labels("miss").inc()
        assert fam.labels("hit").value == 3.0
        assert fam.labels("miss").value == 1.0
        assert fam.labels("hit") is fam.labels("hit")

    def test_wrong_label_count_rejected(self, registry, enabled):
        fam = registry.counter("hits_total", labelnames=("result",))
        with pytest.raises(ConfigurationError, match="takes labels"):
            fam.labels("a", "b")
        with pytest.raises(ConfigurationError, match="takes labels"):
            fam.labels()

    def test_unlabelled_family_forwards_to_its_one_child(self, registry, enabled):
        c = registry.counter("c_total")
        c.inc(2.0)
        assert c.labels() is c.labels()
        assert c.labels().value == 2.0


class TestGauge:
    def test_set_replaces_value(self, registry, enabled):
        g = registry.gauge("depth")
        g.labels().set(10.0)
        g.labels().set(7.0)
        assert g.labels().value == 7.0

    def test_disabled_is_a_noop(self, registry, enabled):
        g = registry.gauge("depth")
        set_enabled(False)
        g.labels().set(42.0)
        assert g.labels().value == 0.0


class TestHistogram:
    def test_default_buckets_are_powers_of_two(self):
        assert POWER_OF_TWO_BUCKETS[0] == 2.0**-20
        assert POWER_OF_TWO_BUCKETS[-1] == 64.0
        assert all(
            b2 == 2 * b1
            for b1, b2 in zip(POWER_OF_TWO_BUCKETS, POWER_OF_TWO_BUCKETS[1:])
        )

    def test_count_sum_mean(self, registry, enabled):
        h = registry.histogram("h_seconds")
        for v in (0.5, 1.5, 4.0):
            h.labels().observe(v)
        child = h.labels()
        assert child.count == 3
        assert child.sum == 6.0
        assert child.mean == 2.0

    def test_small_sample_percentiles_are_exact(self, registry, enabled):
        h = registry.histogram("h_seconds").labels()
        for v in (0.1, 0.2, 0.3, 0.4, 0.5):
            h.observe(v)
        assert h.percentile(0.5) == 0.3
        assert h.percentile(1.0) == 0.5

    def test_past_cap_percentiles_use_bucket_bounds(self, enabled):
        h = Histogram()
        assert h.percentile(0.5) == 0.0
        for _ in range(Histogram.SAMPLE_CAP):
            h.observe(0.3)  # falls in the (0.25, 0.5] bucket
        assert h.percentile(0.5) == 0.3  # still exact at the cap
        h.observe(0.3)
        assert h.count == Histogram.SAMPLE_CAP + 1
        # Exact sample is gone; the answer degrades to the bucket bound.
        assert h.percentile(0.5) == 0.5

    def test_bucket_counts_cumulative_with_inf(self, registry, enabled):
        h = registry.histogram("h_seconds").labels()
        for v in (0.5, 1.5, 100.0):  # 100 s is past the last finite bound
            h.observe(v)
        counts = dict(h.bucket_counts())
        assert list(counts) == [*POWER_OF_TWO_BUCKETS, math.inf]
        assert counts[0.25] == 0
        assert counts[0.5] == 1  # bounds are inclusive
        assert counts[1.0] == 1
        assert counts[2.0] == 2
        assert counts[64.0] == 2
        assert counts[math.inf] == 3

    def test_empty_percentile_is_zero(self, registry, enabled):
        assert registry.histogram("h_seconds").labels().percentile(0.99) == 0.0

    def test_disabled_is_a_noop(self, registry, enabled):
        h = registry.histogram("h_seconds").labels()
        set_enabled(False)
        h.observe(1.0)
        assert h.count == 0

    def test_concurrent_observes_all_land(self, registry, enabled):
        h = registry.histogram("h_seconds").labels()

        def hammer():
            for _ in range(500):
                h.observe(0.001)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count == 2000


class TestRegistry:
    def test_redeclare_same_schema_returns_existing(self, registry):
        a = registry.counter("x_total", "help", labelnames=("k",))
        b = registry.counter("x_total", "other help", labelnames=("k",))
        assert a is b

    def test_kind_mismatch_raises(self, registry):
        registry.counter("x_total")
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.gauge("x_total")

    def test_labelnames_mismatch_raises(self, registry):
        registry.counter("x_total", labelnames=("a",))
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.counter("x_total", labelnames=("b",))

    def test_invalid_names_rejected(self, registry):
        with pytest.raises(ConfigurationError, match="invalid metric name"):
            registry.counter("2bad")
        with pytest.raises(ConfigurationError, match="invalid label name"):
            registry.counter("ok_total", labelnames=("le-gal",))

    def test_families_sorted(self, registry):
        registry.gauge("b")
        registry.counter("a_total")
        assert registry.families() == ("a_total", "b")

    def test_snapshot_and_reset(self, registry, enabled):
        registry.counter("c_total", labelnames=("k",)).labels("v").inc(2)
        snap = registry.snapshot()
        assert snap["c_total"]["kind"] == "counter"
        assert snap["c_total"]["values"]["v"] == 2.0
        registry.reset()
        assert registry.snapshot()["c_total"]["values"]["v"] == 0.0


class TestExposition:
    def test_counter_and_gauge_lines(self, registry, enabled):
        registry.counter("c_total", "requests").inc(3)
        registry.gauge("g", "depth").labels().set(1.5)
        text = registry.expose()
        assert "# HELP c_total requests" in text
        assert "# TYPE c_total counter" in text
        assert "c_total 3" in text
        assert "g 1.5" in text
        assert text.endswith("\n")

    def test_histogram_series(self, registry, enabled):
        registry.histogram("h_seconds").labels().observe(1.5)
        text = registry.expose()
        assert 'h_seconds_bucket{le="1"} 0' in text
        assert 'h_seconds_bucket{le="2"} 1' in text
        assert 'h_seconds_bucket{le="+Inf"} 1' in text
        assert "h_seconds_sum 1.5" in text
        assert "h_seconds_count 1" in text

    def test_label_values_escaped(self, registry, enabled):
        registry.counter("c_total", labelnames=("k",)).labels('a"b\\c\nd').inc()
        text = registry.expose()
        assert r'k="a\"b\\c\nd"' in text

    def test_round_trip_through_parser(self, registry, enabled):
        registry.counter("c_total", "requests", labelnames=("op",)).labels("get").inc(2)
        registry.histogram("h_seconds").labels().observe(0.5)
        families = parse_exposition(registry.expose())
        assert families["c_total"]["kind"] == "counter"
        assert ("c_total", '{op="get"}', 2.0) in families["c_total"]["samples"]
        assert families["h_seconds"]["kind"] == "histogram"
        names = {name for name, _, _ in families["h_seconds"]["samples"]}
        assert names == {"h_seconds_bucket", "h_seconds_sum", "h_seconds_count"}

    def test_parser_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            parse_exposition("this is not exposition text\n")

    def test_empty_registry_exposes_empty(self, registry):
        assert registry.expose() == ""
