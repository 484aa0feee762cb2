"""A histogram folded at read time equals one updated per observation.

``Histogram.observe`` only appends; the reference below is the eager
update it replaced (bisect into the bucket, add to the running sum,
keep the sample up to the cap).  Every view must match it exactly,
``sum`` bit for bit, on streams that cross the fold bound and the
sample cap, are read mid-stream, reset mid-stream, and land on bucket
edges.
"""

import math
import sys
import threading
from bisect import bisect_left

import numpy as np
import pytest

from repro.obs.metrics import (
    FOLD_BOUND,
    POWER_OF_TWO_BUCKETS,
    Histogram,
    MetricsRegistry,
    _fmt,
    obs_enabled,
    set_enabled,
)
from repro.obs.stats import percentile
from repro.obs.tracing import _HISTOGRAMS, trace

BOUNDS = (*POWER_OF_TWO_BUCKETS, math.inf)


class EagerHistogram:
    """The per-observation update, as a reference."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.counts = [0] * len(BOUNDS)
        self.sum = 0.0
        self.count = 0
        self.samples = []

    def observe(self, value):
        value = float(value)
        self.counts[bisect_left(POWER_OF_TWO_BUCKETS, value)] += 1
        self.sum += value
        self.count += 1
        if self.samples is not None:
            if self.count <= Histogram.SAMPLE_CAP:
                self.samples.append(value)
            else:
                self.samples = None

    def percentile(self, fraction):
        if self.count == 0:
            return 0.0
        if self.samples is not None:
            return percentile(sorted(self.samples), fraction)
        rank = max(1, math.ceil(fraction * self.count))
        seen = 0
        for bound, n in zip(BOUNDS, self.counts):
            seen += n
            if seen >= rank:
                return bound

    def bucket_counts(self):
        out, seen = [], 0
        for bound, n in zip(BOUNDS, self.counts):
            seen += n
            out.append((bound, seen))
        return tuple(out)

    def exposition(self, name):
        lines = [
            f'{name}_bucket{{le="{_fmt(bound)}"}} {cumulative}'
            for bound, cumulative in self.bucket_counts()
        ]
        return [*lines, f"{name}_sum {_fmt(self.sum)}", f"{name}_count {self.count}"]


@pytest.fixture(autouse=True)
def enabled():
    before = obs_enabled()
    set_enabled(True)
    yield
    set_enabled(before)


def stream(seed, n):
    """Span-like durations with bucket edges, zero and huge values mixed in."""
    rng = np.random.default_rng(seed)
    values = rng.lognormal(mean=-9.0, sigma=2.5, size=n).tolist()
    edges = [
        *POWER_OF_TWO_BUCKETS,
        *np.nextafter(POWER_OF_TWO_BUCKETS, 0.0).tolist(),
        *np.nextafter(POWER_OF_TWO_BUCKETS, math.inf).tolist(),
        0.0, 2.0**-30, 100.0, 1e9,
    ]
    for i, edge in zip(rng.choice(n, size=len(edges), replace=False), edges):
        values[i] = edge
    return values


def assert_same(folded, eager, registry):
    assert folded.count == eager.count
    assert folded.sum == eager.sum  # bit for bit: same order of addition
    assert folded.bucket_counts() == eager.bucket_counts()
    for fraction in (0.5, 0.99):
        assert folded.percentile(fraction) == eager.percentile(fraction)
    exposed = [
        line for line in registry.expose().splitlines() if not line.startswith("#")
    ]
    assert exposed == eager.exposition("h_seconds")


def pair():
    registry = MetricsRegistry()
    return registry.histogram("h_seconds").labels(), EagerHistogram(), registry


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_read_at_the_end(seed):
    folded, eager, registry = pair()
    values = stream(seed, 3 * FOLD_BOUND + Histogram.SAMPLE_CAP + 17)
    for value in values:
        folded.observe(value)
        eager.observe(value)
    assert eager.samples is None  # the stream crossed the sample cap
    assert_same(folded, eager, registry)


@pytest.mark.parametrize("seed", [4, 5])
def test_reads_in_the_middle_of_the_stream(seed):
    folded, eager, registry = pair()
    rng = np.random.default_rng(seed)
    # One fold straddles the sample cap (1500 -> cap + 52 observations).
    reads = {FOLD_BOUND - 1, FOLD_BOUND, 1500, Histogram.SAMPLE_CAP + 52}
    reads |= set(rng.integers(Histogram.SAMPLE_CAP + 100, 6000, size=30).tolist())
    for i, value in enumerate(stream(seed, 6000)):
        folded.observe(value)
        eager.observe(value)
        if i in reads:
            assert_same(folded, eager, registry)
    assert_same(folded, eager, registry)


@pytest.mark.parametrize("reset_at", [10, FOLD_BOUND + 5, Histogram.SAMPLE_CAP + 300])
def test_reset_in_the_middle_of_the_stream(reset_at):
    folded, eager, registry = pair()
    for i, value in enumerate(stream(7, 5000)):
        if i == reset_at:
            registry.reset()
            eager.reset()
            assert_same(folded, eager, registry)
        folded.observe(value)
        eager.observe(value)
    assert_same(folded, eager, registry)


def test_state_and_mean_fold_too():
    folded, eager, _ = pair()
    for value in stream(8, 500):
        folded.observe(value)
        eager.observe(value)
    state = folded.state()
    assert state["count"] == eager.count
    assert state["sum"] == eager.sum
    assert state["mean"] == folded.mean == eager.sum / eager.count
    assert state["p99"] == eager.percentile(0.99)


def test_pending_observations_stay_bounded_without_reads():
    h = Histogram()
    for _ in range(10 * FOLD_BOUND + 3):
        h.observe(0.001)
    assert len(h._pending) < FOLD_BOUND
    assert h.count == 10 * FOLD_BOUND + 3


def test_span_closes_stay_bounded_without_reads():
    @trace("unit.bounded")
    def work():
        pass

    hist = _HISTOGRAMS["unit.bounded"]
    before = hist.count
    for _ in range(3 * FOLD_BOUND + 1):
        work()
    assert len(hist._pending) < FOLD_BOUND
    assert hist.count == before + 3 * FOLD_BOUND + 1


def test_folds_racing_appends_lose_nothing():
    # Appends from several threads race folds triggered by the bound and
    # by a reader; a fold consumes only the prefix it saw.
    h = Histogram()
    n_writers, per_writer = 4, 20_000
    start = threading.Barrier(n_writers)
    done = threading.Event()

    def write():
        start.wait(timeout=60)
        for _ in range(per_writer):
            h.observe(1.0)

    def read():
        while not done.is_set():
            h.count

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        reader = threading.Thread(target=read)
        writers = [threading.Thread(target=write) for _ in range(n_writers)]
        reader.start()
        for t in writers:
            t.start()
        for t in writers:
            t.join(timeout=60)
        done.set()
        reader.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not reader.is_alive() and not any(t.is_alive() for t in writers)
    total = n_writers * per_writer
    assert h.count == total
    assert h.sum == float(total)
    assert dict(h.bucket_counts())[1.0] == total
