"""Property-based round-trip tests for database persistence."""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.core.database import FitKind, ProfilingDatabase


@st.composite
def databases(draw):
    db = ProfilingDatabase(
        fit_kind=draw(st.sampled_from(list(FitKind))),
        max_samples=draw(st.integers(min_value=8, max_value=64)),
    )
    n_entries = draw(st.integers(min_value=0, max_value=4))
    for i in range(n_entries):
        key = (f"plat{i}", draw(st.sampled_from(["SPECjbb", "Mcf", "Canneal"])))
        idle = draw(st.floats(min_value=10.0, max_value=100.0))
        span = draw(st.floats(min_value=20.0, max_value=120.0))
        n_samples = draw(st.integers(min_value=0, max_value=12))
        db.ensure_entry(key, idle, idle + span)
        powers = sorted(
            draw(
                st.lists(
                    st.floats(min_value=idle + 1.0, max_value=idle + span),
                    min_size=n_samples,
                    max_size=n_samples,
                )
            )
        )
        for p in powers:
            db.add_sample(key, p, draw(st.floats(min_value=0.1, max_value=1e5)))
        if len({round(p, 6) for p in powers}) >= 2:
            db.refit(key)
    return db


def reloaded(state):
    """A fresh database with ``state`` installed."""
    db = ProfilingDatabase()
    db.load_state_dict(state)
    return db


@given(db=databases())
@settings(max_examples=40, deadline=None)
def test_round_trip_preserves_everything(db):
    restored = reloaded(db.state_dict())
    assert restored.keys() == db.keys()
    assert restored.fit_kind is db.fit_kind
    assert restored.max_samples == db.max_samples
    for key in db.keys():
        assert restored.sample_count(key) == db.sample_count(key)
        assert (key in restored) == (key in db)
        if key in db:
            a, b = db.projection(key), restored.projection(key)
            assert a.coefficients == pytest.approx(b.coefficients)
            assert a.min_power_w == b.min_power_w
            assert a.max_power_w == b.max_power_w


@given(db=databases())
@settings(max_examples=25, deadline=None)
def test_double_round_trip_is_stable(db):
    once = reloaded(db.state_dict()).state_dict()
    twice = reloaded(once).state_dict()
    assert once == twice
