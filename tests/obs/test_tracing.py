"""Span tracing: nesting, the decorator form, and the JSONL sink."""

import json

import pytest

from repro.obs.metrics import REGISTRY, obs_enabled, set_enabled
from repro.obs.tracing import Span, current_span, set_trace_sink, trace


@pytest.fixture
def enabled():
    before = obs_enabled()
    set_enabled(True)
    yield
    set_enabled(before)


@pytest.fixture
def sink(tmp_path):
    """A temporary JSONL sink, detached afterwards."""
    path = tmp_path / "trace.jsonl"
    set_trace_sink(path)
    yield path
    set_trace_sink(None)


def read_spans(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestSpans:
    def test_context_manager_yields_span(self, enabled):
        with trace("unit.outer") as span:
            assert span is not None
            assert span.name == "unit.outer"
            assert current_span() is span
        assert current_span() is None

    def test_nesting_links_parent_and_trace(self, enabled):
        with trace("unit.parent") as parent:
            with trace("unit.child") as child:
                assert child.parent_id == parent.span_id
                assert child.trace_id == parent.trace_id
        assert parent.parent_id is None
        assert parent.trace_id == parent.span_id

    def test_duration_recorded_into_histogram(self, enabled):
        fam = REGISTRY.get("repro_span_seconds")
        before = fam.labels("unit.timed").count
        with trace("unit.timed"):
            pass
        assert fam.labels("unit.timed").count == before + 1

    def test_disabled_yields_none_and_records_nothing(self, enabled, sink):
        set_enabled(False)
        with trace("unit.off") as span:
            assert span is None
        assert not sink.exists()

    def test_attrs_carried(self, enabled):
        with trace("unit.attrs", rack="rack0") as span:
            assert span.attrs == {"rack": "rack0"}

    def test_decorator_form(self, enabled):
        @trace("unit.decorated")
        def work(x):
            return x + 1

        fam = REGISTRY.get("repro_span_seconds")
        before = fam.labels("unit.decorated").count
        assert work(1) == 2
        assert work(2) == 3  # the handle is reusable across calls
        assert fam.labels("unit.decorated").count == before + 2

    def test_span_is_its_own_context_manager(self, enabled):
        # One object per span: trace() returns the Span that ``with`` yields.
        handle = trace("unit.one")
        assert isinstance(handle, Span)
        with handle as span:
            assert span is handle
        assert span.duration_s >= 0.0

    def test_decorator_opens_a_fresh_span_per_call(self, enabled):
        seen = []

        @trace("unit.fresh", rack="rack0")
        def work():
            seen.append(current_span())

        work()
        work()
        first, second = seen
        assert first is not second
        assert first.span_id != second.span_id
        assert first.attrs == second.attrs == {"rack": "rack0"}
        assert first.attrs is not second.attrs


class TestSink:
    def test_records_written_as_jsonl(self, enabled, sink):
        with trace("unit.parent"):
            with trace("unit.child"):
                pass
        records = read_spans(sink)
        # Children close first: child line precedes parent line.
        assert [r["name"] for r in records] == ["unit.child", "unit.parent"]
        child, parent = records
        assert child["parent_id"] == parent["span_id"]
        assert child["trace_id"] == parent["trace_id"]
        assert child["duration_s"] >= 0.0

    def test_error_flag_set_on_exception(self, enabled, sink):
        with pytest.raises(ValueError):
            with trace("unit.fails"):
                raise ValueError("boom")
        (record,) = read_spans(sink)
        assert record["error"] is True

    def test_attrs_serialized(self, enabled, sink):
        with trace("unit.attrs", rack="rack0"):
            pass
        (record,) = read_spans(sink)
        assert record["attrs"] == {"rack": "rack0"}

    def test_sink_detached_stops_writes(self, enabled, tmp_path):
        path = tmp_path / "trace.jsonl"
        set_trace_sink(path)
        with trace("unit.on"):
            pass
        set_trace_sink(None)
        with trace("unit.off"):
            pass
        assert [r["name"] for r in read_spans(path)] == ["unit.on"]
