"""Span tracing: the one instrument that times code.

``trace(name)`` returns a :class:`Span`, which is both a context manager
and a decorator.  Each span measures a monotonic-clock duration, knows
its parent (propagated through a :class:`contextvars.ContextVar`, so
nesting works across threads and asyncio tasks alike), and on close:

1. records its duration into the shared ``repro_span_seconds{span=…}``
   histogram family of the default registry — so per-phase latency
   distributions (epoch, scheduler phases, solver, shift planning) are
   always available from a plain metrics scrape, and
2. when a sink is set (``set_trace_sink``), appends a JSON line
   preserving the full parent/child structure for offline flame-graph
   style analysis.

Every timed region of the program is a span; DESIGN.md §12 lists the
names.  Span and trace ids are small per-process integers, not random
UUIDs — deterministic runs stay deterministic and the JSONL stays
greppable.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from contextvars import ContextVar, Token
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, TypeVar

from repro.obs import metrics as _metrics

F = TypeVar("F", bound=Callable[..., Any])

_SPAN_SECONDS = _metrics.REGISTRY.histogram(
    "repro_span_seconds",
    "Duration of traced spans, labelled by span name",
    labelnames=("span",),
)

#: Span name -> its ``repro_span_seconds`` child, so closing a span is
#: one dict hit instead of a ``labels()`` call.  A name's child is made
#: when its first span closes, so a scrape lists only spans that ran.
_HISTOGRAMS = _metrics.ChildCache(_SPAN_SECONDS)

_CURRENT: ContextVar["Span | None"] = ContextVar("repro_obs_current_span", default=None)

# ``itertools.count.__next__`` is atomic under the GIL; no lock.
_next_id = itertools.count(1).__next__

_sink_path: Path | None = None
_sink_lock = threading.Lock()


class Span:
    """One timed region, linked to its parent.

    ``with trace("x") as span:`` opens the span for the block (``span``
    is None while instrumentation is disabled).  ``@trace("x")`` opens a
    fresh span with the same name and attributes on every call.
    """

    __slots__ = (
        "_token", "attrs", "duration_s", "error", "name", "parent_id",
        "span_id", "start_monotonic_s", "trace_id",
    )

    def __init__(self, name: str, attrs: dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self._token: Token | None = None

    def __enter__(self) -> "Span | None":
        if not _metrics._ENABLED:
            return None
        parent = _CURRENT.get()
        self.span_id = span_id = _next_id()
        if parent is None:
            self.trace_id = span_id
            self.parent_id = None
        else:
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
        self.duration_s = None
        self.error = False
        self._token = _CURRENT.set(self)
        self.start_monotonic_s = perf_counter()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        token = self._token
        if token is None:
            return
        self.duration_s = duration = perf_counter() - self.start_monotonic_s
        _CURRENT.reset(token)
        self._token = None
        self.error = exc_type is not None
        # ``Histogram.observe`` inlined: the span checked the enabled flag
        # when it opened, and its duration is already a float.
        hist = _HISTOGRAMS[self.name]
        pending = hist._pending
        pending.append(duration)
        if len(pending) >= _metrics.FOLD_BOUND:
            hist.fold()
        if _sink_path is not None:
            _write(self.to_record())

    def __call__(self, func: F) -> F:
        name, attrs = self.name, self.attrs

        @functools.wraps(func)
        def wrapped(*args: Any, **kwargs: Any) -> Any:
            with Span(name, dict(attrs) if attrs else {}):
                return func(*args, **kwargs)

        return wrapped  # type: ignore[return-value]

    def to_record(self) -> dict[str, Any]:
        """The JSONL sink's line format."""
        record: dict[str, Any] = {
            "name": self.name,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "start_monotonic_s": self.start_monotonic_s,
            "duration_s": self.duration_s,
        }
        if self.error:
            record["error"] = True
        if self.attrs:
            record["attrs"] = self.attrs
        return record


def _write(record: dict[str, Any]) -> None:
    line = json.dumps(record, sort_keys=True) + "\n"
    with _sink_lock:
        if _sink_path is not None:
            with open(_sink_path, "a", encoding="utf-8") as fh:
                fh.write(line)


def trace(name: str, **attrs: Any) -> Span:
    """Time a region: ``with trace("x"): ...`` or ``@trace("x")``."""
    return Span(name, attrs)


def set_trace_sink(path: str | Path | None) -> None:
    """Append finished spans as JSON lines to ``path`` (None: off)."""
    global _sink_path
    with _sink_lock:
        _sink_path = Path(path) if path is not None else None
