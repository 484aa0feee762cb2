"""Layer spans recorded from outside the program.

:class:`LayerTracer` replaces public methods of the program's classes with
thin wrappers that time each call, then puts the originals back.  Nothing
under ``src/`` changes: the wrappers exist only while a traced run has
them installed.

Each finished span is accounted under the key ``(root, parent, name)``:
``root`` is the outermost wrapped call on the thread's stack, ``parent``
the innermost enclosing one.  A span's *self* time is its duration minus
the durations of the wrapped calls directly inside it, so for every root
the self times of all spans under it sum exactly to the root's total
time — no part of a traced call is left unattributed.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterable


@dataclass
class SpanStats:
    """Calls, total seconds and self seconds of one span key."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class _Frame:
    __slots__ = ("name", "start", "child_s")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.child_s = 0.0


class LayerTracer:
    """Thread-aware span recorder with method patching.

    ``clock`` is injectable so tests can drive the accounting with exact
    timestamps.
    """

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[type, str, Any]] = []
        self.stats: dict[tuple[str, str, str], SpanStats] = {}
        #: Every span's duration (seconds) by name, for percentiles.
        self.durations: dict[str, list[float]] = {}

    # ------------------------------------------------------------------
    # Span accounting
    # ------------------------------------------------------------------
    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> _Frame:
        frame = _Frame(name, self._clock())
        self._stack().append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        end = self._clock()
        stack = self._stack()
        popped = stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        duration = end - frame.start
        if stack:
            stack[-1].child_s += duration
            key = (stack[0].name, stack[-1].name, frame.name)
        else:
            key = (frame.name, "", frame.name)
        with self._lock:
            stats = self.stats.get(key)
            if stats is None:
                stats = self.stats[key] = SpanStats()
            stats.calls += 1
            stats.total_s += duration
            stats.self_s += duration - frame.child_s
            self.durations.setdefault(frame.name, []).append(duration)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def wrap(self, owner: type, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as span ``name``."""
        raw = owner.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            patched: Any = type(raw)(self._wrapper(raw.__func__, name))
        else:
            patched = self._wrapper(raw, name)
        setattr(owner, attr, patched)
        self._patches.append((owner, attr, raw))

    def wrap_all(self, layers: Iterable[tuple[type, str, str]]) -> None:
        for owner, attr, name in layers:
            self.wrap(owner, attr, name)

    def collect_instances(self, owner: type) -> list[Any]:
        """Record every ``owner`` built while patched; returns the live list."""
        raw = owner.__dict__["__init__"]
        instances: list[Any] = []

        def init(obj: Any, *args: Any, **kwargs: Any) -> None:
            raw(obj, *args, **kwargs)
            instances.append(obj)

        owner.__init__ = init  # type: ignore[misc]
        self._patches.append((owner, "__init__", raw))
        return instances

    def unwrap_all(self) -> None:
        """Restore every patched method, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def _wrapper(self, func: Callable[..., Any], name: str) -> Callable[..., Any]:
        enter, exit_ = self.enter, self.exit

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = enter(name)
            try:
                return func(*args, **kwargs)
            finally:
                exit_(frame)

        wrapper.__name__ = getattr(func, "__name__", name)
        wrapper.__qualname__ = getattr(func, "__qualname__", name)
        wrapper.__doc__ = func.__doc__
        return wrapper

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def total(self, name: str, root: str | None = None, parent: str | None = None) -> SpanStats:
        """Stats of span ``name`` summed over the matching keys."""
        out = SpanStats()
        for (r, p, n), stats in self.stats.items():
            if n == name and (root is None or r == root) and (parent is None or p == parent):
                out.calls += stats.calls
                out.total_s += stats.total_s
                out.self_s += stats.self_s
        return out

    def roots(self) -> list[str]:
        return sorted({r for r, _, _ in self.stats})

    def table(self, root: str) -> dict[str, SpanStats]:
        """Per-span stats of every call made under ``root`` (root included)."""
        out: dict[str, SpanStats] = {}
        for (r, _, n), stats in self.stats.items():
            if r != root:
                continue
            row = out.setdefault(n, SpanStats())
            row.calls += stats.calls
            row.total_s += stats.total_s
            row.self_s += stats.self_s
        return out
