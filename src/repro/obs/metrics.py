"""Metric primitives and the process-wide registry.

Three metric kinds, mirroring the Prometheus data model:

``Counter``
    Monotonically increasing float (requests served, cache hits).
``Gauge``
    A value that can go both ways (queue depth, battery SoC).
``Histogram``
    Observation distribution over the fixed power-of-two buckets of
    :data:`POWER_OF_TWO_BUCKETS`, spanning ~1 µs to ~64 s.  Raw samples
    are additionally retained up to :data:`Histogram.SAMPLE_CAP`
    observations, so small samples (the common case for per-run
    telemetry) get *exact* percentiles; past the cap, percentiles
    degrade gracefully to bucket upper bounds.  Code is timed with
    :func:`repro.obs.tracing.trace`, which observes into the
    ``repro_span_seconds`` histogram; no other family times code except
    ``repro_serve_request_seconds`` (DESIGN.md §12).

Metrics are registered as *families*: a name plus a tuple of label
names, with one child per distinct label-value tuple
(``family.labels("hit")``).  A family with no labels builds its single
child at declaration and forwards to it.  Registration is idempotent —
re-declaring the same family returns the existing one, so modules can
declare their metrics at import time without coordination.  A hot path
that picks its labels at run time indexes a :class:`ChildCache` instead
of calling ``labels()``.

Every mutation short-circuits on the global enabled flag, which is how
:mod:`repro.obs.bench` measures the disabled/enabled overhead delta.

**One writer per process.**  Each process writes its metrics from one
thread: the daemon's event loop (DESIGN.md §11), or the main thread of
a sim or runner worker.  So ``Counter.inc`` and ``Gauge.set`` take no
lock, and ``Histogram.observe`` is one list append: buckets, sum, count
and the exact sample are folded in, in observation order, when a value
is read or when :data:`FOLD_BOUND` observations are pending.  A fold
holds the histogram's lock and consumes only the prefix it saw, so an
append from another thread is never lost; reads (scrapes, snapshots)
may come from any thread.  ``tests/obs/test_single_writer.py`` checks
the rule on a served fleet and a sim lap (DESIGN.md §12).
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Any, Iterable, Iterator, Sequence

from repro.errors import ConfigurationError
from repro.obs.stats import percentile

#: Fixed histogram bounds: powers of two from 2^-20 s (~1 µs) to 2^6 s
#: (64 s), plus the implicit +Inf bucket.  Fixed — rather than
#: per-metric — so any two histograms can be aggregated bucket-wise.
POWER_OF_TWO_BUCKETS: tuple[float, ...] = tuple(2.0**e for e in range(-20, 7))

#: Every bucket's upper bound, the +Inf catch-all last.
_UPPER_BOUNDS = (*POWER_OF_TWO_BUCKETS, math.inf)

#: Pending observations at which ``Histogram.observe`` folds on its own,
#: so a histogram nobody reads holds a bounded list.
FOLD_BOUND = 256

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Global kill switch.  Checked first in every mutation path; flipping
#: it off reduces instrumentation to one module-global read per call.
_ENABLED = True


def set_enabled(enabled: bool) -> None:
    """Turn all metric mutation (and span recording) on or off."""
    global _ENABLED
    _ENABLED = bool(enabled)


def obs_enabled() -> bool:
    """Whether instrumentation is currently recording."""
    return _ENABLED


def _fmt(value: float) -> str:
    """A float in exposition format: integral values without the dot."""
    if value != value or value in (math.inf, -math.inf):  # NaN / ±Inf
        return {math.inf: "+Inf", -math.inf: "-Inf"}.get(value, "NaN")
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_suffix(labelnames: Sequence[str], labelvalues: Sequence[str]) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(labelnames, labelvalues)
    )
    return "{" + pairs + "}"


class Counter:
    """A monotonically increasing value."""

    kind = "counter"

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not _ENABLED:
            return
        if amount < 0:
            raise ConfigurationError("counters only go up; use a Gauge")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self._value = 0.0

    def state(self) -> float:
        return self._value


class Gauge:
    """A value that can rise and fall."""

    kind = "gauge"

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def set(self, value: float) -> None:
        if not _ENABLED:
            return
        self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self._value = 0.0

    def state(self) -> float:
        return self._value


class Histogram:
    """Power-of-two-bucket histogram with exact small-sample quantiles.

    The upper bounds are :data:`POWER_OF_TWO_BUCKETS` plus an implicit
    +Inf bucket.  The first :data:`SAMPLE_CAP` raw observations are
    kept for exact percentiles; past the cap the raw sample is dropped
    and :meth:`percentile` answers from bucket upper bounds instead —
    bounded memory for long-running daemons.

    ``observe`` only appends to a pending list; every read folds the
    pending values in first, in observation order, so each view equals
    what an eager update per observation would give, ``sum`` bit for bit.
    """

    kind = "histogram"

    SAMPLE_CAP = 2048

    __slots__ = ("_count", "_counts", "_lock", "_pending", "_samples", "_sum")

    def __init__(self) -> None:
        self._counts = [0] * len(_UPPER_BOUNDS)
        self._sum = 0.0
        self._count = 0
        self._samples: list[float] | None = []
        self._pending: list[float] = []
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        if not _ENABLED:
            return
        pending = self._pending
        pending.append(float(value))
        if len(pending) >= FOLD_BOUND:
            self.fold()

    def fold(self) -> None:
        """Fold the pending observations in now (every read does)."""
        with self._lock:
            self._fold()

    def _fold(self) -> None:
        """Fold the pending prefix into the state; hold ``self._lock``.

        Only the ``n`` values seen here are consumed, so a value another
        thread appends meanwhile stays pending for the next fold.
        """
        pending = self._pending
        n = len(pending)
        if not n:
            return
        batch = pending[:n]
        del pending[:n]
        counts = self._counts
        total = self._sum
        for value in batch:
            # First bucket whose bound >= value (+Inf catch-all past the end).
            counts[bisect_left(POWER_OF_TWO_BUCKETS, value)] += 1
            total += value
        self._sum = total
        self._count += n
        if self._samples is not None:
            if self._count <= Histogram.SAMPLE_CAP:
                self._samples.extend(batch)
            else:
                self._samples = None  # past the cap: buckets only

    @property
    def count(self) -> int:
        with self._lock:
            self._fold()
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            self._fold()
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            self._fold()
            return self._sum / self._count if self._count else 0.0

    def percentile(self, fraction: float) -> float:
        """Quantile estimate: exact below the sample cap, else bucketed.

        The bucketed estimate answers with the upper bound of the first
        bucket whose cumulative count reaches the requested rank — a
        conservative (never optimistic) latency figure.
        """
        with self._lock:
            self._fold()
            if self._count == 0:
                return 0.0
            if self._samples is not None:
                return percentile(sorted(self._samples), fraction)
            rank = max(1, math.ceil(fraction * self._count))
            seen = 0
            for bound, n in zip(_UPPER_BOUNDS, self._counts):
                seen += n
                if seen >= rank:
                    return bound
            return math.inf  # pragma: no cover - ranks never exceed count

    def bucket_counts(self) -> tuple[tuple[float, int], ...]:
        """Cumulative ``(upper_bound, count)`` pairs, +Inf last."""
        with self._lock:
            self._fold()
            out: list[tuple[float, int]] = []
            seen = 0
            for bound, n in zip(_UPPER_BOUNDS, self._counts):
                seen += n
                out.append((bound, seen))
            return tuple(out)

    def reset(self) -> None:
        with self._lock:
            del self._pending[:len(self._pending)]
            self._counts = [0] * len(_UPPER_BOUNDS)
            self._sum = 0.0
            self._count = 0
            self._samples = []

    def state(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p99": self.percentile(0.99),
        }


class _Family:
    """A named metric with a label schema and one child per label tuple.

    An unlabelled family builds its one child here; ``labels()`` with
    no values returns it, and an unlabelled counter's ``inc`` goes
    straight to it.  Each subclass's ``_new_child`` builds its child type.
    """

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...]) -> None:
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._children: dict[tuple[str, ...], Any] = {}
        self._lock = threading.Lock()
        if not labelnames:
            self._child = self._children[()] = self._new_child()

    def labels(self, *values: object) -> Any:
        """The child for one label-value tuple, created on first use."""
        if len(values) != len(self.labelnames):
            raise ConfigurationError(
                f"metric {self.name} takes labels {self.labelnames}, got {values!r}"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)  # lock-free fast path (GIL-safe)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._new_child())
        return child

    def children(self) -> Iterator[tuple[tuple[str, ...], Any]]:
        with self._lock:
            return iter(sorted(self._children.items()))

    def reset(self) -> None:
        with self._lock:
            for child in self._children.values():
                child.reset()


class ChildCache(dict):
    """Label values -> one family's child, each resolved on first use.

    Hot paths index this instead of calling ``labels()``, so a repeat
    costs one dict lookup.  A one-label family is keyed by the value, a
    wider one by the value tuple; there is one entry per key a caller
    uses, so the cache is as bounded as the label set.  ``keys`` are
    resolved up front, which puts their children in every scrape.
    """

    def __init__(self, family: _Family, keys: Iterable[Any] = ()) -> None:
        super().__init__()
        self.family = family
        for key in keys:
            self[key]

    def __missing__(self, key: Any) -> Any:
        values = key if isinstance(key, tuple) else (key,)
        child = self[key] = self.family.labels(*values)
        return child


class CounterFamily(_Family):
    kind = "counter"

    def _new_child(self) -> Counter:
        return Counter()

    def inc(self, amount: float = 1.0) -> None:
        self._child.inc(amount)


class GaugeFamily(_Family):
    kind = "gauge"

    def _new_child(self) -> Gauge:
        return Gauge()


class HistogramFamily(_Family):
    kind = "histogram"

    def _new_child(self) -> Histogram:
        return Histogram()


class MetricsRegistry:
    """Process-wide collection of metric families.

    ``counter`` / ``gauge`` / ``histogram`` are idempotent declarators:
    the first call registers the family, later calls with a matching
    schema return it, and a kind or label-schema mismatch raises —
    catching two modules fighting over one name at import time.
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    def _declare(self, family_cls: type, name: str, help: str,
                 labelnames: Sequence[str]) -> Any:
        if not _NAME_RE.match(name):
            raise ConfigurationError(f"invalid metric name {name!r}")
        names = tuple(labelnames)
        for label in names:
            if not _LABEL_RE.match(label):
                raise ConfigurationError(f"invalid label name {label!r}")
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if type(existing) is not family_cls or existing.labelnames != names:
                    raise ConfigurationError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}{existing.labelnames}"
                    )
                return existing
            family = family_cls(name, help, names)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> CounterFamily:
        return self._declare(CounterFamily, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> GaugeFamily:
        return self._declare(GaugeFamily, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = ()) -> HistogramFamily:
        return self._declare(HistogramFamily, name, help, labelnames)

    def families(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._families))

    def get(self, name: str) -> _Family | None:
        return self._families.get(name)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def expose(self) -> str:
        """The registry in Prometheus text exposition format."""
        lines: list[str] = []
        with self._lock:
            families = sorted(self._families.items())
        for name, family in families:
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for labelvalues, child in family.children():
                suffix = _label_suffix(family.labelnames, labelvalues)
                if family.kind == "histogram":
                    for bound, cumulative in child.bucket_counts():
                        le = _label_suffix(
                            (*family.labelnames, "le"),
                            (*labelvalues, _fmt(bound)),
                        )
                        lines.append(f"{name}_bucket{le} {cumulative}")
                    lines.append(f"{name}_sum{suffix} {_fmt(child.sum)}")
                    lines.append(f"{name}_count{suffix} {child.count}")
                else:
                    lines.append(f"{name}{suffix} {_fmt(child.value)}")
        return "\n".join(lines) + "\n" if lines else ""

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready view: family -> {label tuple (joined) -> state}."""
        out: dict[str, Any] = {}
        with self._lock:
            families = sorted(self._families.items())
        for name, family in families:
            children = {
                ",".join(labelvalues) if labelvalues else "": child.state()
                for labelvalues, child in family.children()
            }
            out[name] = {
                "kind": family.kind,
                "labelnames": list(family.labelnames),
                "values": children,
            }
        return out

    def reset(self) -> None:
        """Zero every child's state; registrations are kept."""
        with self._lock:
            families = list(self._families.values())
        for family in families:
            family.reset()


#: The process-wide default registry all built-in instrumentation uses.
REGISTRY = MetricsRegistry()


def parse_exposition(text: str) -> dict[str, dict[str, Any]]:
    """Parse Prometheus text back into ``{family: {kind, samples}}``.

    Small structural parser for the smoke test and unit tests: sample
    lines become ``(name_with_suffix, labels_string, value)`` triples
    grouped under their ``# TYPE`` family.  Raises on lines that fit
    neither the comment nor the sample grammar.
    """
    families: dict[str, dict[str, Any]] = {}

    def family_of(sample_name: str) -> str:
        for suffix in ("_bucket", "_sum", "_count"):
            base = sample_name[: -len(suffix)] if sample_name.endswith(suffix) else None
            if base and families.get(base, {}).get("kind") == "histogram":
                return base
        return sample_name

    sample_re = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            families[name] = {"kind": kind, "help": families.get(name, {}).get("help", ""), "samples": []}
            continue
        if line.startswith("# HELP "):
            _, _, name, help_text = line.split(" ", 3)
            families.setdefault(name, {"kind": None, "samples": []})["help"] = help_text
            continue
        if line.startswith("#"):
            continue
        match = sample_re.match(line)
        if match is None:
            raise ConfigurationError(f"unparseable exposition line: {line!r}")
        sample_name, labels, raw = match.groups()
        value = math.inf if raw == "+Inf" else float(raw)
        family = family_of(sample_name)
        families.setdefault(family, {"kind": None, "samples": []})["samples"].append(
            (sample_name, labels or "", value)
        )
    return families
