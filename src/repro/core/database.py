"""The performance-power profiling database (paper Fig. 7, Algorithm 1).

The database is the scheduler's only knowledge of the heterogeneous
hardware: for every (server configuration, workload type) pair it keeps
the observed (power, performance) samples and a fitted relational
equation ``Perf = f(Power)``.

* **Training run** — the first time a pair is seen, the server runs for
  ~10 minutes with ample power under the ondemand governor, and a
  (power, perf) sample is recorded every 2 minutes (Section IV-B.2).
  Those few samples seed the first curve fit.
* **Curve fitting** — the paper fits a *quadratic* within the power
  demand range: cheap for the solver, and accurate enough because the
  true response is concave with a plateau at the workload's maximum
  draw.  A linear fit is kept for the ablation bench.  A higher order
  adds complexity for little gain, and the solver is exact only up to
  quadratics.
* **Online update (Algorithm 1)** — at every subsequent epoch the
  feedback samples from actual execution are appended and the equation
  is re-fit from both new and old profiling data, so the projection
  sharpens around the operating points the solver actually visits.

Entries also record the pair's power envelope (idle power and maximum
observed draw): predictions are zero below idle and plateau beyond the
maximum draw, the two boundary behaviours Section IV-B.3 specifies.

The refit is a least-squares solve from moments of the retained window,
recomputed from the window's contents on every call:

1. The active samples (perf > 0) are centred on their mean ``μ``:
   ``t = P − μ``.
2. One vectorised pass, a product of the stacked rows ``1, t, …, tᵈ,
   perf`` with their transpose, forms every ``Σt^(i+j)`` (the moments up
   to ``t^2d``) and ``Σtⁱ·perf`` (i ≤ d).
3. The moments are scaled by the RMS spread ``s`` (``u = t/s``, so
   ``Σu² = n``) and the (d+1)×(d+1) normal equations in ``u`` are solved
   by Gaussian elimination with partial pivoting in plain Python.
4. The solution, a polynomial in ``u``, is expanded back into
   descending power-basis coefficients of ``P`` (the ``np.polyval``
   convention :class:`PerfPowerFit` stores).

Why this is exact to well inside the benchmark's 1e-9 tolerance: the
normal equations square the condition number of the design matrix, and
in raw watts (P ≈ 100 W, P² ≈ 10⁴ W²) that square would cost most of the
double's digits.  Centred and scaled, the columns ``1, u, u²`` are O(1)
and far from collinear on any window with more than ``d`` distinct
power levels, so the solve loses only a few digits; on every live window
of the seed-2021 reference laps it agrees with a centred
``np.linalg.lstsq`` to 2.0e-10 relative over the power box (the former
``np.polyfit`` was 5.2e-10 off that reference).  Because the fit is a
pure function of the window, a database restored from a checkpoint
refits bit for bit like the live one: there are no running sums to drift
or to save.

Degenerate windows follow one rule.  When a pivot falls to ``n·eps`` of
the largest diagonal moment (``n`` samples), the centred system is
singular to working precision, and the fit drops one degree, keeping a
zero leading coefficient and the degree rule's :class:`FitKind`.  The
normal matrix holds squared singular values, so this cut-off is coarser
than ``np.polyfit``'s ``n·eps`` on singular values: it drops a power
that only sub-micro-watt jitter separates from the lower ones, where
``np.polyfit`` fits a curvature to that jitter.  A spread no larger than
``n·eps·|μ|`` is one power level, and fits the mean performance.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.core.persistence import Field, check, within
from repro.errors import ConfigurationError, DatabaseMissError
from repro.obs.metrics import REGISTRY as _REGISTRY, Gauge

_REFITS_TOTAL = _REGISTRY.counter(
    "repro_database_refits_total", "ProfilingDatabase.refit invocations"
).labels()
_FIT_CURVATURE = _REGISTRY.gauge(
    "repro_database_fit_curvature",
    "Quadratic coefficient l of the latest fit (negative = concave)",
    labelnames=("platform", "workload"),
)

_EPS = float(np.finfo(float).eps)

#: (platform name, workload name) — the database key.
PairKey = tuple[str, str]


class FitKind(enum.Enum):
    """Polynomial degree of the relational equation (quadratic in the paper)."""

    LINEAR = 1
    QUADRATIC = 2


_FIT_KINDS = tuple(FitKind.__members__)

#: The checkpointed fields of a :class:`ProfilingDatabase`, of each of
#: its records, and of a record's fit.  A negative ``min_active_power_w``
#: would fail every later refit, and a negative or non-finite sample
#: poison every refit until it aged out.
_STATE_FIELDS = {"fit_kind": Field(str, choices=_FIT_KINDS), "max_samples": Field(int, lo=4),
                 "entries": Field(dict, many=True)}
_RECORD_FIELDS = {
    "platform": Field(str), "workload": Field(str), "idle_power_w": Field(lo=0.0),
    "max_power_w": Field(), "min_active_power_w": Field(lo=0.0, nullable=True),
    "powers": Field(lo=0.0, many=True), "perfs": Field(lo=0.0, many=True),
}
_FIT_FIELDS = {"coefficients": Field(many=True), "min_power_w": Field(), "max_power_w": Field(),
               "kind": Field(str, choices=_FIT_KINDS), "n_samples": Field(int, lo=0)}


@dataclass(frozen=True)
class PerfPowerFit:
    """A fitted relational equation ``Perf = f(Power)`` with its validity box.

    Attributes
    ----------
    coefficients:
        Polynomial coefficients, highest power first (``np.polyval``
        convention).
    min_power_w:
        Below this (the server's idle power) performance is zero.
    max_power_w:
        Beyond this (the workload's maximum draw) performance plateaus.
    kind:
        The polynomial family used.
    n_samples:
        How many profiling samples produced this fit.
    """

    coefficients: tuple[float, ...]
    min_power_w: float
    max_power_w: float
    kind: FitKind = FitKind.QUADRATIC
    n_samples: int = 0

    def __post_init__(self) -> None:
        if self.min_power_w < 0:
            raise ConfigurationError("min power must be non-negative")
        if self.max_power_w <= self.min_power_w:
            raise ConfigurationError("max power must exceed min power")

    # Quadratic convenience accessors (the paper's l, m, n of Eq. 6-7).
    @property
    def l(self) -> float:  # noqa: E743 - paper notation
        """Quadratic coefficient (0 for lower-degree fits)."""
        pad = 3 - len(self.coefficients)
        return 0.0 if pad > 0 else self.coefficients[-3]

    @property
    def m(self) -> float:
        pad = 2 - len(self.coefficients)
        return 0.0 if pad > 0 else self.coefficients[-2]

    @property
    def n(self) -> float:
        return self.coefficients[-1]

    def raw(self, power_w: float) -> float:
        """Unclamped polynomial value (internal solver use).

        A scalar Horner loop: the same multiply-then-add sequence as
        ``np.polyval``, so the result is bit-identical, without its
        per-call array overhead.
        """
        value = 0.0
        for c in self.coefficients:
            value = value * power_w + c
        return float(value)

    def predict(self, power_w: float) -> float:
        """Projected performance at an allocated ``power_w`` (Section IV-B.3).

        Zero below the idle boundary, plateau above the maximum draw,
        clamped at zero everywhere (a fitted parabola can dip negative
        near the boundary of sparse training data).
        """
        if power_w < self.min_power_w:
            return 0.0
        clamped = min(power_w, self.max_power_w)
        return max(0.0, self.raw(clamped))

    def derivative(self, power_w: float) -> float:
        """d(perf)/d(power) of the unclamped (at most quadratic) polynomial."""
        return 2.0 * self.l * power_w + self.m

    def efficiency(self) -> float:
        """Throughput per watt at the maximum draw (GreenHetero-p's sort key)."""
        return self.predict(self.max_power_w) / self.max_power_w


class _Entry:
    """Mutable per-pair record: envelope, sample window, and the current fit.

    The window keeps the last ``capacity`` (power, perf) samples in a
    preallocated (2, 2·capacity) buffer.  Each sample is written twice,
    at column ``i`` and ``i + capacity``, so the retained samples are
    always one contiguous slice in chronological order (:meth:`window`)
    with no copy and no wrap-around stitching.  Writes go through a flat
    memoryview of the buffer, a cheaper scalar store than ndarray
    indexing.
    """

    __slots__ = (
        "_buf", "_capacity", "_flat", "_next", "count", "curvature", "fit",
        "idle_power_w", "max_power_w", "min_active_power_w",
    )

    def __init__(self, idle_power_w: float, max_power_w: float, capacity: int) -> None:
        self.idle_power_w = idle_power_w
        self.max_power_w = max_power_w
        #: Lowest power ever observed to produce throughput — the empirical
        #: power-on boundary (below it the projection is zero).
        self.min_active_power_w = float("inf")
        self.fit: PerfPowerFit | None = None
        #: This pair's ``repro_database_fit_curvature`` child, created by
        #: the first refit so that a pair with no fit exports no value.
        self.curvature: Gauge | None = None
        self._buf = np.empty((2, 2 * capacity))
        self._flat = memoryview(self._buf.reshape(-1))
        self._capacity = capacity
        self._next = 0
        self.count = 0

    def extend(self, powers: list[float], perfs: list[float]) -> None:
        """Append samples, oldest first."""
        i = self._next
        cap = self._capacity
        flat = self._flat
        for power_w, perf in zip(powers, perfs):
            flat[i] = flat[i + cap] = power_w
            flat[i + 2 * cap] = flat[i + 3 * cap] = perf
            i = i + 1 if i + 1 < cap else 0
        self._next = i
        self.count = min(cap, self.count + len(powers))

    def load(self, powers: tuple[float, ...], perfs: tuple[float, ...]) -> None:
        """Replace the window with ``powers``/``perfs`` (oldest first)."""
        n = len(powers)
        self._buf[:, :n] = self._buf[:, self._capacity:self._capacity + n] = (powers, perfs)
        self._next = n % self._capacity
        self.count = n

    def window(self) -> np.ndarray:
        """The retained samples as a (2, count) view: powers, then perfs."""
        end = self._next + self._capacity
        return self._buf[:, end - self.count:end]


class ProfilingDatabase:
    """Performance-power projections for every pair ever executed.

    Parameters
    ----------
    fit_kind:
        Polynomial family (paper: quadratic).
    max_samples:
        Cap on retained samples per pair: the window keeps the most
        recent ``max_samples`` samples, oldest first, and a new sample
        evicts the oldest.  The training-run samples are the oldest, so
        they age out first.  A refit costs one vectorised pass over at
        most ``max_samples`` samples.
    """

    def __init__(self, fit_kind: FitKind = FitKind.QUADRATIC, max_samples: int = 256) -> None:
        if max_samples < 4:
            raise ConfigurationError("max_samples must be at least 4")
        self.fit_kind = fit_kind
        self.max_samples = max_samples
        self._entries: dict[PairKey, _Entry] = {}

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def __contains__(self, key: PairKey) -> bool:
        entry = self._entries.get(key)
        return entry is not None and entry.fit is not None

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> tuple[PairKey, ...]:
        return tuple(self._entries)

    def has(self, platform: str, workload: str) -> bool:
        """Algorithm 1 line 3: does a relational equation exist?"""
        return (platform, workload) in self

    def sample_count(self, key: PairKey) -> int:
        entry = self._entries.get(key)
        return 0 if entry is None else entry.count

    # ------------------------------------------------------------------
    # Checkpointing (DESIGN.md §9)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """Fit family, window size and every record (in insertion order) as
        JSON-ready values: per pair the envelope, the retained samples
        (oldest first) and the current fit."""
        entries = []
        for (platform, workload), entry in self._entries.items():
            powers, perfs = entry.window().tolist()
            record: dict[str, Any] = {
                "platform": platform,
                "workload": workload,
                "idle_power_w": entry.idle_power_w,
                "max_power_w": entry.max_power_w,
                "min_active_power_w": (
                    None if math.isinf(entry.min_active_power_w)
                    else entry.min_active_power_w
                ),
                "powers": powers,
                "perfs": perfs,
            }
            fit = entry.fit
            if fit is not None:
                record["fit"] = {
                    "coefficients": list(fit.coefficients),
                    "min_power_w": fit.min_power_w,
                    "max_power_w": fit.max_power_w,
                    "kind": fit.kind.name,
                    "n_samples": fit.n_samples,
                }
            entries.append(record)
        return {
            "fit_kind": self.fit_kind.name,
            "max_samples": self.max_samples,
            "entries": entries,
        }

    def load_state_dict(self, state: dict[str, Any]) -> None:
        """Replace every record with a :meth:`state_dict` capture.

        Samples, envelopes and fits are installed verbatim (no refit), so
        a save → restore round trip is bit-identical, and so is every
        later refit: a fit is a function of the window's contents alone.
        Nothing is installed unless the whole state is valid.

        Raises
        ------
        ConfigurationError
            On a malformed state, or a record whose envelope is inverted
            or not finite, whose sample columns differ in length or exceed
            ``max_samples``, with a sample or a min active power that is
            negative, NaN or infinite, or whose fit has a non-finite
            coefficient or power bound or more than three coefficients.
        """
        v = check(state, _STATE_FIELDS)
        staged = ProfilingDatabase(FitKind[v["fit_kind"]], v["max_samples"])
        for i, record in enumerate(v["entries"]):
            with within(f"entries.{i}"):
                staged._restore(record)
        vars(self).update(vars(staged))

    def _restore(self, record: dict[str, Any]) -> None:
        """Check one :meth:`state_dict` record and install it verbatim."""
        v = check(record, _RECORD_FIELDS)
        key = (v["platform"], v["workload"])
        idle_power_w, max_power_w = v["idle_power_w"], v["max_power_w"]
        if max_power_w <= idle_power_w:
            raise ConfigurationError(
                f"{key}: max power ({max_power_w}) must exceed idle ({idle_power_w})"
            )
        powers, perfs = v["powers"], v["perfs"]
        if len(powers) != len(perfs):
            raise ConfigurationError(f"{key}: powers and perfs must have equal length")
        if len(powers) > self.max_samples:
            raise ConfigurationError(
                f"{key}: {len(powers)} samples exceed max_samples ({self.max_samples})"
            )
        fit = None
        if record.get("fit") is not None:
            # Checked here rather than in PerfPowerFit, so the per-epoch
            # refit pays nothing: a NaN coefficient would zero every
            # allocation, and an infinite bound allocate past the envelope.
            f = check(record["fit"], _FIT_FIELDS, "fit")
            if not 1 <= len(f["coefficients"]) <= 3:
                raise ConfigurationError(
                    f"{key}: a fit has one to three coefficients, got {len(f['coefficients'])}"
                )
            fit = PerfPowerFit(**{**f, "coefficients": tuple(f["coefficients"]),
                                  "kind": FitKind[f["kind"]]})
        # ``None`` stands for no active sample yet.
        min_active = v["min_active_power_w"]
        entry = _Entry(idle_power_w, max_power_w, self.max_samples)
        entry.min_active_power_w = math.inf if min_active is None else min_active
        entry.load(powers, perfs)
        entry.fit = fit
        self._entries[key] = entry

    # ------------------------------------------------------------------
    # Population and updating
    # ------------------------------------------------------------------
    def ensure_entry(self, key: PairKey, idle_power_w: float, max_power_w: float) -> None:
        """Create the pair's record with its measured power envelope."""
        if max_power_w <= idle_power_w:
            raise ConfigurationError(
                f"{key}: max power ({max_power_w}) must exceed idle ({idle_power_w})"
            )
        if key not in self._entries:
            self._entries[key] = _Entry(idle_power_w, max_power_w, self.max_samples)

    def add_sample(self, key: PairKey, power_w: float, perf: float) -> None:
        """Append one observed (power, performance) point (see :meth:`add_samples`)."""
        self.add_samples(key, (power_w,), (perf,))

    def add_samples(
        self, key: PairKey, powers: Sequence[float], perfs: Sequence[float]
    ) -> None:
        """Append observed (power, performance) points, oldest first.

        The entry must have been created with :meth:`ensure_entry` first
        (the Monitor knows the envelope before any sample arrives).  The
        block is validated whole: nothing is appended unless every sample
        is valid.

        Raises
        ------
        ConfigurationError
            When the columns differ in length, or a power or performance
            is negative, NaN or infinite: one such sample would poison
            every refit until it aged out.
        """
        entry = self._entries.get(key)
        if entry is None:
            raise DatabaseMissError(*key)
        if len(powers) != len(perfs):
            raise ConfigurationError(f"{key}: powers and perfs must have equal length")
        for power_w, perf in zip(powers, perfs):
            _check_sample(power_w, perf)
        powers = [float(p) for p in powers]
        perfs = [float(q) for q in perfs]
        entry.extend(powers, perfs)
        # Feedback can reveal a wider active power range than the initial
        # envelope guess; track both boundaries so the projection's
        # power-on cliff and plateau follow reality.
        for power_w, perf in zip(powers, perfs):
            if perf > 0:
                if power_w > entry.max_power_w:
                    entry.max_power_w = power_w
                if power_w < entry.min_active_power_w:
                    entry.min_active_power_w = power_w

    def refit(self, key: PairKey) -> PerfPowerFit:
        """Reconstruct the relational equation from all retained samples
        (Algorithm 1 line 9).

        Falls back to a lower polynomial degree when there are too few
        distinct power levels to identify the requested one.  The solve
        is the centred moment solve of the module docstring.
        """
        entry = self._entries.get(key)
        if entry is None or not entry.count:
            raise DatabaseMissError(*key)
        samples = entry.window()
        n = entry.count
        # Only points inside the active range inform the curve; zero-perf
        # points below idle would drag the parabola down artificially.
        if not np.minimum.reduce(samples[1]) > 0:
            active = samples[1] > 0
            n = int(np.count_nonzero(active))
            samples = samples[:, active]
        if n < 2:
            raise DatabaseMissError(*key)
        x, y = samples[0], samples[1]
        levels = _distinct_levels(x, self.fit_kind.value + 1)
        degree = min(self.fit_kind.value, max(1, levels - 1))
        min_power = (
            entry.min_active_power_w
            if math.isfinite(entry.min_active_power_w)
            else entry.idle_power_w
        )
        fit = PerfPowerFit(
            coefficients=_moment_fit(x, y, degree),
            min_power_w=min_power,
            max_power_w=entry.max_power_w,
            kind=FitKind(degree),
            n_samples=n,
        )
        entry.fit = fit
        if entry.curvature is None:
            entry.curvature = _FIT_CURVATURE.labels(*key)
        entry.curvature.set(fit.l)
        _REFITS_TOTAL.inc()
        return fit

    def ingest_training_run(
        self,
        key: PairKey,
        idle_power_w: float,
        samples: list[tuple[float, float]],
    ) -> PerfPowerFit:
        """Algorithm 1 lines 4-5: absorb a training run and fit the pair.

        Parameters
        ----------
        key:
            (platform, workload).
        idle_power_w:
            The platform's measured idle power (the zero boundary).
        samples:
            (power, perf) points collected every 2 minutes during the
            ~10-minute training run.
        """
        if len(samples) < 2:
            raise ConfigurationError("a training run needs at least 2 samples")
        max_power = max(p for p, _ in samples)
        self.ensure_entry(key, idle_power_w, max_power)
        powers, perfs = zip(*samples)
        self.add_samples(key, powers, perfs)
        return self.refit(key)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def projection(self, key: PairKey) -> PerfPowerFit:
        """The current relational equation for ``key``.

        Raises
        ------
        DatabaseMissError
            When no training run has populated the pair yet (Algorithm 1
            line 3 takes the training branch in that case).
        """
        entry = self._entries.get(key)
        if entry is None or entry.fit is None:
            raise DatabaseMissError(*key)
        return entry.fit

    def efficiency(self, key: PairKey) -> float:
        """Peak throughput-per-watt projection (GreenHetero-p's ordering)."""
        return self.projection(key).efficiency()


def _check_sample(power_w: float, perf: float) -> None:
    """Reject a sample that is negative, NaN or infinite."""
    # NaN fails every comparison, so one chain rejects all three.
    if not (0.0 <= power_w < math.inf and 0.0 <= perf < math.inf):
        raise ConfigurationError(
            f"samples must be finite and non-negative, got ({power_w}, {perf})"
        )


def _distinct_levels(x: np.ndarray, cap: int) -> int:
    """Distinct values of ``np.round(x, 6)``, counted up to ``cap``.

    ``round(v * 1e6) / 1e6`` is the multiply, round-half-even and divide
    ``np.round`` does, so the count is the same.  Noisy windows reach
    ``cap`` within the first few samples, so those are converted first.
    """
    levels: set[float] = set()
    for chunk in (x[:2 * cap], x[2 * cap:]):
        for v in chunk.tolist():
            levels.add(round(v * 1e6) / 1e6)
            if len(levels) == cap:
                return cap
    return len(levels)


def _moment_fit(x: np.ndarray, y: np.ndarray, degree: int) -> tuple[float, ...]:
    """Least-squares polynomial of ``degree`` through (x, y), highest power first.

    Centred-and-scaled normal equations solved by pivoted elimination,
    dropping one degree while the system is singular to working
    precision (see the module docstring).
    """
    n = len(x)
    mu = float(np.add.reduce(x)) / n
    # Rows 1, u, …, u^d (u = (x − μ)/s, s the RMS spread), then y: one
    # product of the stack with its transpose forms every Σu^(i+j) and
    # Σu^i·y, the normal equations beside their right-hand side.
    terms = np.empty((degree + 2, n))
    terms[0] = 1.0
    u = terms[1]
    np.subtract(x, mu, out=u)
    spread = math.sqrt(float(np.dot(u, u)) / n)
    if spread > n * _EPS * abs(mu):
        u *= 1.0 / spread
        solved = degree
    else:  # one power level: only the mean performance is identified
        spread, solved = 1.0, 0
    for k in range(2, degree + 1):
        np.multiply(terms[k - 1], u, out=terms[k])
    terms[degree + 1] = y
    normal = np.dot(terms[:degree + 1], terms.T).tolist()
    while (a := _solve(normal, solved + 1)) is None:
        solved -= 1
    # p(x) = Σ a_k·((x − μ)/s)^k: Horner in (x − μ), expanding each step.
    inv = 1.0 / spread
    coeffs = [a[solved] * inv**solved]
    for k in range(solved - 1, -1, -1):
        coeffs.append(0.0)
        for i in range(len(coeffs) - 1, 0, -1):
            coeffs[i] -= mu * coeffs[i - 1]
        coeffs[-1] += a[k] * inv**k
    return (0.0,) * (degree - solved) + tuple(coeffs)


def _solve(normal: list[list[float]], size: int) -> list[float] | None:
    """Solve the leading ``size``×``size`` block of the normal equations
    by Gaussian elimination with partial pivoting.

    Row ``i`` of ``normal`` is ``Σu^(i+j)`` for each ``j``, then
    ``Σu^i·y``.  ``None`` when a pivot is no larger than ``n·eps`` of
    the largest diagonal entry (``n = Σu⁰``, the sample count): the
    block is singular to working precision.
    """
    m = [row[:size] + row[-1:] for row in normal[:size]]
    tiny = m[0][0] * _EPS * max([m[i][i] for i in range(size)])
    for col in range(size):
        best = col
        for r in range(col + 1, size):
            if abs(m[r][col]) > abs(m[best][col]):
                best = r
        head = m[best]
        if abs(head[col]) <= tiny:
            return None
        m[best] = m[col]
        m[col] = head
        for row in m[col + 1:]:
            factor = row[col] / head[col]
            for c in range(col + 1, size + 1):
                row[c] -= factor * head[c]
    out = [0.0] * size
    for r in range(size - 1, -1, -1):
        row = m[r]
        acc = row[size]
        for c in range(r + 1, size):
            acc -= row[c] * out[c]
        out[r] = acc / row[r]
    return out
