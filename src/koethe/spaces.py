"""Graded sequence spaces: exponent sequences, Köthe weights, seminorms.

A Köthe matrix ``a(n, k)`` is nonnegative, nondecreasing in the grading
index k, with a positive entry in every row n.  Power series spaces are the
special case ``a(n, k) = e^{-alpha_n / k}`` (finite type) and
``a(n, k) = e^{k * alpha_n}`` (infinite type) for a nonnegative nondecreasing
exponent sequence alpha.  All weights are handled in log domain; with
``k = 10`` and ``alpha_n = n^2`` the linear value overflows a double long
before the window ends.

Series whose finiteness a claim depends on (seminorms, nuclearity probes)
are classified from partial sums on a finite window: Convergent when the
increment over the last half-window is a negligible fraction of the total,
Divergent when the partial sums keep growing over the last doubling,
Inconclusive otherwise.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    InvariantError,
    WindowError,
    json_field,
    json_object,
)
from .logdomain import LOG_ZERO, LogValue, linear_or_none, log_sum
from .verdicts import (
    Outcome,
    PointwiseCertificate,
    FailureWitness,
    Verdict,
    Window,
    fails,
    holds,
    inconclusive,
)

# ---------------------------------------------------------------------------
# exponent sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentSequence:
    """A nonnegative nondecreasing sequence alpha_n, n = 1, 2, 3, ...

    Closed forms (``power``, ``log``, and ``affine`` with a > 0) tend to
    infinity and may back asymptotic claims; ``table`` is a finite window
    and is flagged as such wherever it is used.
    """

    form: str
    p: float | None = None
    a: float | None = None
    b: float | None = None
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.form == "power":
            if self.p is None or self.p <= 0:
                raise InvariantError("power form needs exponent p > 0")
        elif self.form == "log":
            pass
        elif self.form == "affine":
            if self.a is None or self.b is None or self.a < 0 or self.b < 0:
                raise InvariantError("affine form needs slope a >= 0 and offset b >= 0")
        elif self.form == "table":
            vals = self.values
            if not vals:
                raise InvariantError("table form needs at least one value")
            if any(v < 0 for v in vals):
                raise InvariantError("exponent values must be nonnegative")
            if any(vals[i] > vals[i + 1] for i in range(len(vals) - 1)):
                raise InvariantError("exponent values must be nondecreasing")
        else:
            raise InvariantError(f"unknown exponent form {self.form!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def power(cls, p: float) -> "ExponentSequence":
        """alpha_n = n**p."""
        return cls(form="power", p=float(p))

    @classmethod
    def logarithmic(cls) -> "ExponentSequence":
        """alpha_n = log(n + 1)."""
        return cls(form="log")

    @classmethod
    def affine(cls, a: float, b: float = 0.0) -> "ExponentSequence":
        """alpha_n = a*n + b."""
        return cls(form="affine", a=float(a), b=float(b))

    @classmethod
    def table(cls, values: Sequence[float]) -> "ExponentSequence":
        return cls(form="table", values=tuple(float(v) for v in values))

    # -- evaluation --------------------------------------------------------

    @property
    def tends_to_infinity(self) -> bool:
        if self.form == "table":
            return False
        if self.form == "affine":
            return self.a > 0
        return True

    @property
    def max_index(self) -> int | None:
        """Largest evaluable n, or None when unbounded."""
        return len(self.values) if self.form == "table" else None

    def values_array(self, n_max: int) -> np.ndarray:
        """alpha_1..alpha_{n_max} as a read-only float64 array."""
        return _exponent_values(self, n_max).values

    # -- codec ---------------------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        if self.form == "power":
            return {"form": "power", "p": self.p}
        if self.form == "log":
            return {"form": "log"}
        if self.form == "affine":
            return {"form": "affine", "a": self.a, "b": self.b}
        return {"form": "table", "values": list(self.values)}

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "ExponentSequence":
        what = "exponent sequence"
        form = json_object(data, what).get("form")
        if form == "power":
            return cls.power(json_field(data, "p", "number", what))
        if form == "log":
            return cls.logarithmic()
        if form == "affine":
            b = json_field(data, "b", "number", what) if "b" in data else 0.0
            return cls.affine(json_field(data, "a", "number", what), b)
        if form == "table":
            return cls.table(json_field(data, "values", "numbers", what))
        raise ConfigurationError(f"unknown exponent form {form!r}")


@dataclass(frozen=True, eq=False)
class _Exponents:
    """alpha_1..alpha_{n_max}, and the window facts derived from them alone.

    ``facts`` memoises reports that depend only on the sequence, the
    truncation and the window (subadditivity constants, nuclearity
    verdicts), so they are computed once per sequence and are dropped with
    their ``_exponent_values`` entry.  Shared reports must be immutable.
    """

    values: np.ndarray
    facts: dict[tuple, Any] = field(default_factory=dict)


@lru_cache(maxsize=512)
def _exponent_values(seq: ExponentSequence, n_max: int) -> _Exponents:
    n = np.arange(1, n_max + 1, dtype=np.float64)
    if seq.form == "power":
        vals = n**seq.p
    elif seq.form == "log":
        vals = np.log(n + 1.0)
    elif seq.form == "affine":
        vals = seq.a * n + seq.b
    else:
        if n_max > len(seq.values):
            raise WindowError(
                f"truncation {n_max} outside tabulated window of length {len(seq.values)}"
            )
        vals = np.asarray(seq.values[:n_max], dtype=np.float64)
    vals.flags.writeable = False
    return _Exponents(vals)


def _memo(seq: ExponentSequence, n_max: int, key: tuple, compute: Callable[[], Any]
          ) -> Any:
    """``compute()``, kept among the facts of ``seq`` truncated at ``n_max``.

    A report is a pure function of its key: concurrent first calls may both
    compute it, and every caller gets the one stored first."""
    facts = _exponent_values(seq, n_max).facts
    if key not in facts:
        facts.setdefault(key, compute())
    return facts[key]


# ---------------------------------------------------------------------------
# space descriptors
# ---------------------------------------------------------------------------

POWER_SERIES_FINITE = "power_series_finite"
POWER_SERIES_INFINITE = "power_series_infinite"
GENERAL_KOETHE = "general_koethe"


@dataclass(frozen=True)
class SpaceDescriptor:
    """A graded Köthe space, described by its weight matrix."""

    kind: str
    alpha: ExponentSequence | None = None
    weights: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        if self.kind in (POWER_SERIES_FINITE, POWER_SERIES_INFINITE):
            if self.alpha is None:
                raise InvariantError(f"{self.kind} needs an exponent sequence")
        elif self.kind == GENERAL_KOETHE:
            w = self.weights
            if not w or any(len(row) != len(w[0]) for row in w) or not w[0]:
                raise InvariantError("weight table must be rectangular and nonempty")
            for i, row in enumerate(w):
                if any(v < 0 for v in row):
                    raise InvariantError(f"weights must be nonnegative (row {i + 1})")
                if max(row) <= 0:
                    raise InvariantError(f"row {i + 1} has no positive weight")
                if any(row[j] > row[j + 1] for j in range(len(row) - 1)):
                    raise InvariantError(
                        f"weights must be nondecreasing in k (row {i + 1})"
                    )
        else:
            raise InvariantError(f"unknown space kind {self.kind!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def power_series_finite(cls, alpha: ExponentSequence) -> "SpaceDescriptor":
        """Weights e^{-alpha_n / k}."""
        return cls(kind=POWER_SERIES_FINITE, alpha=alpha)

    @classmethod
    def power_series_infinite(cls, alpha: ExponentSequence) -> "SpaceDescriptor":
        """Weights e^{k * alpha_n}."""
        return cls(kind=POWER_SERIES_INFINITE, alpha=alpha)

    @classmethod
    def general(cls, weights: Sequence[Sequence[float]]) -> "SpaceDescriptor":
        """Tabulated weights; rows are n, columns are the grading k."""
        return cls(
            kind=GENERAL_KOETHE,
            weights=tuple(tuple(float(v) for v in row) for row in weights),
        )

    # -- introspection -----------------------------------------------------

    @property
    def is_power_series(self) -> bool:
        return self.kind != GENERAL_KOETHE

    @property
    def finite_window(self) -> bool:
        """True when weights cannot back asymptotic claims."""
        if self.kind == GENERAL_KOETHE:
            return True
        return not self.alpha.tends_to_infinity

    @property
    def n_limit(self) -> int | None:
        if self.kind == GENERAL_KOETHE:
            return len(self.weights)
        return self.alpha.max_index

    @property
    def k_limit(self) -> int | None:
        if self.kind == GENERAL_KOETHE:
            return len(self.weights[0])
        return None

    # -- codec ---------------------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        if self.kind == GENERAL_KOETHE:
            return {"kind": self.kind, "weights": [list(r) for r in self.weights]}
        return {"kind": self.kind, "alpha": self.alpha.to_json()}

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "SpaceDescriptor":
        what = "space"
        kind = json_object(data, what).get("kind")
        if kind in (POWER_SERIES_FINITE, POWER_SERIES_INFINITE):
            alpha = ExponentSequence.from_json(json_field(data, "alpha", "object", what))
            return cls(kind=kind, alpha=alpha)
        if kind == GENERAL_KOETHE:
            return cls.general(json_field(data, "weights", "rows", what))
        raise ConfigurationError(f"unknown space kind {kind!r}")


def weight(space: SpaceDescriptor, n: int, k: int) -> LogValue:
    """log a(n, k), read from :func:`weight_array`; nondecreasing in k."""
    if n < 1 or k < 1:
        raise WindowError(f"indices must be >= 1, got n={n} k={k}")
    return float(weight_array(space, k, n)[n - 1])


@lru_cache(maxsize=1024)
def weight_array(space: SpaceDescriptor, k: int, n_max: int) -> np.ndarray:
    """log a(n, k) for n = 1..n_max, read-only."""
    if k < 1:
        raise WindowError(f"grading index must be >= 1, got k={k}")
    if space.kind == POWER_SERIES_FINITE:
        arr = -space.alpha.values_array(n_max) / k
    elif space.kind == POWER_SERIES_INFINITE:
        # a weight past float range is log-weight inf, not an error
        with np.errstate(over="ignore"):
            arr = k * space.alpha.values_array(n_max)
    else:
        rows = space.weights
        if n_max > len(rows) or k > len(rows[0]):
            raise WindowError(
                f"(n_max={n_max}, k={k}) outside tabulated window "
                f"{len(rows)}x{len(rows[0])}"
            )
        with np.errstate(divide="ignore"):
            arr = np.log(np.asarray([row[k - 1] for row in rows[:n_max]]))
    arr.flags.writeable = False
    return arr


# ---------------------------------------------------------------------------
# seminorms
# ---------------------------------------------------------------------------


def _coefficient_logs(x: Sequence[float], n_max: int) -> list[LogValue]:
    """log|x_i| for i < n_max, taken by the same numpy call as
    ``SymbolSpec.log_abs_array``: ``math.log`` can differ from it by an ulp,
    and a column's norm must equal the seminorm of its coefficients."""
    if len(x) > n_max and any(v != 0.0 for v in x[n_max:]):
        raise InvariantError(f"coefficients have support beyond truncation {n_max}")
    out = np.full(n_max, LOG_ZERO)
    take = min(len(x), n_max)
    with np.errstate(divide="ignore"):
        out[:take] = np.log(np.abs(np.asarray(x[:take], dtype=np.float64)))
    return out.tolist()


def seminorm_sum(
    space: SpaceDescriptor, x: Sequence[float], k: int, n_max: int
) -> LogValue:
    """log of sum_{n<=n_max} |x_n| a(n, k), fixed-order pairwise log-sum-exp."""
    w = weight_array(space, k, n_max)
    terms = [lx + w[i] if lx != LOG_ZERO else LOG_ZERO
             for i, lx in enumerate(_coefficient_logs(x, n_max))]
    return log_sum(terms)


def seminorm_sup(
    space: SpaceDescriptor, x: Sequence[float], k: int, n_max: int
) -> LogValue:
    """log of max_{n<=n_max} |x_n| a(n, k); the sup form of the seminorm."""
    w = weight_array(space, k, n_max)
    best = LOG_ZERO
    for i, lx in enumerate(_coefficient_logs(x, n_max)):
        if lx == LOG_ZERO:
            continue
        t = lx + w[i]
        if t > best:
            best = t
    return best


# ---------------------------------------------------------------------------
# series classification
# ---------------------------------------------------------------------------


class SeriesClass(str, enum.Enum):
    CONVERGENT = "convergent"
    DIVERGENT = "divergent"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SeriesVerdict:
    """Finite evidence for a nonnegative series being finite or not.

    ``partial_sums`` holds the log partial sums at the checkpoints;
    ``growth_log`` is the log-domain move over the last doubling and
    ``tail_gap_log`` the log of total/increment for the last half-window.
    """

    partial_sums: tuple[tuple[int, LogValue], ...]
    classification: SeriesClass
    limit_log: LogValue | None
    growth_log: float
    tail_gap_log: float

    @property
    def limit(self) -> float | None:
        return None if self.limit_log is None else linear_or_none(self.limit_log)

    def to_json(self) -> dict[str, Any]:
        return {
            "classification": self.classification.value,
            "partial_sums": [
                {"n": n, "log_sum": s, "sum": linear_or_none(s)}
                for n, s in self.partial_sums
            ],
            "limit_log": self.limit_log,
            "limit": self.limit,
            "growth_log": self.growth_log,
            "tail_gap_log": self.tail_gap_log,
        }


def _prefix_lse(terms: np.ndarray, bounds: Sequence[int]) -> list[LogValue]:
    """Log partial sums at each bound; scaled segment sums, fixed order."""
    out: list[LogValue] = []
    run_m, run_s = LOG_ZERO, 0.0
    prev = 0
    for b in bounds:
        seg = terms[prev:b]
        prev = b
        if seg.size:
            seg_m = float(np.max(seg))
            if seg_m > LOG_ZERO:
                seg_s = float(np.sum(np.exp(seg - seg_m)))
                if seg_m > run_m:
                    run_s = run_s * math.exp(run_m - seg_m) if run_s else 0.0
                    run_m = seg_m
                run_s += seg_s * math.exp(seg_m - run_m)
        out.append(run_m + math.log(run_s) if run_s > 0.0 else LOG_ZERO)
    return out


def _series_checkpoints(n_max: int) -> list[int]:
    pts = [n_max]
    while pts[-1] // 2 >= max(1, n_max // 16):
        pts.append(pts[-1] // 2)
    return sorted(set(pts))


def classify_series(terms: np.ndarray, window: Window | None = None) -> SeriesVerdict:
    """Classify a nonnegative series from its log-domain terms.

    Convergence demands the last half-window contribute at most
    ``series_tail_rel`` of the total; divergence demands the log partial sum
    move at least ``series_growth_tol`` over the last doubling.  Neither is
    an asymptotic proof.
    """
    win = window or Window()
    n_max = len(terms)
    if n_max < 2:
        raise ConfigurationError("series classification needs at least 2 terms")
    bounds = _series_checkpoints(n_max)
    sums = _prefix_lse(np.asarray(terms, dtype=np.float64), bounds)
    checkpoints = tuple(zip(bounds, sums))
    s_half, s_full = sums[-2], sums[-1]

    if s_full == math.inf:
        return SeriesVerdict(checkpoints, SeriesClass.DIVERGENT, None, math.inf, 0.0)
    if s_full == LOG_ZERO:
        return SeriesVerdict(checkpoints, SeriesClass.CONVERGENT, LOG_ZERO,
                             0.0, math.inf)

    growth = s_full - s_half if s_half > LOG_ZERO else math.inf
    if s_full == s_half:
        tail_gap = math.inf
    else:
        increment = s_full + math.log1p(-math.exp(s_half - s_full))
        tail_gap = s_full - increment

    if tail_gap >= -math.log(win.series_tail_rel):
        cls = SeriesClass.CONVERGENT
    elif growth >= win.series_growth_tol:
        cls = SeriesClass.DIVERGENT
    else:
        cls = SeriesClass.INCONCLUSIVE
    limit = s_full if cls is SeriesClass.CONVERGENT else None
    return SeriesVerdict(checkpoints, cls, limit, growth, tail_gap)


# ---------------------------------------------------------------------------
# nuclearity
# ---------------------------------------------------------------------------


def gp_probe(
    space: SpaceDescriptor, k: int, l: int, n_max: int, window: Window | None = None
) -> SeriesVerdict:
    """Partial sums of sum_n a(n,k)/a(n,l), the nuclearity ratio series.

    The Grothendieck-Pietsch criterion asks this to be finite for some
    l > k; zero weights contribute zero terms (monotonicity in k forces the
    numerator to vanish with the denominator).
    """
    if l <= k:
        raise ConfigurationError(f"gp_probe needs l > k, got k={k} l={l}")
    num = weight_array(space, k, n_max)
    den = weight_array(space, l, n_max)
    with np.errstate(invalid="ignore"):
        terms = num - den
    terms = np.where(num == LOG_ZERO, LOG_ZERO, terms)
    return classify_series(terms, window)


def nuclearity_verdict(space: SpaceDescriptor, window: Window | None = None) -> Verdict:
    """Window evidence for nuclearity: each grading k needs a convergent
    ratio series against some finer grading l <= k_max + l_slack.

    A power series space's verdict is computed once per kind, exponent
    sequence and window; tabulated spaces are evaluated on every call."""
    win = window or Window()
    n_max = win.n_max
    if space.n_limit is not None:
        n_max = min(n_max, space.n_limit)
    if space.alpha is None:
        return _nuclearity_scan(space, win, n_max)
    return _memo(space.alpha, n_max, ("nuclearity", space.kind, win),
                 lambda: _nuclearity_scan(space, win, n_max))


def _nuclearity_scan(space: SpaceDescriptor, win: Window, n_max: int) -> Verdict:
    l_top = win.k_max + win.l_slack
    if space.k_limit is not None:
        l_top = min(l_top, space.k_limit)
    if n_max < 2:
        return inconclusive("window too short for series evidence", win)

    entries: dict[int, tuple[int, LogValue]] = {}
    for k in range(1, win.k_max + 1):
        if k > l_top - 1:
            return inconclusive(
                f"no grading l > {k} available inside the window", win
            )
        divergent_all = True
        found = None
        for l in range(k + 1, l_top + 1):
            probe = gp_probe(space, k, l, n_max, win)
            if probe.classification is SeriesClass.CONVERGENT:
                found = (l, probe.limit_log)
                break
            if probe.classification is not SeriesClass.DIVERGENT:
                divergent_all = False
        if found is not None:
            entries[k] = found
            continue
        if divergent_all:
            witness = FailureWitness(
                k=k, best_m=l_top, n_range=(n_max // 2, n_max), growth_log=math.nan
            )
            return fails(witness, win, reason=f"every ratio series diverges at k={k}")
        return inconclusive(f"ratio series neither settle nor grow at k={k}", win)
    tags = ("finite-window",) if space.finite_window else ()
    return holds(PointwiseCertificate(entries), win, tags=tags)


# ---------------------------------------------------------------------------
# growth conditions on exponent sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubadditivityReport:
    """Window certificate for alpha_s <= M (alpha_{s-t} + alpha_t).

    ``m`` is the minimal integer constant on the window, None when no
    constant up to ``m_max`` works; the witness is a violating (t, s) pair.
    This is a window certificate, not an asymptotic proof.
    """

    m: int | None
    max_ratio: float
    witness: tuple[int, int] | None
    n_max: int
    m_max: int
    note: str = "window certificate"

    @property
    def holds(self) -> bool:
        return self.m is not None

    def to_json(self) -> dict[str, Any]:
        return {
            "m": self.m,
            "holds": self.holds,
            "max_ratio": self.max_ratio,
            "witness": list(self.witness) if self.witness else None,
            "n_max": self.n_max,
            "m_max": self.m_max,
            "note": self.note,
        }


def subadditivity_constant(
    seq: ExponentSequence, n_max: int, m_max: int = 64
) -> SubadditivityReport:
    """Brute-force minimal M with alpha_s <= M(alpha_{s-t} + alpha_t)
    over all 1 <= t < s <= n_max; computed once per sequence, n_max and
    m_max."""
    if n_max < 2:
        raise ConfigurationError("subadditivity check needs n_max >= 2")
    return _memo(seq, n_max, ("subadditivity", m_max),
                 lambda: _subadditivity_scan(seq.values_array(n_max), m_max))


def _subadditivity_scan(a: np.ndarray, m_max: int) -> SubadditivityReport:
    n_max = len(a)
    best_ratio = 0.0
    best_pair: tuple[int, int] | None = None
    infeasible: tuple[int, int] | None = None
    for s in range(2, n_max + 1):
        top = a[s - 1]
        denom = a[s - 2 :: -1][: s - 1] + a[: s - 1]
        if top > 0.0:
            zero = denom == 0.0
            if zero.any() and infeasible is None:
                t = int(np.flatnonzero(zero)[0]) + 1
                infeasible = (t, s)
            with np.errstate(divide="ignore", over="ignore"):
                ratios = np.where(zero, -np.inf, top / np.where(zero, 1.0, denom))
            i = int(np.argmax(ratios))
            if ratios[i] > best_ratio:
                best_ratio = float(ratios[i])
                best_pair = (i + 1, s)
    if infeasible is not None:
        return SubadditivityReport(None, math.inf, infeasible, n_max, m_max)
    if best_ratio == 0.0:
        return SubadditivityReport(1, 0.0, None, n_max, m_max)
    # a ratio over a subnormal denominator overflows to inf, which has no ceil
    m = max(1, math.ceil(best_ratio - 1e-9)) if math.isfinite(best_ratio) else None
    if m is None or m > m_max:
        return SubadditivityReport(None, best_ratio, best_pair, n_max, m_max)
    return SubadditivityReport(m, best_ratio, best_pair, n_max, m_max)


def window_cap(seq: ExponentSequence, window: Window) -> int:
    """Truncation for checks on an exponent sequence: the window, clipped
    to a tabulated sequence."""
    return min(window.n_max, seq.max_index or window.n_max)


def window_subadditivity(seq: ExponentSequence, window: Window) -> SubadditivityReport:
    """:func:`subadditivity_constant` over the window."""
    return subadditivity_constant(seq, window_cap(seq, window), window.subadd_m_max)


def stability_constant(seq: ExponentSequence, n_max: int) -> float:
    """max over n <= n_max/2 of alpha_{2n}/alpha_n; indices with
    alpha_n = 0 are skipped."""
    if n_max < 2:
        raise ConfigurationError("stability check needs n_max >= 2")
    a = seq.values_array(n_max)
    half = n_max // 2
    den = a[:half]
    num = a[1 : 2 * half : 2]
    mask = den > 0.0
    if not mask.any():
        return 0.0
    # a subnormal alpha_n overflows its ratio to inf, which is the answer
    with np.errstate(over="ignore"):
        return float(np.max(num[mask] / den[mask]))
