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
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    InvariantError,
    WindowError,
    json_form,
    json_record,
    json_report,
)
from .logdomain import LOG_ZERO, LogValue, linear_or_none, log_ratio, log_sum
from .verdicts import (
    PointwiseCertificate,
    FailureWitness,
    Verdict,
    Window,
    _halvings,
    fails,
    holds,
    inconclusive,
)

# ---------------------------------------------------------------------------
# exponent sequences
# ---------------------------------------------------------------------------


def _keep_hash(record: Any) -> None:
    """Hash a frozen record's fields once, to the value of their dataclass
    hash: every cache and memo key holds records, and a table's tuple is as
    long as the table."""
    object.__setattr__(record, "_hash",
                       hash(tuple(getattr(record, f.name) for f in fields(record))))


def _kept_hash(record: Any) -> int:
    return record._hash


def _rebuilt(record: Any) -> tuple:
    # a string hash differs between processes: rebuild, do not copy it
    return type(record), tuple(getattr(record, f.name) for f in fields(record))


def _float(value: float) -> float:
    """``value`` as a float, -0.0 as 0.0: records that compare equal share
    their cached rows, so they must not differ in the sign of a zero."""
    return float(value) + 0.0


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
            if self.p is None or not self.p > 0:
                raise InvariantError("power form needs exponent p > 0")
        elif self.form == "log":
            pass
        elif self.form == "affine":
            if self.a is None or self.b is None or not (self.a >= 0 and self.b >= 0):
                raise InvariantError("affine form needs slope a >= 0 and offset b >= 0")
        elif self.form == "table":
            vals = self.values
            if not vals:
                raise InvariantError("table form needs at least one value")
            if any(not v >= 0 for v in vals):
                raise InvariantError("exponent values must be nonnegative")
            if any(vals[i] > vals[i + 1] for i in range(len(vals) - 1)):
                raise InvariantError("exponent values must be nondecreasing")
        else:
            raise InvariantError(f"unknown exponent form {self.form!r}")
        _keep_hash(self)

    __hash__ = _kept_hash
    __reduce__ = _rebuilt

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
        return cls(form="affine", a=_float(a), b=_float(b))

    @classmethod
    def table(cls, values: Sequence[float]) -> "ExponentSequence":
        return cls(form="table", values=tuple(map(_float, values)))

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

    to_json = json_record

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "ExponentSequence":
        return json_form(data, {
            "power": (cls.power, {"p": "number"}),
            "log": (cls.logarithmic, {}),
            "affine": (cls.affine, {"a": "number", "b": "number"}),
            "table": (cls.table, {"values": "numbers"}),
        }, "exponent sequence", optional=("b",))


@dataclass(frozen=True, eq=False)
class _Exponents:
    """alpha_1..alpha_{n_max}, and the window facts computed from them.

    ``facts`` memoises reports on the sequence at this truncation
    (subadditivity constants, nuclearity verdicts, symbol memberships in
    the spaces it grades and in their duals, certified conditions whose lhs
    it grades, and the tameness check's range facts and kernel weight sides
    of the spaces it grades), so they are computed once per key
    and are dropped with their ``_exponent_values`` entry.  Shared reports
    must be immutable.
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


def _memo(seq: ExponentSequence | None, n_max: int, key: tuple,
          compute: Callable[[], Any]) -> Any:
    """``compute()``, kept among the facts of ``seq`` truncated at ``n_max``;
    without a sequence (a tabulated space) it is computed on every call.

    A report is a pure function of its key, which may name inputs besides
    the sequence (a condition's spaces): concurrent first calls may both
    compute it, and every caller gets the one stored first."""
    if seq is None:
        return compute()
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
                if any(not v >= 0 for v in row):
                    raise InvariantError(f"weights must be nonnegative (row {i + 1})")
                if max(row) <= 0:
                    raise InvariantError(f"row {i + 1} has no positive weight")
                if any(row[j] > row[j + 1] for j in range(len(row) - 1)):
                    raise InvariantError(
                        f"weights must be nondecreasing in k (row {i + 1})"
                    )
        else:
            raise InvariantError(f"unknown space kind {self.kind!r}")
        _keep_hash(self)

    __hash__ = _kept_hash
    __reduce__ = _rebuilt

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
            weights=tuple(tuple(map(_float, row)) for row in weights),
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

    to_json = json_record

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "SpaceDescriptor":
        return json_form(data, {
            POWER_SERIES_FINITE: (cls.power_series_finite, {"alpha": ExponentSequence}),
            POWER_SERIES_INFINITE: (cls.power_series_infinite,
                                    {"alpha": ExponentSequence}),
            GENERAL_KOETHE: (cls.general, {"weights": "rows"}),
        }, "space", tag="kind")


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

    JSON_KEYS = {"classification": "classification",
                 "partial_sums": lambda series: [
                     {"n": n, "log_sum": s, "sum": linear_or_none(s)}
                     for n, s in series.partial_sums],
                 "limit_log": "limit_log", "limit": "limit",
                 "growth_log": "growth_log", "tail_gap_log": "tail_gap_log"}
    to_json = json_report


#: np.exp rounds every argument below this to +0.0 (the least subnormal is
#: e^-744.44, and half of it e^-745.13), so the series pass writes that zero
#: itself instead of evaluating it
_EXP_UNDERFLOW = -746.0

#: a scaled term below e^-40 ~ 4.2e-18, 26x below 2^-53, rounds away when it
#: is added to a partial sum of at least 1: the column-norm kernel cuts a
#: block's rows there, and :func:`_settled_rows` settles a series' tail there
_ROUNDING_LOG = 40.0


def _prefix_lse(block: np.ndarray, bounds: Sequence[int]) -> list[list[LogValue]]:
    """Log partial sums of every row of a ``(rows, n)`` block at each bound.

    The pass takes one halving segment at a time across all rows: one row
    max, one in-place subtraction of it, one ``np.exp`` and one
    ``sum(axis=1)``.  That sum reduces each row's segment pairwise, in the
    order of a 1-D ``np.sum``, and this order defines the bits;
    ``np.add.reduceat`` is not pairwise and moves them.  Arguments below
    ``_EXP_UNDERFLOW`` are not evaluated but written +0.0, the value exp
    gives them.  The subnormal band above is evaluated: zeroing it would
    not be exact under pairwise summation.  Each row's running sum then
    merges its segment sum as a scalar, with ``math.exp``.  An infinite
    term makes its partial sum and every later one infinite.  Overwrites
    ``block``."""
    rows = len(block)
    run_m, run_s = [LOG_ZERO] * rows, [0.0] * rows
    out: list[list[LogValue]] = [[] for _ in range(rows)]
    prev = 0
    # a row whose segment max is infinite or NaN meets inf - inf here, and
    # its segment sum is never read; a finite max subtracts as it always did
    with np.errstate(invalid="ignore"):
        for b in bounds:
            seg = block[:, prev:b]
            prev = b
            seg_max = seg.max(axis=1)
            seg -= seg_max[:, None]
            low = seg < _EXP_UNDERFLOW
            np.exp(seg, out=seg, where=~low)
            np.copyto(seg, 0.0, where=low)
            seg_sums = seg.sum(axis=1)
            for r, (seg_m, seg_s) in enumerate(zip(seg_max.tolist(),
                                                  seg_sums.tolist())):
                m, s = run_m[r], run_s[r]
                if seg_m == math.inf:
                    # a later finite segment adds seg_s * exp(-inf) = 0
                    m, s = math.inf, 1.0
                elif seg_m > LOG_ZERO:
                    if seg_m > m:
                        s = s * math.exp(m - seg_m) if s else 0.0
                        m = seg_m
                    s += seg_s * math.exp(seg_m - m)
                run_m[r], run_s[r] = m, s
                out[r].append(m + math.log(s) if s > 0.0 else LOG_ZERO)
    return out


def classify_series(terms: np.ndarray, window: Window | None = None) -> SeriesVerdict:
    """Classify a nonnegative series from its log-domain terms.

    Convergence demands the last half-window contribute at most
    ``series_tail_rel`` of the total; divergence demands the log partial sum
    move at least ``series_growth_tol`` over the last doubling.  Neither is
    an asymptotic proof.  A series is the one-row case of the series pass
    (:func:`_classify_rows`), which overwrites its block, so it runs on a
    copy of ``terms``.
    """
    return _classify_rows(np.array(terms, dtype=np.float64, ndmin=2), window)[0]


def _classify_rows(block: np.ndarray, window: Window | None = None
                   ) -> list[SeriesVerdict]:
    """:func:`classify_series` of every row of a ``(rows, n)`` block of log
    terms, row r holding the terms of series r, in one :func:`_prefix_lse`
    pass.  Overwrites ``block``."""
    win = window or Window()
    n_max = block.shape[1]
    if n_max < 2:
        raise ConfigurationError("series classification needs at least 2 terms")
    bounds = _halvings(n_max, 1)
    return [_series_verdict(tuple(zip(bounds, sums)), win)
            for sums in _prefix_lse(block, bounds)]


def _settled_rows(block: np.ndarray) -> np.ndarray:
    """Rows of a ``(rows, n)`` block of log terms that :func:`_classify_rows`
    classifies convergent with equal last two partial sums, read from the
    maxima h of ``[0, n // 2)`` and t of ``[n // 2, n)``: the pass's last
    merge adds at most (n - n // 2) exp(t - h) to a running sum of at least
    1, which rounds away where h is finite and t - h is below the cut."""
    n, half = block.shape[1], block.shape[1] // 2
    head, tail = np.maximum.reduceat(block, (0, half), axis=1).T
    cut = -(_ROUNDING_LOG + math.log(n - half))
    with np.errstate(invalid="ignore", over="ignore"):
        return np.isfinite(head) & (tail - head < cut)


def _series_verdict(checkpoints: tuple[tuple[int, LogValue], ...],
                    win: Window) -> SeriesVerdict:
    s_half, s_full = checkpoints[-2][1], checkpoints[-1][1]

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
    l > k; zero weights contribute zero terms (:func:`logdomain.log_ratio`;
    monotonicity in k forces the numerator to vanish with the denominator).
    """
    if l <= k:
        raise ConfigurationError(f"gp_probe needs l > k, got k={k} l={l}")
    return classify_series(log_ratio(weight_array(space, k, n_max),
                                     weight_array(space, l, n_max)), window)


def nuclearity_verdict(space: SpaceDescriptor, window: Window | None = None) -> Verdict:
    """Window evidence for nuclearity: each grading k needs a convergent
    ratio series against some finer grading l <= k_max + l_slack.

    A power series space's verdict is computed once per kind, exponent
    sequence and window; tabulated spaces are evaluated on every call."""
    win = window or Window()
    _, _, n_max, _ = win.clip(space)
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

    JSON_KEYS = {"m": "m", "holds": "holds", "max_ratio": "max_ratio",
                 "witness": "witness", "n_max": "n_max", "m_max": "m_max",
                 "note": "note"}
    to_json = json_report


def subadditivity_constant(
    seq: ExponentSequence, n_max: int, m_max: int = 64
) -> SubadditivityReport:
    """Minimal M with alpha_s <= M(alpha_{s-t} + alpha_t) over all
    1 <= t < s <= n_max, from one sweep over t (:func:`_subadditivity_scan`);
    computed once per sequence, n_max and m_max."""
    if n_max < 2:
        raise ConfigurationError("subadditivity check needs n_max >= 2")
    return _memo(seq, n_max, ("subadditivity", m_max),
                 lambda: _subadditivity_scan(seq.values_array(n_max), m_max))


def _subadditivity_scan(a: np.ndarray, m_max: int) -> SubadditivityReport:
    """The row-by-row scan over every pair (t, s), as one sweep over t:
    for t <= n/2 the denominators of rows 2t..n are one slice, folded into
    each row's least denominator, about n^2/4 adds and minima in all.

    Exact, bit for bit.  Float addition commutes, so a row's denominators
    are symmetric in t <-> s - t, and its first zero, first NaN ratio and
    first largest ratio lie at t <= s/2.  Rounded division is monotone, so
    for a_s > 0 the row's largest ratio is fl(a_s / dmin), overflow
    included.  The row scan keeps the first row to beat its best with
    ``>``, at that row's first argmax.  A row with a NaN ratio (a NaN
    entry, or +inf a_s over a +inf denominator, tracked in ``dmax`` when a
    holds +inf) never beats it, nor does one whose denominators are all
    zero.  A denominator is 0 only where a_t is, as entries are
    nonnegative; ``infeasible`` is the first row with a_s > 0 and a zero
    denominator, at its first zero."""
    n_max = len(a)
    dmin, dmax, buf = np.full(n_max, np.inf), np.zeros(n_max), np.empty(n_max)
    zero_t, inf_rows = np.zeros(n_max, dtype=np.intp), np.isposinf(a).any()
    for t in range(1, n_max // 2 + 1):
        d = np.add(a[t - 1 : n_max - t], a[t - 1], out=buf[: n_max - 2 * t + 1])
        np.minimum(dmin[2 * t - 1 :], d, out=dmin[2 * t - 1 :])
        if inf_rows:
            np.maximum(dmax[2 * t - 1 :], d, out=dmax[2 * t - 1 :])
        if a[t - 1] == 0.0:
            z = zero_t[2 * t - 1 :]
            z[(d == 0.0) & (z == 0)] = t
    infeasible = np.flatnonzero((a > 0.0) & (zero_t > 0))
    if infeasible.size:
        s = int(infeasible[0]) + 1
        return SubadditivityReport(None, math.inf, (int(zero_t[s - 1]), s), n_max, m_max)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = a / dmin
    ratio[~(a > 0.0) | np.isnan(ratio) | (np.isposinf(a) & np.isposinf(dmax))] = -np.inf
    s = int(np.argmax(ratio)) + 1
    best_ratio = float(ratio[s - 1])
    if not best_ratio > 0.0:
        return SubadditivityReport(1, 0.0, None, n_max, m_max)
    with np.errstate(over="ignore"):
        best_pair = (int(np.argmax(a[s - 1] / (a[s - 2 :: -1][: s - 1] + a[: s - 1]))) + 1, s)
    # a ratio over a subnormal denominator overflows to inf, which has no ceil
    m = max(1, math.ceil(best_ratio - 1e-9)) if math.isfinite(best_ratio) else None
    if m is None or m > m_max:
        return SubadditivityReport(None, best_ratio, best_pair, n_max, m_max)
    return SubadditivityReport(m, best_ratio, best_pair, n_max, m_max)


def window_subadditivity(space: SpaceDescriptor, window: Window) -> SubadditivityReport:
    """:func:`subadditivity_constant` of a power series space's exponent
    sequence over the window, clipped to the space."""
    return subadditivity_constant(space.alpha, window.clip(space)[2], window.subadd_m_max)


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
