"""Toeplitz symbols and operators between graded sequence spaces.

A symbol is a two-sided sequence theta stored as two one-sided parts: the
lower part (theta'_0, theta_1, theta_2, ...) feeds the subdiagonals, the
upper part (theta''_0, theta_{-1}, theta_{-2}, ...) the superdiagonals, with
the matrix diagonal carrying theta'_0 + theta''_0.  Basis vectors e_n are
indexed from n = 1; symbol entries from j = 0.

Each symbol part is evaluated over a prefix j = 0..count-1, linearly by
`SymbolSpec.values_array` and as log|theta_j| by `SymbolSpec.log_abs_array`.
Column norms, memberships, and dual bounds work purely in log domain so that
entries on the scale of e^{k*alpha_n} never overflow.  Operator application
(`apply_dense`, `apply_fast`) is linear-domain and meant for well-scaled
inputs; non-finite output entries are flagged with a RuntimeWarning.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Any, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    InvariantError,
    UnsupportedCombinationError,
    WindowError,
    json_field,
    json_form,
    json_record,
)
from .logdomain import (
    LOG_ZERO,
    LogValue,
    log_add,
    log_from_linear,
    log_max,
    log_ratio,
    log_sub,
    log_sum,
)
from .spaces import (
    ExponentSequence,
    SeriesClass,
    SpaceDescriptor,
    _ROUNDING_LOG,
    _classify_rows,
    _keep_hash,
    _kept_hash,
    _memo,
    _rebuilt,
    _settled_rows,
    weight_array,
)
from .verdicts import (
    BoundCertificate,
    FailureWitness,
    Outcome,
    Verdict,
    Window,
    fails,
    holds,
    inconclusive,
    scan_forall,
)

_BLOCK = 256

#: a block of at most this many terms is evaluated whole: the binary search
#: for its cut costs more than the rows it would save (see `_walk`)
_SEARCH_TERMS = 4096


class NormKind(str, enum.Enum):
    SUM = "sum"
    SUP = "sup"


# ---------------------------------------------------------------------------
# symbol specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymbolSpec:
    """One-sided symbol sequence, evaluable at every j >= 0.

    Forms: ``explicit`` (a finite list, extended by zeros), ``geometric``
    (theta_j = r**j), ``exp_of_exponent`` (theta_j = e^{c * alpha_{j+1}}),
    and ``polynomial`` (theta_j = (j+1)**d).  ``head`` overrides the j = 0
    entry; it is how a two-sided symbol's diagonal gets split.  The array
    forms :meth:`values_array` and :meth:`log_abs_array` are the evaluators.
    """

    form: str
    values: tuple[float, ...] | None = None
    r: float | None = None
    c: float | None = None
    alpha: ExponentSequence | None = None
    d: int | None = None
    head: float | None = None

    def __post_init__(self):
        if not all(x == x for x in (self.r, self.c, self.head, *(self.values or ()))):
            raise InvariantError("symbol numbers must not be NaN")
        if self.form == "explicit":
            if self.values is None:
                raise InvariantError("explicit form needs a value list")
        elif self.form == "geometric":
            if self.r is None:
                raise InvariantError("geometric form needs a ratio r")
        elif self.form == "exp_of_exponent":
            if self.c is None or self.alpha is None:
                raise InvariantError("exp_of_exponent form needs c and alpha")
        elif self.form == "polynomial":
            if self.d is None:
                raise InvariantError("polynomial form needs a degree d")
            # the decoder's check and message, so the record round-trips
            json_field({"d": self.d}, "d", "float_integer", "symbol part")
        else:
            raise InvariantError(f"unknown symbol form {self.form!r}")
        _keep_hash(self)

    __hash__ = _kept_hash
    __reduce__ = _rebuilt

    @classmethod
    def explicit(cls, values: Sequence[float]) -> "SymbolSpec":
        return cls(form="explicit", values=tuple(float(v) for v in values))

    @classmethod
    def geometric(cls, r: float) -> "SymbolSpec":
        return cls(form="geometric", r=float(r))

    @classmethod
    def exp_of_exponent(cls, c: float, alpha: ExponentSequence) -> "SymbolSpec":
        return cls(form="exp_of_exponent", c=float(c), alpha=alpha)

    @classmethod
    def polynomial(cls, d: int) -> "SymbolSpec":
        return cls(form="polynomial", d=int(d))

    @classmethod
    def delta(cls) -> "SymbolSpec":
        """theta_0 = 1, all other entries 0."""
        return cls.explicit([1.0])

    def with_head(self, head: float) -> "SymbolSpec":
        return dataclasses.replace(self, head=float(head))

    # -- evaluation --------------------------------------------------------

    def values_array(self, count: int) -> np.ndarray:
        """theta_0..theta_{count-1} in linear domain (may overflow to inf)."""
        j = np.arange(count, dtype=np.float64)
        with np.errstate(over="ignore"):
            if self.form == "explicit":
                out = np.zeros(count)
                take = min(count, len(self.values))
                out[:take] = self.values[:take]
            elif self.form == "geometric":
                out = self.r**j
            elif self.form == "exp_of_exponent":
                out = np.exp(self.c * self.alpha.values_array(count))
            else:
                out = (j + 1.0) ** self.d
        if self.head is not None and count:
            out[0] = self.head
        return out

    def log_abs_array(self, count: int) -> np.ndarray:
        """log|theta_j| for j = 0..count-1."""
        j = np.arange(count, dtype=np.float64)
        if self.form == "explicit":
            out = np.full(count, LOG_ZERO)
            take = min(count, len(self.values))
            with np.errstate(divide="ignore"):
                out[:take] = np.log(np.abs(np.asarray(self.values[:take])))
        elif self.form == "geometric":
            if self.r == 0.0:
                out = np.full(count, LOG_ZERO)
                if count:
                    out[0] = 0.0
            else:
                out = j * math.log(abs(self.r))
        elif self.form == "exp_of_exponent":
            # a log past float range is log-inf, not an error
            with np.errstate(over="ignore"):
                out = self.c * self.alpha.values_array(count)
        else:
            out = self.d * np.log(j + 1.0)
        if self.head is not None and count:
            out[0] = log_from_linear(self.head)
        return out

    # -- codec ---------------------------------------------------------------

    to_json = json_record

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "SymbolSpec":
        what = "symbol part"
        spec = json_form(data, {
            "explicit": (cls.explicit, {"values": "numbers"}),
            "geometric": (cls.geometric, {"r": "number"}),
            "exp_of_exponent": (cls.exp_of_exponent, {"c": "number",
                                                      "alpha": ExponentSequence}),
            "polynomial": (cls.polynomial, {"d": "float_integer"}),
        }, what, shared=("head",))
        if "head" in data:
            spec = spec.with_head(json_field(data, "head", "number", what))
        return spec


@dataclass(frozen=True)
class Symbol:
    """Two-sided symbol as its triangular parts.

    When both parts are present their 0-entries are the two halves of the
    diagonal value and must both be nonzero.
    """

    lower: SymbolSpec | None = None
    upper: SymbolSpec | None = None

    def __post_init__(self):
        if self.lower is None and self.upper is None:
            raise InvariantError("symbol needs at least one triangular part")
        if self.lower is not None and self.upper is not None:
            # in log domain, so a head beyond float range is not an error
            if LOG_ZERO in (self.lower.log_abs_array(1)[0],
                            self.upper.log_abs_array(1)[0]):
                raise InvariantError(
                    "diagonal split components must both be nonzero"
                )

    @property
    def diagonal(self) -> float:
        return sum(float(part.values_array(1)[0])
                   for part in (self.lower, self.upper) if part is not None)

    to_json = json_record

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "Symbol":
        parts = {"lower": SymbolSpec, "upper": SymbolSpec}
        return json_form(data, {None: (cls, parts)}, "symbol", tag=None,
                         optional=tuple(parts))


def decompose(
    sub: SymbolSpec, sup: SymbolSpec, split: tuple[float, float]
) -> Symbol:
    """Split two-sided symbol data into triangular parts.

    ``sub`` holds (theta_0, theta_1, theta_2, ...) and ``sup`` holds
    (theta_0, theta_{-1}, theta_{-2}, ...); their shared 0-entry is the
    diagonal value, which ``split`` redistributes as the parts' new heads.
    Both split components must be nonzero and sum to the diagonal value.
    """
    theta0, other = (float(side.values_array(1)[0]) for side in (sub, sup))
    if not math.isclose(theta0, other, rel_tol=1e-12, abs_tol=1e-300):
        raise InvariantError(
            f"sides disagree on the diagonal value: {theta0!r} vs {other!r}"
        )
    lo, hi = float(split[0]), float(split[1])
    if lo == 0.0 or hi == 0.0:
        raise InvariantError("split components must both be nonzero")
    if not math.isclose(lo + hi, theta0, rel_tol=1e-12, abs_tol=1e-12):
        raise InvariantError(
            f"split {lo!r} + {hi!r} does not reproduce the diagonal {theta0!r}"
        )
    return Symbol(lower=sub.with_head(lo), upper=sup.with_head(hi))


def _diagonal_log_abs(symbol: Symbol) -> LogValue:
    """log|theta'_0 + theta''_0| of a two-part symbol: the log of the linear
    sum while it is finite, else the heads' logs combined, each head signed
    by its linear value (an overflowed head is +/-inf and keeps its sign)."""
    total = symbol.diagonal
    if math.isfinite(total):
        return log_from_linear(total)
    lo, hi = symbol.lower, symbol.upper
    a, b = float(lo.log_abs_array(1)[0]), float(hi.log_abs_array(1)[0])
    if (lo.values_array(1)[0] > 0) == (hi.values_array(1)[0] > 0):
        return log_add(a, b)
    return log_sub(max(a, b), min(a, b))


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


class Variant(str, enum.Enum):
    LOWER = "lower"
    UPPER = "upper"
    FULL = "full"


@dataclass(frozen=True)
class ToeplitzOperator:
    """A Toeplitz matrix acting between two graded spaces.

    The lower variant reads only the symbol's lower part, the upper variant
    only the upper part, the full variant both.
    """

    symbol: Symbol
    variant: Variant
    domain: SpaceDescriptor
    codomain: SpaceDescriptor

    def __post_init__(self):
        if self.variant in (Variant.LOWER, Variant.FULL) and self.symbol.lower is None:
            raise InvariantError(f"{self.variant.value} variant needs a lower part")
        if self.variant in (Variant.UPPER, Variant.FULL) and self.symbol.upper is None:
            raise InvariantError(f"{self.variant.value} variant needs an upper part")

    to_json = json_record

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "ToeplitzOperator":
        return json_form(data, {None: (cls, {
            "variant": Variant, "symbol": Symbol, "domain": SpaceDescriptor,
            "codomain": SpaceDescriptor})}, "operator", tag=None)


def lower_part(op: ToeplitzOperator) -> ToeplitzOperator:
    return ToeplitzOperator(Symbol(lower=op.symbol.lower), Variant.LOWER,
                            op.domain, op.codomain)


def upper_part(op: ToeplitzOperator) -> ToeplitzOperator:
    return ToeplitzOperator(Symbol(upper=op.symbol.upper), Variant.UPPER,
                            op.domain, op.codomain)


# ---------------------------------------------------------------------------
# columns
# ---------------------------------------------------------------------------


def column(op: ToeplitzOperator, n: int, n_max: int) -> list[tuple[int, float]]:
    """Sparse image of the basis vector e_n, truncated to rows 1..n_max.

    Lower variant: entries (j, theta_{j-n}) for j >= n.  Upper variant:
    (j, theta_{n-j}) for j <= n.  Full: entrywise sum, i.e. the diagonal
    carries the recombined split.
    """
    col = _column_entries(op, n, n_max, log=False)
    return [(j, v) for j, v in enumerate(col, start=1) if v != 0.0]


def _column_entries(op: ToeplitzOperator, n: int, n_max: int, log: bool
                    ) -> list[float]:
    """Rows 1..n_max of column n: linear entries, or log|entries| when
    ``log`` is set (absent entries are 0.0, resp. log-zero)."""
    if not 1 <= n <= n_max:
        raise WindowError(f"need 1 <= n <= n_max, got n={n} n_max={n_max}")
    read = SymbolSpec.log_abs_array if log else SymbolSpec.values_array
    out = np.full(n_max, LOG_ZERO if log else 0.0)
    if op.variant is not Variant.UPPER:
        out[n - 1 :] = read(op.symbol.lower, n_max - n + 1)
    if op.variant is not Variant.LOWER:
        out[:n] = read(op.symbol.upper, n)[::-1]
    if op.variant is Variant.FULL:
        out[n - 1] = _diagonal_log_abs(op.symbol) if log else op.symbol.diagonal
    return out.tolist()


def column_norm(
    op: ToeplitzOperator,
    n: int,
    k: int,
    n_max: int,
    norm_kind: NormKind = NormKind.SUM,
) -> LogValue:
    """log of the codomain seminorm of the truncated column of e_n.

    Terms are laid out over the full row range 1..n_max (absent entries as
    log-zero) and reduced in the same fixed pairwise order as the space
    seminorms, so this agrees exactly with the seminorm of the scattered
    column.
    """
    logs = _column_entries(op, n, n_max, log=True)
    w = weight_array(op.codomain, k, n_max)
    terms = [la + w[j] if la != LOG_ZERO else LOG_ZERO for j, la in enumerate(logs)]
    if norm_kind is NormKind.SUP:
        return log_max(terms)
    return log_sum(terms)


# ---------------------------------------------------------------------------
# batched column norms (the oracle's workhorse)
# ---------------------------------------------------------------------------


def _runs(op: ToeplitzOperator, count: int, log: bool
          ) -> list[tuple[np.ndarray, int]]:
    """(entries per offset, direction) for each triangular part in play:
    linear entries, or log|entries| when ``log`` is set.

    Direction +1 walks down from the diagonal (rows n+i), -1 walks up
    (rows n-i).  A full operator's split diagonal is put back together
    here, for the column-norm kernel, the FFT apply and the dense matrix:
    the lower run carries theta'_0 + theta''_0 at offset 0 and the upper
    run 0.0 (log-zero), so they read every entry from one run.  The scalar
    reference :func:`column` recombines it on its own
    (:func:`_column_entries`).
    """
    read = SymbolSpec.log_abs_array if log else SymbolSpec.values_array
    runs = [(read(spec, count), direction)
            for spec, direction, skip in ((op.symbol.lower, +1, Variant.UPPER),
                                          (op.symbol.upper, -1, Variant.LOWER))
            if op.variant is not skip]
    if op.variant is Variant.FULL and count:
        runs[0][0][0] = _diagonal_log_abs(op.symbol) if log else op.symbol.diagonal
        runs[1][0][0] = LOG_ZERO if log else 0.0
    return runs


def _suffix_max(arr: np.ndarray) -> np.ndarray:
    """The max of ``arr`` from each entry on.  A nonincreasing array longer
    than a block is its own, and checking that costs less than the running
    max; it is returned as it stands."""
    if len(arr) > _BLOCK and (arr[1:] <= arr[:-1]).all():
        return arr
    return np.maximum.accumulate(arr[::-1])[::-1]


def _merge_scaled(m1, s1, m2, s2):
    m = np.maximum(m1, m2)
    safe = np.where(m == -np.inf, 0.0, m)
    with np.errstate(invalid="ignore"):
        out = s1 * np.exp(m1 - safe)
        out += s2 * np.exp(m2 - safe)
    return m, out


class _SymbolRun(NamedTuple):
    """The symbol side of a stack of runs in one direction, the runs of one
    triangular part of its members (see :func:`_symbol_run`, :func:`_stack`):
    their log entries u, a row per member, the largest of their suffix
    maxima, and their widest support."""

    u: np.ndarray
    direction: int
    u_sufmax: np.ndarray
    i_top: int


class _WeightRun(NamedTuple):
    """The weight side of a walk in one direction (see :func:`_weight_run`)."""

    pad: np.ndarray
    v_reach: np.ndarray


def _symbol_run(u: np.ndarray, direction: int, n_trunc: int) -> _SymbolRun:
    """A run's log entries u, as a stack of one, with their suffix max and
    their support i_top, the offsets that can contribute to a column up to
    n_trunc."""
    u_sufmax = _suffix_max(u)
    # offsets past the symbol's support contribute nothing; the log-zero
    # entries of the suffix maxima are exactly the support's tail
    i_top = min(len(u) - int(np.count_nonzero(u_sufmax == -np.inf)), n_trunc)
    return _SymbolRun(u[None], direction, u_sufmax, i_top)


def _stack(sides: Sequence[list[_SymbolRun]]) -> list[_SymbolRun]:
    """The symbol sides of several members (:func:`_symbol_side`, each with
    the same parts at the same truncation) as one, a stack per part."""
    return [_SymbolRun(np.concatenate([run.u for run in part]), part[0].direction,
                       reduce(np.maximum, [run.u_sufmax for run in part]),
                       max([run.i_top for run in part]))
            for part in zip(*sides)]


def _weight_run(v: np.ndarray, direction: int, n_trunc: int) -> _WeightRun:
    """The codomain weights v as a run in ``direction`` walks them, for
    symbols of any support.

    The walk goes down only (see :func:`_walk`), so an upward run reads the
    weights reversed.  Row r of the walk sits at pad[r - 1], padded with
    log-zero for the n_trunc rows past n_trunc that offsets can reach;
    v_reach is the suffix max of those n_trunc weights, followed by
    log-zero likewise."""
    pad = np.full(2 * n_trunc, -np.inf)
    pad[:n_trunc] = v[:n_trunc][::direction]
    v_reach = np.full(2 * n_trunc, -np.inf)
    v_reach[:n_trunc] = _suffix_max(pad[:n_trunc])
    return _WeightRun(pad, v_reach)


def _walk(
    run: _SymbolRun,
    weights: _WeightRun,
    n_trunc: int,
    norm_kind: NormKind,
    cols: tuple[int, int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Stream a stack of triangular parts' terms u_i + v_{n +/- i} over
    offset blocks on its set-up: the members' symbol runs in one direction
    (:func:`_symbol_run`, :func:`_stack`) on one weight side
    (:func:`_weight_run`).  Returns per member and column (scale, scaled
    sum), each of shape (members, columns), over the 0-based column range
    ``cols`` = [c0, c1), by default all of [0, n_trunc); for the sup kind
    the scale is the norm and the sum stays zero.  A single operator walks
    a stack of one.

    The walk goes down only, to rows n + i.  An upward run (direction -1,
    rows n - i) is the downward run over the weights reversed: its column
    n_trunc + 1 - n reads the terms of column n in the same offset order,
    so reversing the result back gives every column bit for bit.  Its range
    [c0, c1) becomes [n_trunc - c1, n_trunc - c0) before the walk.

    A block reads the padded weights through one strided (offset, column)
    view, rows[i, c] = pad[start + i + c], so no index array and no window
    of the whole pad is built.  Its terms are written (offset, member x
    column) into one preallocated C-contiguous buffer at least two columns
    wide, a lone active column beside a log-zero companion whose results
    are dropped, so numpy reduces every block over its offsets row by row,
    and a column's max and sum read only its own terms in the fixed
    offset-block schedule.  The layout is part of the result: a broadcast
    add without ``out`` lays a stack's terms out offset-fastest, and numpy
    then sums them pairwise, which moves the last bit.  The pad is read as
    far as the stack's support reaches, n_trunc + i_top.

    Every remaining term of a column is bounded by u_sufmax + v_reach, the
    running maxima of the symbol from the block's first offset on (the
    largest of the members') and of the weights from the block's first row
    on; both are nonincreasing in the offset.  A block is skipped for
    columns whose bound sits _ROUNDING_LOG below the smallest of the
    members' running scales (with a log(n) allowance for the many terms) in
    a sum, or at or below it in a sup, so rapidly decaying symbols cost a
    short band.  The skip is exact: each of the at most n terms a column
    skips is below e^-40 / n of its scaled running sum, at least 1, so
    together they add less than 2^-53, half an ulp, and round away.

    Each block is then cut before its first row whose bound lies, in every
    active column, _ROUNDING_LOG or more below the larger of the block's
    first two row terms in a sum, or not above it in a sup; a binary search
    finds that row.  The first two terms are those of the members' smallest
    first two symbol logs.  Two rows, because a full operator's upper run
    holds log-zero at offset 0.  A column whose first terms are so large that
    subtracting _ROUNDING_LOG rounds to a floor less than _ROUNDING_LOG - 1
    below them (a float past 2^56 has an ulp of 16 or more) cuts no row: a
    term at that floor need not be negligible.  The cut is exact, not merely
    close.  The block
    max is at least either of the first two terms, so a dropped term never
    exceeds it, and a max does not move, ties included.  The rows of a
    block are summed in order, so a dropped term meets a partial sum that
    already holds the max row's 1.  Half an ulp of a float of at least 1 is
    at least 2^-53, so a scaled term below e^-40 rounds away, and so does
    each further one against the unchanged sum.  The inactive columns in
    the block contribute less than 2^-53 against their running sum, or
    nothing to their running max, cut or not.

    A block of at most _SEARCH_TERMS terms is not searched and keeps all its
    rows: the cut is exact, so the rows it would drop move no bit, and on so
    few terms the search costs more than it saves.  The one exception is a
    term that is NaN, where a +inf part meets a log-zero one: the cut decides
    whether it enters, so a run with a +inf part searches every block, and
    walks in a stack of its own, whose bounds are its own.

    The first block merges into a running (-inf, 0), which returns its
    (max, scaled sum) bit for bit, so it is stored as it stands.

    A column range keeps the block boundaries, the skip, the cut and the
    log(n_trunc) allowance, so where no part is +inf its columns get the
    full range's bits: a column's skip reads only its own running scale,
    the rows a narrower cut drops are negligible, and the columns a block
    spans but that are not active change nothing.  For the same reasons a
    member of a stack gets the bits of its own walk.  The stack's bounds
    are at least as loose as the member's own: its suffix maxima are no
    smaller, and its scales and first two terms no larger.  So the stack
    skips or cuts nothing that the member's own walk keeps, and the
    blocks, rows and columns that it keeps besides are, for the member,
    inactive columns, rows past its own cut, or rows past its support,
    whose log-zero terms are exact zeros in a sum and nothing in a sup.
    """
    c0, c1 = cols or (0, n_trunc)
    if run.direction < 0:
        # reversed once the walk has freed its block buffer, so the kept
        # profile does not pin the heap above it
        m, s = _walk(_SymbolRun(run.u, 1, run.u_sufmax, run.i_top), weights,
                     n_trunc, norm_kind, (n_trunc - c1, n_trunc - c0))
        return np.ascontiguousarray(m[:, ::-1]), np.ascontiguousarray(s[:, ::-1])
    u, u_sufmax, i_top = run.u, run.u_sufmax, run.i_top
    pad = weights.pad[: n_trunc + i_top]
    v_reach = weights.v_reach[: n_trunc + i_top]
    if norm_kind is NormKind.SUM:
        allowance, cut = math.log(n_trunc), _ROUNDING_LOG
    else:
        allowance = cut = 0.0
    # with a +inf part a term can be NaN, and then the cut is part of the result
    finite = i_top and u_sufmax[0] < np.inf and v_reach[0] < np.inf
    small = _SEARCH_TERMS if finite else 0

    members, span = len(u), c1 - c0
    m_run, s_run = np.full((members, span), -np.inf), np.zeros((members, span))
    buf = np.empty(_BLOCK * max(members * span, 2))
    step = pad.strides[0]
    # inf - inf, where a +inf part meets log-zero or itself, is NaN by design
    with np.errstate(invalid="ignore"):
        for i0 in range(0, i_top, _BLOCK):
            peak = u_sufmax[i0] + v_reach[i0 + c0 : i0 + c1]
            active = peak + allowance > np.minimum.reduce(m_run) - cut
            lo = int(active.argmax())
            if not active[lo]:
                break
            hi = span - 1 - int(active[::-1].argmax())
            width = hi - lo + 1
            band = slice(lo, hi + 1)
            nb = min(_BLOCK, i_top - i0)
            start = i0 + c0 + lo
            if nb > 2 and nb * members * width > small:
                first = np.minimum.reduce(u[:, i0 : i0 + 2])
                head = np.maximum(first[0] + pad[start : start + width],
                                  first[1] + pad[start + 1 : start + 1 + width])
                floor = head - cut
                # past 2^56 the subtraction rounds: a floor that ends up less
                # than cut - 1 below its head bounds no negligible term
                floor[head - floor < cut - 1] = -np.inf
                floor[~active[band]] = np.inf
                # the cut lies in keep..nb: rows from nb on are known negligible
                keep = 2
                while keep < nb:
                    mid = (keep + nb) // 2
                    s = start + mid
                    if (u_sufmax[i0 + mid] + v_reach[s : s + width] <= floor).all():
                        nb = mid
                    else:
                        keep = mid + 1
            if start + width + nb - 1 > len(pad):
                raise InvariantError(
                    f"weights {start}..{start + width + nb - 2} outside the padding")
            # rows[i, 0, c] = pad[start + i + c]: the weight that offset i0 + i
            # reaches from column lo + c, as a view over the padded weights
            rows = np.ndarray((nb, 1, width), buffer=pad, offset=start * step,
                              strides=(step, step, step))
            # a lone column's log-zero companion, whose results are dropped
            size = members * width
            terms = buf[: nb * max(size, 2)].reshape(nb, -1)
            if size == 1:
                terms[:, 1] = -np.inf
            np.add(u[:, i0 : i0 + nb].T[:, :, None], rows,
                   out=terms[:, :size].reshape(nb, members, width))
            bm = terms.max(axis=0)
            if norm_kind is NormKind.SUP:
                m_run[:, band] = np.maximum(m_run[:, band],
                                            bm[:size].reshape(members, width))
                continue
            # exp(-inf - safe) is already 0 and safe is never -inf
            terms -= np.where(bm == -np.inf, 0.0, bm)
            np.exp(terms, out=terms)
            bm = bm[:size].reshape(members, width)
            bs = terms.sum(axis=0)[:size].reshape(members, width)
            if i0 == 0:
                m_run[:, band], s_run[:, band] = bm, bs
            else:
                m_run[:, band], s_run[:, band] = _merge_scaled(
                    m_run[:, band], s_run[:, band], bm, bs)
    return m_run, s_run


def _profiles(runs: list[_SymbolRun], weights: list[_WeightRun], n_trunc: int,
              norm_kind: NormKind, cols: tuple[int, int] | None = None
              ) -> np.ndarray:
    """The read-only log column norms of a stack of operators, a row per
    member: each triangular part's stack (:func:`_symbol_side`,
    :func:`_stack`) walked on that part's weight side (:func:`_weight_run`),
    the parts merged.  With ``cols`` = (c0, c1), only the columns
    n = c0 + 1..c1, with the bits the full profile has there.  Every walk
    of the kernel is made here."""
    walks = [_walk(run, side, n_trunc, norm_kind, cols)
             for run, side in zip(runs, weights)]
    if norm_kind is NormKind.SUP:
        out = reduce(np.maximum, [m for m, _ in walks])
        out.flags.writeable = False
        return out
    m, s = reduce(lambda a, b: _merge_scaled(*a, *b), walks)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(s > 0.0, m + np.log(np.where(s > 0.0, s, 1.0)), -np.inf)
    out.flags.writeable = False
    return out


def _symbol_side(op: ToeplitzOperator, n_trunc: int) -> list[_SymbolRun]:
    """The symbol side of ``op``'s kernel set-up at n_trunc, one run per
    triangular part (:func:`_runs`, :func:`_symbol_run`)."""
    return [_symbol_run(u, direction, n_trunc)
            for u, direction in _runs(op, n_trunc, log=True)]


def _weight_side(codomain: SpaceDescriptor, k: int, n_trunc: int, direction: int
                 ) -> _WeightRun:
    """The weight side shared by a family: grading k of ``codomain`` as a
    run in ``direction`` walks it (:func:`_weight_run`).  Kept among the
    facts of the codomain's sequence (:func:`spaces._memo`), so every
    operator into the codomain shares it; an upward one is built only when
    an upper part asks for it."""
    def build() -> _WeightRun:
        weights = _weight_run(weight_array(codomain, k, n_trunc), direction, n_trunc)
        # shared by every member of a family
        weights.pad.flags.writeable = weights.v_reach.flags.writeable = False
        return weights
    return _memo(codomain.alpha, n_trunc,
                 ("kernel weights", codomain.kind, k, direction), build)


@lru_cache(maxsize=1024)
def column_norm_profile(
    op: ToeplitzOperator,
    k: int,
    n_trunc: int,
    norm_kind: NormKind = NormKind.SUM,
) -> np.ndarray:
    """log column norms for n = 1..n_trunc, columns truncated at row n_trunc.

    Agrees with :func:`column_norm` up to reduction-order rounding; reports
    that need bit-stable numbers use a fixed block schedule, which this is.
    The kernel reads the symbol, the variant and the codomain, never the
    domain.  Each call builds its own symbol side and, for a walk, its
    weight sides, walks them (:func:`_profiles`) and keeps none of them.

    A symbol supported at offset 0 alone (delta, any diagonal theta_0)
    with no +inf symbol log or weight is not walked: its column n is the
    one term t = u_0 + v_n (log-zero without support), and the walk stores
    a one-row block as it stands, (t, exp(t - t) = 1.0), so its profile is
    u_0 + v, plus log(1.0) = 0.0 in the sum norm, bit for bit.

    Results are memoized: an oracle scan holds the profiles it fetched
    itself, and the memo serves repeat scans (the other property of a
    cross-validation, another window's checkpoints) and every operator
    that differs only in its domain.  Library callers go through
    :func:`column_norm_profiles`, which looks every operator up with its
    domain replaced by its codomain, and serves an upper operator's
    profiles from one call at the largest truncation.  The oracle and the
    ratio curves read it there; the tameness sup pairs walk their members
    on the family's weight sides (:func:`_weight_side`) and never reach
    the memo.
    """
    runs = _symbol_side(op, n_trunc)
    v = weight_array(op.codomain, k, n_trunc)
    if all(run.i_top <= 1 for run in runs):
        # at most one run reaches offset 0 (a full symbol's upper run holds
        # log-zero there), so a column is the one term u_0 + v_n or none
        [u0] = [run.u[0, 0] for run in runs if run.i_top] or [LOG_ZERO]
        if u0 < np.inf and (v < np.inf).all():
            out = u0 + v
            if norm_kind is NormKind.SUM:
                out += 0.0  # -0.0 reads 0.0
            out.flags.writeable = False
            return out
    weights = [_weight_run(v, run.direction, n_trunc) for run in runs]
    [profile] = _profiles(runs, weights, n_trunc, norm_kind)
    return profile


def column_norm_profiles(
    op: ToeplitzOperator,
    k: int,
    truncations: Sequence[int],
    norm_kind: NormKind = NormKind.SUM,
) -> list[np.ndarray]:
    """:func:`column_norm_profile` at each of the ascending ``truncations``.

    An upper part's column n holds rows 1..n only, the same float terms
    u_i + v_{n-i} at every truncation, and the walk reduces each column's
    own terms in one offset-block schedule (:func:`_walk`); the blocks that
    a larger log N allowance walks and a smaller one skips round away.  So
    an upper operator's profile at truncation N, in either norm, is the
    first N entries of its profile at any larger truncation: one kernel
    call at the largest truncation serves them all.  A lower column's rows
    reach the truncation, so every other profile gets its own call.

    The memo is keyed on what the kernel reads: ``op`` is looked up with
    its domain replaced by its codomain, so operators that differ only in
    their domain share their profiles.
    """
    if op.domain is not op.codomain:
        op = dataclasses.replace(op, domain=op.codomain)
    if op.variant is Variant.UPPER:
        top = column_norm_profile(op, k, truncations[-1], norm_kind)
        return [top[:n] for n in truncations]
    return [column_norm_profile(op, k, n, norm_kind) for n in truncations]


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------


def _dense_matrix(op: ToeplitzOperator, n: int) -> np.ndarray:
    """The n-by-n matrix: the entrywise sum of its runs' triangles."""
    idx = np.arange(n, dtype=np.int32)
    offs = idx[:, None] - idx[None, :]
    return reduce(np.add, (
        np.where(direction * offs >= 0, vals[np.clip(direction * offs, 0, n - 1)], 0.0)
        for vals, direction in _runs(op, n, log=False)))


def _prepare_input(x: Sequence[float], n_max: int | None) -> tuple[np.ndarray, int]:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise InvariantError("input vector must be one-dimensional")
    n = n_max if n_max is not None else len(arr)
    if len(arr) > n:
        if np.any(arr[n:] != 0.0):
            raise InvariantError(f"input has support beyond truncation {n}")
        arr = arr[:n]
    elif len(arr) < n:
        arr = np.concatenate([arr, np.zeros(n - len(arr))])
    return arr, n


def _flag_overflow(y: np.ndarray) -> np.ndarray:
    if not np.isfinite(y).all():
        warnings.warn(
            "operator application overflowed; non-finite entries returned",
            RuntimeWarning,
            stacklevel=3,
        )
    return y


def apply_dense(
    op: ToeplitzOperator, x: Sequence[float], n_max: int | None = None
) -> np.ndarray:
    """Apply the truncated operator by materializing the dense matrix."""
    arr, n = _prepare_input(x, n_max)
    with np.errstate(over="ignore", invalid="ignore"):
        y = _dense_matrix(op, n) @ arr
    return _flag_overflow(y)


def apply_fast(
    op: ToeplitzOperator, x: Sequence[float], n_max: int | None = None
) -> np.ndarray:
    """Apply the truncated operator in O(n log n) by circulant embedding.

    The lower part is an ordinary convolution with (theta_0, theta_1, ...),
    the upper part a correlation with (theta_0, theta_{-1}, ...); both ride
    one zero-padded FFT of length >= 2n.
    """
    arr, n = _prepare_input(x, n_max)
    size = 1 << (2 * n - 1).bit_length()
    fx = np.fft.rfft(arr, size)
    y = np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for vals, direction in _runs(op, n, log=False):
            # an upward run is a correlation, whose n outputs start at n - 1
            first = 0 if direction > 0 else n - 1
            y = y + np.fft.irfft(np.fft.rfft(vals[::direction], size) * fx,
                                 size)[first : first + n]
    return _flag_overflow(y)


# ---------------------------------------------------------------------------
# memberships
# ---------------------------------------------------------------------------


def membership_in_space(
    spec: SymbolSpec, space: SpaceDescriptor, window: Window | None = None
) -> Verdict:
    """Does the one-sided sequence lie in the space?  Evidence per grading k:
    the series sum_j |theta_j| a(j+1, k) is classified on the window.  The
    terms of all gradings fill one ``(k_max, n_max)`` block, row k - 1 for
    grading k, which one series pass classifies; the first divergent
    grading decides, else the last inconclusive one.  A grading that
    :func:`spaces._settled_rows` settles as convergent skips the pass.

    A power series space keeps the verdict under ``("membership",
    space.kind, spec, window)`` among the facts of its sequence at the
    clipped n_max (:func:`spaces._memo`); a general Köthe space is checked
    on every call."""
    win = window or Window()
    k_max, _, n_max, _ = win.clip(space)
    if n_max < 2:
        return inconclusive("window too short for series evidence", win)
    # the symbol's logs, then the weights, evaluate the exponents before the
    # memo reads them, each under its own errstate: an overflow to +inf that
    # they take silently stays silent
    logs = spec.log_abs_array(n_max)
    weight_array(space, 1, n_max)
    return _memo(space.alpha, n_max, ("membership", space.kind, spec, win),
                 lambda: _membership_scan(logs, space, win, k_max, n_max))


def _membership_scan(logs: np.ndarray, space: SpaceDescriptor, win: Window,
                     k_max: int, n_max: int) -> Verdict:
    terms = np.empty((k_max, n_max))
    for k in range(1, k_max + 1):
        terms[k - 1] = weight_array(space, k, n_max)
    # a zero entry's term is zero whatever its weight, infinite ones too
    terms[:, np.isneginf(logs)] = 0.0
    terms += logs
    settled = _settled_rows(terms)
    open_rows = terms[~settled] if settled.any() else terms
    verdicts = _classify_rows(open_rows, win) if len(open_rows) else []
    saw_inconclusive = None
    for k, verdict in zip((np.flatnonzero(~settled) + 1).tolist(), verdicts):
        if verdict.classification is SeriesClass.DIVERGENT:
            witness = FailureWitness(
                k=k, best_m=None, n_range=(n_max // 2, n_max),
                growth_log=verdict.growth_log,
            )
            return fails(witness, win, reason=f"membership series diverges at k={k}")
        if verdict.classification is SeriesClass.INCONCLUSIVE:
            saw_inconclusive = k
    if saw_inconclusive is not None:
        return inconclusive(
            f"membership series undecided at k={saw_inconclusive}", win
        )
    tags = ("finite-window",) if space.finite_window else ()
    return holds(None, win, reason="membership series convergent for every k",
                 tags=tags)


def membership_in_dual(
    spec: SymbolSpec, space: SpaceDescriptor, window: Window | None = None
) -> Verdict:
    """Does the sequence obey the dual coefficient bound of the space?

    The bound at index m is the weight a(n, m): infinite type admits
    coefficients up to e^{m * alpha_n}, finite type demands decay
    e^{-alpha_n / m}.  Searches m <= m_max for which
    sup_n (log|theta_{n-1}| - log a(n, m)) stabilizes between the half and
    full window; the stabilized sup is the certificate constant.  The
    verdict is kept under ``("dual membership", space.kind, spec, window)``
    among the facts of the space's sequence at the clipped n_max
    (:func:`spaces._memo`)."""
    win = window or Window()
    if not space.is_power_series:
        raise UnsupportedCombinationError(
            "dual membership is only decided against power series spaces"
        )
    _, _, n_max, _ = win.clip(space)
    half = n_max // 2
    if half < 1:
        return inconclusive("window too short for a plateau test", win)
    logs = spec.log_abs_array(n_max)
    # the scan's first bound, read before the memo (see membership_in_space)
    weight_array(space, 1, n_max)
    return _memo(space.alpha, n_max, ("dual membership", space.kind, spec, win),
                 lambda: _dual_scan(logs, space, win, n_max))


def _dual_scan(logs: np.ndarray, space: SpaceDescriptor, win: Window, n_max: int
               ) -> Verdict:
    half = n_max // 2

    def sup_pair(k: int, m: int) -> tuple[LogValue, LogValue]:
        gap = log_ratio(logs, weight_array(space, m, n_max))
        return float(np.max(gap[:half])), float(np.max(gap))

    scan = scan_forall(win, sup_pair, 1, win.m_max)
    if scan.outcome is Outcome.HOLDS:
        m, log_c = scan.entries[1]
        return holds(BoundCertificate(m=m, log_c=log_c), win)
    if scan.outcome is Outcome.INCONCLUSIVE:
        return inconclusive("coefficient gap drifts for some m", win)
    witness = FailureWitness(k=None, best_m=win.m_max, n_range=(half, n_max),
                             growth_log=scan.growth)
    return fails(witness, win, reason="coefficient bound violated for every m")
