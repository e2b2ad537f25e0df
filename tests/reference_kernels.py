"""Reference implementations that the tests hold fast paths against.

``gather_run_profile`` is the column-norm kernel as it was before the
window-view rewrite of the block walk :func:`koethe.operators._walk`: per
offset block it builds a clipped index array into the padded codomain
weights and gathers through it.  It computes the same terms in the same
(offset, column) layout, a lone active column beside a log-zero companion
as in the walk, so the two kernels must agree bit for bit.
``gather_kernel`` puts it in the walk's place; a profile that the kernel
gives in closed form, of a symbol supported at offset 0 alone, walks
nothing and so is not reached there.  ``merged_profile`` is a whole profile
from the reference alone, every run gathered and the runs merged.

``same_exp_log_build`` tells whether numpy rounds exp and log as on the
build that recorded the tests' byte digests.

``_gap_pairs``, ``_sup_pair`` and ``_profile_pairs`` are the certifier's and
the oracle's sup-pair providers as they were before the scans kept their
rows: every pair looks its rows up in the caches again and reduces each
half of the gap by its own ``np.max``.  They return the same floats, so the
two must agree bit for bit as well.

``scan_exists`` is the exists scan as it was before it asked for runs of
gradings: one sup pair per call.  The scan over runs must return the same
``Scan`` and have its provider fetch the same rows in the same order.

``_sample_tameness`` is the tameness check's per-member scan as it was
before its sup pairs ran the kernel on a column range: every pair reads
the full profile.  ``full_profile_tameness`` puts it in place.

The oracle's and the tameness check's references read their gaps through
the zero-lhs rule of ``_gap``, as the fast paths read theirs through
``logdomain.log_ratio`` at a wild weight row: a zero column norm meets a
zero weight as -inf, where a plain difference gave NaN.

``BoundedSetup.bounds`` and ``_sup_columns`` are the per-column profile
bounds and the column range of a tameness sup pair as they were before
the pairs chose their columns from facts that a family shares: O(n) passes
per pair.  ``sup_columns`` gives that range, which the tameness pool
families must still walk exactly.

``_prefix_lse``, ``classify_series`` and ``membership_in_space`` are the
series classification and the membership check as they were before the
series pass took a block of rows: one series per call, one 1-D ``np.sum``
per halving segment, and one ``classify_series`` call per grading.  The
rows pass must give every row these partial sums, bit for bit.

``subadditivity_scan`` is the subadditivity constant's scan as it was
before it swept the half rows: a brute force over every pair (t, s), each
row in turn.  The sweep must give the same report.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import math
from typing import NamedTuple, Sequence
from unittest import mock

import numpy as np

from koethe import criteria, operators
from koethe.criteria import NStart, QuantifierCondition, SMap
from koethe.errors import ConfigurationError
from koethe.logdomain import LOG_ZERO, LogValue
from koethe.operators import (
    _BLOCK,
    NormKind,
    SymbolSpec,
    ToeplitzOperator,
    column_norm_profile,
    column_norm_profiles,
)
from koethe.spaces import (
    SeriesClass,
    SeriesVerdict,
    SpaceDescriptor,
    SubadditivityReport,
    weight_array,
)
from koethe.verdicts import (
    FailureWitness,
    Outcome,
    PlateauStatus,
    Scan,
    SupPair,
    Verdict,
    Window,
    _halvings,
    _status,
    fails,
    holds,
    inconclusive,
    scan_fixed,
)

#: the relative log-mass below which the reference skips a block: wider
#: than the kernel's skip at spaces._ROUNDING_LOG, so the agreement tests
#: also hold the kernel's skip exact
NEGLIGIBLE_LOG = 60.0


#: sha256 of np.exp and np.log over a fixed grid on the build that recorded
#: the tests' digests; another libm or SIMD path may round them differently
_EXP_LOG_DIGEST = "76671592d163edd52976027ea6527f64d3d04ae133bcd50b37a3f8ea93ca3266"


def same_exp_log_build() -> bool:
    """Does numpy round exp and log as on the build that recorded the digests?"""
    grid = np.linspace(-60.0, 60.0, 4097)
    data = np.exp(grid).tobytes() + np.log(np.exp(grid)).tobytes()
    return hashlib.sha256(data).hexdigest() == _EXP_LOG_DIGEST


# copies of the kernel's helpers, so that an edit of either is checked
# against an implementation it cannot reach
def _suffix_max(arr: np.ndarray) -> np.ndarray:
    return np.maximum.accumulate(arr[::-1])[::-1]


def _merge_scaled(m1, s1, m2, s2):
    m = np.maximum(m1, m2)
    safe = np.where(np.isneginf(m), 0.0, m)
    with np.errstate(invalid="ignore"):
        out = s1 * np.exp(np.where(np.isneginf(m1), -np.inf, m1) - safe)
        out += s2 * np.exp(np.where(np.isneginf(m2), -np.inf, m2) - safe)
    return m, out


def gather_run_profile(
    u: np.ndarray,
    v: np.ndarray,
    direction: int,
    n_trunc: int,
    norm_kind: NormKind,
    cols: tuple[int, int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Clip-and-gather form of one run's walk (``operators._walk``) on the
    log entries u and codomain weights v; a column range is the full
    range's slice."""
    if cols is not None:
        m_run, s_run = gather_run_profile(u, v, direction, n_trunc, norm_kind)
        return m_run[cols[0] : cols[1]], s_run[cols[0] : cols[1]]
    pad = np.full(n_trunc + 2, -np.inf)
    pad[1 : n_trunc + 1] = v[:n_trunc]
    u_sufmax = _suffix_max(u)
    v_reach = _suffix_max(pad) if direction > 0 else np.maximum.accumulate(pad)
    allowance = math.log(n_trunc) if norm_kind is NormKind.SUM else 0.0

    cols = np.arange(1, n_trunc + 1)
    m_run = np.full(n_trunc, -np.inf)
    s_run = np.zeros(n_trunc)
    # offsets past the symbol's support contribute nothing
    support = int(np.argmax(np.isneginf(u_sufmax))) if np.isneginf(u_sufmax).any() \
        else len(u)
    i_top = min(support, n_trunc)
    for i0 in range(0, i_top, _BLOCK):
        reach_idx = np.clip(cols + direction * i0, 0, n_trunc + 1)
        peak = u_sufmax[i0] + v_reach[reach_idx]
        active = peak + allowance > m_run - NEGLIGIBLE_LOG
        if not active.any():
            break
        lo, hi = np.flatnonzero(active)[[0, -1]]
        n_idx = cols[lo : hi + 1]
        i_idx = np.arange(i0, min(i0 + _BLOCK, i_top))
        j = np.clip(n_idx[None, :] + direction * i_idx[:, None], 0, n_trunc + 1)
        terms = u[i_idx][:, None] + pad[j]
        width = hi - lo + 1
        if width == 1:
            # a log-zero companion, so numpy sums this block row by row too
            terms = np.column_stack([terms, np.full(len(i_idx), -np.inf)])
        bm = terms.max(axis=0)
        if norm_kind is NormKind.SUP:
            m_run[lo : hi + 1] = np.maximum(m_run[lo : hi + 1], bm[:width])
            continue
        safe = np.where(np.isneginf(bm), 0.0, bm)
        with np.errstate(invalid="ignore"):
            bs = np.where(np.isneginf(terms), 0.0, np.exp(terms - safe)).sum(axis=0)
        m_new, s_new = _merge_scaled(m_run[lo : hi + 1], s_run[lo : hi + 1],
                                     bm[:width], bs[:width])
        m_run[lo : hi + 1] = m_new
        s_run[lo : hi + 1] = s_new
    return m_run, s_run


def _gather_walk(run, weights, n_trunc: int, norm_kind: NormKind,
                 cols: tuple[int, int] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``operators._walk``'s signature over :func:`gather_run_profile`, one
    member of the stack at a time; the codomain weights v are read back
    from the walk-order pad."""
    v = weights.pad[:n_trunc][::run.direction]
    walks = [gather_run_profile(u, v, run.direction, n_trunc, norm_kind, cols)
             for u in run.u]
    return np.stack([m for m, _ in walks]), np.stack([s for _, s in walks])


@contextlib.contextmanager
def gather_kernel():
    """Walk every kernel set-up on the reference kernel inside the block."""
    with mock.patch.object(operators, "_walk", _gather_walk):
        yield


def merged_profile(op, k: int, n_trunc: int, norm_kind: NormKind) -> np.ndarray:
    """``column_norm_profile`` from :func:`gather_run_profile`: each run of
    ``op`` (``operators._runs``) gathered on grading k's weights, the runs
    merged as the kernel merges its walks."""
    v = weight_array(op.codomain, k, n_trunc)
    walks = [gather_run_profile(u, v, direction, n_trunc, norm_kind)
             for u, direction in operators._runs(op, n_trunc, log=True)]
    if norm_kind is NormKind.SUP:
        return functools.reduce(np.maximum, [m for m, _ in walks])
    m, s = functools.reduce(lambda a, b: _merge_scaled(*a, *b), walks)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(s > 0.0, m + np.log(np.where(s > 0.0, s, 1.0)), -np.inf)


def uncached_profile(op, k: int, n_trunc: int, norm_kind: NormKind) -> np.ndarray:
    """``column_norm_profile`` without its memo, on whichever kernel is bound."""
    return operators.column_norm_profile.__wrapped__(op, k, n_trunc, norm_kind)


# verbatim copy of the exists scan before it asked for runs of gradings
def scan_exists(
    win: Window, sup_pair: SupPair, k_max: int, m_max: int,
    k_limit: int | None = None,
) -> Scan:
    drift = False
    failing: tuple[int, float] | None = None
    for m in range(1, m_max + 1):
        k_top = max(k_max, 2 * m + 1)
        if k_limit is not None:
            k_top = min(k_top, k_limit)
        log_c: dict[int, LogValue] = {}
        status = PlateauStatus.PLATEAU
        for k in range(1, k_top + 1):
            pair = sup_pair(k, m)
            status = _status(win, pair)
            if status is not PlateauStatus.PLATEAU:
                break
            if k <= k_max:
                log_c[k] = pair[1]
        if status is PlateauStatus.DRIFT:
            drift = True
        elif status is PlateauStatus.GROWTH:
            failing = (k, pair[1] - pair[0])
        elif len(log_c) == k_max:
            return Scan(Outcome.HOLDS, log_c, m=m)
        else:
            failing = None
    if drift or failing is None:
        return Scan(Outcome.INCONCLUSIVE)
    k, growth = failing
    return Scan(Outcome.FAILS_ON_WINDOW, k=k, growth=growth)


# verbatim copies of the sup-pair providers before the scan-local rows
def _gap(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    # zero lhs weight satisfies any bound; zero rhs weight under a nonzero
    # lhs cannot be dominated at any constant
    with np.errstate(invalid="ignore"):
        gap = lhs - rhs
    return np.where(np.isneginf(lhs), -np.inf, gap)


def _sup_pair(gap: np.ndarray, n0: int, n_max: int) -> tuple[LogValue, LogValue] | None:
    half = n_max // 2
    if n0 > half:
        return None
    sup_half = float(np.max(gap[n0 - 1 : half]))
    sup_full = max(sup_half, float(np.max(gap[half:n_max])))
    return sup_half, sup_full


def _gap_pairs(cond: QuantifierCondition, n_max: int) -> SupPair:
    """Scan evidence from the raw weight gaps of the condition."""
    def sup_pair(k: int, m: int) -> tuple[LogValue, LogValue] | None:
        n0 = k if cond.n_start is NStart.K else 1
        gap = _gap(weight_array(cond.lhs, k, n_max),
                   weight_array(cond.rhs, m, n_max))
        return _sup_pair(gap, n0, n_max)
    return sup_pair


def _curve_points(
    op: ToeplitzOperator,
    norm_kind: NormKind,
    k: int,
    m: int,
    checkpoints: Sequence[int],
) -> list[tuple[int, LogValue]]:
    points = []
    for n_c in checkpoints:
        profile = column_norm_profile(op, k, n_c, norm_kind)
        gap = _gap(profile, weight_array(op.domain, m, n_c))
        points.append((n_c, float(np.max(gap))))
    return points


def _profile_pairs(op: ToeplitzOperator, kind: NormKind, pts: Sequence[int]
                   ) -> SupPair:
    """Scan evidence from the ratio curve at the last two checkpoints; the
    plateau status only reads the last doubling."""
    last = pts[-2:]

    def sup_pair(k: int, m: int) -> tuple[LogValue, LogValue]:
        (_, sup_half), (_, sup_full) = _curve_points(op, kind, k, m, last)
        return sup_half, sup_full
    return sup_pair


def _sample_tameness(
    op: ToeplitzOperator, s_map: SMap, win: Window, norm_kind: NormKind,
    k_max: int, n_max: int,
) -> tuple[Outcome, int | None, LogValue | None]:
    if n_max < 2:
        return Outcome.INCONCLUSIVE, None, None

    def sup_pair(k: int, m: int) -> tuple[LogValue, LogValue]:
        [profile] = column_norm_profiles(op, k, (n_max,), norm_kind)
        weights = weight_array(op.domain, m, n_max)
        with np.errstate(over="ignore"):
            return _sup_pair(_gap(profile, weights), 1, n_max)

    scan = scan_fixed(win, sup_pair, k_max, s_map)
    if scan.outcome is Outcome.HOLDS:
        return Outcome.HOLDS, min(scan.entries), max(scan.entries.values())
    return scan.outcome, None, None


@contextlib.contextmanager
def full_profile_tameness():
    """Run ``criteria.tameness_check`` on full profiles inside the block, one
    member after the other."""
    def sample(ops, *args):
        return [_sample_tameness(op, *args) for op in ops]
    with mock.patch.object(criteria, "_sample_tameness", sample):
        yield


# verbatim copies of the per-column profile bounds and the column range
# that a tameness sup pair read off them, in O(n) per pair, before the
# pairs chose their columns from facts that a family shares; ``bounds`` was
# a method of the kernel set-up, which carried the ``bounded`` flag then,
# and read the weights v, which it now reads back from the walk-order pad
def _bounded(arr: np.ndarray) -> bool:
    """No entry is +inf, NaN or 2^1022 or more in magnitude; log-zero is."""
    return bool((np.isneginf(arr) | (np.abs(arr) < 2.0 ** 1022)).all())


class BoundedSetup(NamedTuple):
    """A member's symbol runs and weight sides at one grading (what
    ``operators._profiles`` walks) with its ``bounded`` flag."""

    runs: list
    weights: list
    n_trunc: int
    bounded: bool

    def bounds(self, norm_kind: NormKind) -> tuple[np.ndarray, np.ndarray] | None:
        """Per-column (lower, upper) bounds on the profile in O(n_trunc), or
        None where the set-up is not ``bounded``.

        The lower bound is the kernel's head, the larger of each run's first
        two row terms: the kernel computes both for every column, and a norm
        is at least each term it computed.  The upper bound is each run's
        largest symbol log plus the largest weight its columns reach, plus in
        a sum the log of the runs' supports (a column has no more terms, and
        each scales to at most 1), plus a margin of 1.  Both bounds add the
        kernel's own operands, and rounding is monotone, so they bound the
        profile's floats and not only the reals behind them.
        """
        if not self.bounded:
            return None
        n_trunc = self.n_trunc
        lower = np.full(n_trunc, -np.inf)
        upper = np.full(n_trunc, -np.inf)
        terms = 0
        for run, weights in zip(self.runs, self.weights):
            u, v = run.u, weights.pad[:n_trunc][::run.direction]
            np.maximum(lower, u[0] + v, out=lower)
            # the second row: n + 1 of column n below the diagonal, n - 1 above
            nxt, own = (slice(1, None), slice(None, -1))[::run.direction]
            np.maximum(lower[own], u[1:2] + v[nxt], out=lower[own])
            # the largest weight from each column's first row on, in the
            # run's direction: v_reach is in walk order
            reach = weights.v_reach[:n_trunc][::run.direction]
            np.maximum(upper, run.u_sufmax[0] + reach, out=upper)
            terms += run.i_top
        if norm_kind is NormKind.SUM:
            upper += math.log(max(terms, 1))
        upper += 1.0
        return lower, upper


def _sup_columns(lower: np.ndarray, upper: np.ndarray, weights: np.ndarray
                 ) -> tuple[int, int] | None:
    """The column range [c0, c1) of every column whose gap can reach the sup
    pair over n >= 1, given per-column profile bounds and finite weights;
    None for all columns.

    A column of the half window is kept where its upper gap reaches the
    best lower gap of the half, any other where it reaches the best of the
    full window; each column left out lies below the sup it could enter,
    so the pair over the range, with -inf outside it, is the same floats."""
    n_max = len(weights)
    half = n_max // 2
    with np.errstate(over="ignore"):
        low = lower - weights
        high = upper - weights
    best_half = low[:half].max()
    keep = np.empty(n_max, dtype=bool)
    np.greater_equal(high[:half], best_half, out=keep[:half])
    np.greater_equal(high[half:], max(best_half, low[half:].max()), out=keep[half:])
    c0 = int(keep.argmax())
    c1 = n_max - int(keep[::-1].argmax())
    return None if c1 - c0 == n_max else (c0, c1)


def bounded_setup(op: ToeplitzOperator, k: int, n_trunc: int) -> BoundedSetup:
    """``op``'s kernel set-up at grading k, bounded where every symbol log
    and codomain weight is."""
    runs = operators._symbol_side(op, n_trunc)
    bounded = (all(_bounded(run.u) for run in runs)
               and _bounded(weight_array(op.codomain, k, n_trunc)))
    weights = [operators._weight_side(op.codomain, k, n_trunc, run.direction)
               for run in runs]
    # each stack of one as its member's run
    return BoundedSetup([run._replace(u=run.u[0]) for run in runs], weights,
                        n_trunc, bounded)


def sup_columns(op: ToeplitzOperator, k: int, m: int, n_max: int, norm_kind: NormKind
                ) -> tuple[int, int] | None:
    """The column range that a tameness sup pair walked on these bounds:
    None, all columns, where the set-up is not bounded or the domain row
    is wild (an entry infinite, NaN or 2^1022 or more in magnitude)."""
    weights = weight_array(op.domain, m, n_max)
    bounds = (None if not np.abs(weights).max() < 2.0 ** 1022
              else bounded_setup(op, k, n_max).bounds(norm_kind))
    return None if bounds is None else _sup_columns(*bounds, weights)


# verbatim copies of the series classification and the membership check
# before the series pass took a block of rows
def _prefix_lse(terms: np.ndarray, bounds: Sequence[int]) -> list[LogValue]:
    """Log partial sums at each bound; scaled segment sums, fixed order.  An
    infinite term makes its partial sum and every later one infinite."""
    out: list[LogValue] = []
    run_m, run_s = LOG_ZERO, 0.0
    prev = 0
    for b in bounds:
        seg = terms[prev:b]
        prev = b
        if seg.size:
            seg_m = float(np.max(seg))
            if seg_m == math.inf:
                # a later finite segment adds seg_s * exp(-inf) = 0
                run_m, run_s = math.inf, 1.0
            elif seg_m > LOG_ZERO:
                seg_s = float(np.sum(np.exp(seg - seg_m)))
                if seg_m > run_m:
                    run_s = run_s * math.exp(run_m - seg_m) if run_s else 0.0
                    run_m = seg_m
                run_s += seg_s * math.exp(seg_m - run_m)
        out.append(run_m + math.log(run_s) if run_s > 0.0 else LOG_ZERO)
    return out


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
    bounds = _halvings(n_max, 1)
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


def membership_in_space(
    spec: SymbolSpec, space: SpaceDescriptor, window: Window | None = None
) -> Verdict:
    """Does the one-sided sequence lie in the space?  Evidence per grading k:
    the series sum_j |theta_j| a(j+1, k) is classified on the window."""
    win = window or Window()
    k_max, _, n_max, _ = win.clip(space)
    if n_max < 2:
        return inconclusive("window too short for series evidence", win)
    logs = spec.log_abs_array(n_max)
    zero = np.isneginf(logs)
    saw_inconclusive = None
    for k in range(1, k_max + 1):
        # a zero entry's term is zero whatever its weight, infinite ones too
        terms = logs + np.where(zero, 0.0, weight_array(space, k, n_max))
        verdict = classify_series(terms, win)
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


# verbatim copy of the subadditivity scan before it swept the half rows
def subadditivity_scan(a: np.ndarray, m_max: int) -> SubadditivityReport:
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
