"""Log-domain arithmetic for magnitudes of the form e^{k*alpha_n}.

Every magnitude in the certificate machinery is stored as its natural
logarithm (a plain float), with ``-inf`` encoding zero.  Sums of magnitudes
are log-sum-exp reductions, products are additions, and float comparison
order matches the linear-domain order.  Linear values are only materialized
for reports, and only when they fit a double.

Summation order is fixed: ascending index, pairwise reduction tree.  This
keeps reports bit-reproducible across runs and platforms.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

LogValue = float

LOG_ZERO = float("-inf")

#: largest |log| for which a linear value is materialized in reports
LINEAR_CUTOFF = 700.0


def log_from_linear(x: float) -> LogValue:
    """log|x|, with 0 mapped to -inf."""
    if x == 0.0:
        return LOG_ZERO
    return math.log(abs(x))


def linear_or_none(lv: LogValue) -> float | None:
    """exp(lv) when |lv| <= LINEAR_CUTOFF, else None (kept log-only)."""
    if lv == LOG_ZERO:
        return 0.0
    if abs(lv) > LINEAR_CUTOFF:
        return None
    return math.exp(lv)


def log_add(a: LogValue, b: LogValue) -> LogValue:
    """log(e^a + e^b), exact when either operand is -inf."""
    if a == LOG_ZERO:
        return b
    if b == LOG_ZERO:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    if hi == math.inf:
        return hi
    return hi + math.log1p(math.exp(lo - hi))


def log_sub(a: LogValue, b: LogValue) -> LogValue:
    """log(e^a - e^b) for a >= b; equal operands give -inf."""
    if b == LOG_ZERO:
        return a
    if a < b:
        raise ValueError(f"log_sub requires a >= b, got a={a!r} b={b!r}")
    if a == b:
        return LOG_ZERO
    return a + math.log1p(-math.exp(b - a))


def log_ratio(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """log(e^lhs / e^rhs) entrywise: a zero lhs (-inf) gives -inf against
    any rhs, since it meets every bound; a nonzero lhs over a zero rhs gives
    +inf; a result past float range is +-inf, with no warning."""
    with np.errstate(invalid="ignore", over="ignore"):
        ratio = lhs - rhs
    return np.where(np.isneginf(lhs), -np.inf, ratio)


def log_sum(terms: Sequence[LogValue] | Iterable[LogValue]) -> LogValue:
    """Pairwise log-sum-exp over ``terms`` in their given (ascending) order."""
    vals = list(terms)
    if not vals:
        return LOG_ZERO
    while len(vals) > 1:
        merged = [log_add(vals[i], vals[i + 1]) for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            merged.append(vals[-1])
        vals = merged
    return vals[0]


def log_max(terms: Sequence[LogValue] | Iterable[LogValue]) -> LogValue:
    """Maximum term; the sup-form counterpart of :func:`log_sum`."""
    best = LOG_ZERO
    for t in terms:
        if t > best:
            best = t
    return best
