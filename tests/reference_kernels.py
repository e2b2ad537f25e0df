"""Reference implementations that the tests hold fast paths against.

``gather_run_profile`` is the column-norm kernel as it was before the
window-view rewrite of :func:`koethe.operators._run_profile`: per offset
block it builds a clipped index array into the padded codomain weights and
gathers through it.  It computes the same terms in the same (offset, column)
layout, so the two kernels must agree bit for bit.

``_gap_pairs``, ``_sup_pair`` and ``_profile_pairs`` are the certifier's and
the oracle's sup-pair providers as they were before the scans kept their
rows: every pair looks its rows up in the caches again and reduces each
half of the gap by its own ``np.max``.  They return the same floats, so the
two must agree bit for bit as well.
"""

from __future__ import annotations

import contextlib
import math
from typing import Sequence
from unittest import mock

import numpy as np

from koethe import operators
from koethe.criteria import NStart, QuantifierCondition
from koethe.logdomain import LogValue
from koethe.operators import (
    _BLOCK,
    NEGLIGIBLE_LOG,
    NormKind,
    ToeplitzOperator,
    column_norm_profile,
)
from koethe.spaces import weight_array
from koethe.verdicts import SupPair


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
) -> tuple[np.ndarray, np.ndarray]:
    """Clip-and-gather form of ``operators._run_profile``."""
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
        bm = terms.max(axis=0)
        if norm_kind is NormKind.SUP:
            m_run[lo : hi + 1] = np.maximum(m_run[lo : hi + 1], bm)
            continue
        safe = np.where(np.isneginf(bm), 0.0, bm)
        with np.errstate(invalid="ignore"):
            bs = np.where(np.isneginf(terms), 0.0, np.exp(terms - safe)).sum(axis=0)
        m_new, s_new = _merge_scaled(m_run[lo : hi + 1], s_run[lo : hi + 1], bm, bs)
        m_run[lo : hi + 1] = m_new
        s_run[lo : hi + 1] = s_new
    return m_run, s_run


@contextlib.contextmanager
def gather_kernel():
    """Run ``column_norm_profile`` on the reference kernel inside the block."""
    with mock.patch.object(operators, "_run_profile", gather_run_profile):
        yield


def uncached_profile(op, k: int, n_trunc: int, norm_kind: NormKind) -> np.ndarray:
    """``column_norm_profile`` without its memo, on whichever kernel is bound."""
    return operators.column_norm_profile.__wrapped__(op, k, n_trunc, norm_kind)


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
        gap = profile - weight_array(op.domain, m, n_c)
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
