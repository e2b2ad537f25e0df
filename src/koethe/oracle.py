"""Finite-truncation numerical oracles for operator continuity/compactness.

The basis-column criterion reduces continuity questions to boundedness of
the ratio ||T e_n||_k / ||e_n||_m over n.  The oracle evaluates that ratio
on the truncated operator directly from column norms, with no reference to
the weight-domination routing, and watches the running sup along a schedule
of doubling checkpoints.  At checkpoint N both the sup range (n <= N) and
the column truncation (rows <= N) grow, so a ratio can blow up either
because far basis vectors misbehave or because a single column's norm
series diverges; both show as growth between checkpoints.

A plateau on the window is evidence, not proof: verdicts carry the same
trichotomy and thresholds as the certificate search.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, WindowError, json_report
from .logdomain import LogValue
from .criteria import (
    COMPACTNESS,
    CONTINUITY,
    OperatorReport,
    _gap_sups,
    _row,
    compactness_verdict,
    continuity_verdict,
    default_norm_kind,
)
from .operators import (
    NormKind,
    ToeplitzOperator,
    _dense_matrix,
    column_norm_profiles,
)
from .spaces import nuclearity_verdict
from .verdicts import Outcome, Shape, Sups, Verdict, Window, decide, inconclusive


@dataclass(frozen=True)
class RatioCurve:
    """Running sup of log(||T e_n||_k / ||e_n||_m) along checkpoints."""

    k: int
    m: int
    norm_kind: NormKind
    points: tuple[tuple[int, LogValue], ...]

    def to_csv_rows(self) -> list[str]:
        """Rows of 'N,k,m,log_ratio'."""
        return [f"{n},{self.k},{self.m},{v!r}" for n, v in self.points]

    JSON_KEYS = {"k": "k", "m": "m", "norm_kind": "norm_kind",
                 "points": lambda curve: [{"n": n, "log_ratio": v}
                                          for n, v in curve.points]}
    to_json = json_report


CSV_HEADER = "N,k,m,log_ratio"


class Agreement(str, enum.Enum):
    AGREE = "agree"
    ORACLE_INCONCLUSIVE = "oracle_inconclusive"
    THEOREM_INCONCLUSIVE = "theorem_inconclusive"
    CONFLICT = "conflict"


@dataclass(frozen=True)
class CrossReport:
    """Theorem route versus raw oracle, and whether they agree."""

    prop: str
    theorem_report: OperatorReport
    oracle_verdict: Verdict
    agreement: Agreement

    JSON_KEYS = {"property": "prop", "agreement": "agreement",
                 "theorem": "theorem_report", "oracle": "oracle_verdict"}
    to_json = json_report


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------


def _effective_checkpoints(window: Window, n_max: int) -> tuple[int, ...] | None:
    """The checkpoint schedule cut at the clipped truncation n_max; None
    when the remaining window is too short for a plateau test."""
    pts = [c for c in window.checkpoints if c <= n_max]
    if not pts or pts[-1] != n_max:
        pts.append(n_max)
    if len(pts) < 2:
        if n_max // 2 < 2:
            return None
        pts = [n_max // 2, n_max]
    return tuple(pts)


def ratio_curve(
    op: ToeplitzOperator,
    k: int,
    m: int,
    norm_kind: NormKind | None = None,
    window: Window | None = None,
) -> RatioCurve:
    """Running sup of the column-norm ratio along the window's checkpoint
    schedule, cut at the clipped truncation as the oracle cuts it.

    The curve is nondecreasing because both the sup range and the column
    truncation grow with the checkpoint.
    """
    win = window or Window()
    kind = norm_kind or default_norm_kind(op)
    pts = _effective_checkpoints(win, win.clip(op.codomain, op.domain)[2])
    if pts is None:
        raise ConfigurationError("window too short for a ratio curve")
    return RatioCurve(k=k, m=m, norm_kind=kind,
                      points=tuple(zip(pts, _ratio_sups(op, kind, pts).pair(k, m))))


def _ratio_sups(op: ToeplitzOperator, kind: NormKind, pts: Sequence[int]) -> Sups:
    """The sup of log(||T e_n||_k / ||e_n||_m) over n <= N, at truncation N,
    for each checkpoint N of ``pts``: a ratio curve's points, or with the
    last two checkpoints an oracle scan's sup pair (the plateau status only
    reads the last doubling).  Grading k's parts are its profiles at the
    checkpoints, witness m's row its weights at the top one, whose prefixes
    they meet, as ``weight_array`` is prefix-stable; the one provider
    (:func:`criteria._gap_sups`) keeps and subtracts them."""
    starts = np.array((0, *itertools.accumulate(pts[:-1])))
    # the profiles' memo key, built once (see column_norm_profiles)
    key_op = dataclasses.replace(op, domain=op.codomain)
    return _gap_sups(lambda k: (column_norm_profiles(key_op, k, pts, kind), False),
                     lambda m: _row(op.domain, m, pts[-1]), pts, lambda k: starts,
                     lambda sups: sups)


# ---------------------------------------------------------------------------
# oracle verdicts
# ---------------------------------------------------------------------------


#: reasons of the oracle's verdicts; ``{k}`` is the grading the scan names
_REASONS = {
    (Shape.FORALL_K_EXISTS_M, Outcome.INCONCLUSIVE):
        "ratio curve neither settles nor grows for some m at k={k}",
    (Shape.FORALL_K_EXISTS_M, Outcome.FAILS_ON_WINDOW):
        "ratio curve grows for every m at k={k}",
    (Shape.EXISTS_M_FORALL_K, Outcome.INCONCLUSIVE):
        "no uniform witness index settles the ratio curves",
    (Shape.EXISTS_M_FORALL_K, Outcome.FAILS_ON_WINDOW):
        "every witness index leaves a growing ratio curve",
}


def _oracle(op: ToeplitzOperator, shape: Shape, window: Window | None) -> Verdict:
    """Scan the ratio curves at the last checkpoint doubling under ``shape``,
    with k and m cut to the operator's tabulated spaces, in the operator's
    default norm."""
    win = window or Window()
    k_max, m_max, n_max, clipped = win.clip(op.codomain, op.domain)
    pts = _effective_checkpoints(win, n_max)
    if pts is None:
        return inconclusive("window too short for ratio evidence", win,
                            tags=("oracle",))
    tags = ["oracle", "finite-window"] if clipped else ["oracle"]
    if shape is Shape.EXISTS_M_FORALL_K:
        nuclear = nuclearity_verdict(op.codomain, win).outcome
        tags.append("nuclearity:holds" if nuclear is Outcome.HOLDS
                    else f"hypothesis-unverified:nuclearity-{nuclear.value}")
    last = pts[-2:]
    return decide(shape, win, _ratio_sups(op, default_norm_kind(op), last), k_max,
                  m_max, last, tuple(tags), _REASONS, k_limit=op.codomain.k_limit)


def oracle_continuity(op: ToeplitzOperator, window: Window | None = None) -> Verdict:
    """For each grading k, hunt a witness m whose ratio curve plateaus."""
    return _oracle(op, Shape.FORALL_K_EXISTS_M, window)


def oracle_compactness(op: ToeplitzOperator, window: Window | None = None) -> Verdict:
    """Hunt a single witness m whose ratio curves plateau for every grading.

    Each candidate m is probed against gradings beyond itself, since those
    are the ones that can refute it.  Nuclearity of the codomain (the
    hypothesis behind the compactness reading of the ratio criterion) is
    checked and attached as a tag.
    """
    return _oracle(op, Shape.EXISTS_M_FORALL_K, window)


# ---------------------------------------------------------------------------
# cross-validation
# ---------------------------------------------------------------------------


def _agreement(theorem: Outcome, oracle: Outcome) -> Agreement:
    if theorem == oracle:
        return Agreement.AGREE
    if oracle is Outcome.INCONCLUSIVE:
        return Agreement.ORACLE_INCONCLUSIVE
    if theorem is Outcome.INCONCLUSIVE:
        return Agreement.THEOREM_INCONCLUSIVE
    return Agreement.CONFLICT


def cross_validate(
    op: ToeplitzOperator,
    window: Window | None = None,
    prop: str = COMPACTNESS,
) -> CrossReport:
    """Run the theorem route and the raw column oracle independently and
    compare their outcomes.  A CONFLICT means one side holds while the
    other fails on the same window."""
    win = window or Window()
    if prop == CONTINUITY:
        theorem = continuity_verdict(op, win)
        oracle = oracle_continuity(op, win)
    elif prop == COMPACTNESS:
        theorem = compactness_verdict(op, win)
        oracle = oracle_compactness(op, win)
    else:
        raise ConfigurationError(f"unknown property {prop!r}")
    return CrossReport(
        prop=prop,
        theorem_report=theorem,
        oracle_verdict=oracle,
        agreement=_agreement(theorem.outcome, oracle.outcome),
    )


# ---------------------------------------------------------------------------
# dense truncation
# ---------------------------------------------------------------------------


def dense_truncation(
    op: ToeplitzOperator, n: int, window: Window | None = None
) -> np.ndarray:
    """The explicit n-by-n matrix of the truncated operator.

    The full variant is materialized as the entrywise sum of its triangular
    parts, so decomposition identities hold bitwise.
    """
    cap = (window or Window()).dense_cap
    if n > cap:
        raise WindowError(f"dense truncation {n} exceeds cap {cap}")
    if n < 1:
        raise WindowError(f"dense truncation must be >= 1, got {n}")
    return _dense_matrix(op, n)
