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

import enum
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .errors import ConfigurationError, WindowError
from .logdomain import LogValue
from .criteria import (
    COMPACTNESS,
    CONTINUITY,
    OperatorReport,
    compactness_verdict,
    continuity_verdict,
    default_norm_kind,
)
from .operators import (
    NormKind,
    ToeplitzOperator,
    _dense_matrix,
    column_norm_profile,
)
from .spaces import nuclearity_verdict, weight_array
from .verdicts import (
    FailureWitness,
    Outcome,
    PointwiseCertificate,
    SupPair,
    UniformCertificate,
    Verdict,
    Window,
    fails,
    holds,
    inconclusive,
    scan_exists,
    scan_forall,
)


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

    def to_json(self) -> dict[str, Any]:
        return {
            "k": self.k,
            "m": self.m,
            "norm_kind": self.norm_kind.value,
            "points": [{"n": n, "log_ratio": v} for n, v in self.points],
        }


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

    def to_json(self) -> dict[str, Any]:
        return {
            "property": self.prop,
            "agreement": self.agreement.value,
            "theorem": self.theorem_report.to_json(),
            "oracle": self.oracle_verdict.to_json(),
        }


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------


def _effective_checkpoints(
    op: ToeplitzOperator, window: Window
) -> tuple[int, ...] | None:
    """Clip the checkpoint schedule to any tabulated windows; None when the
    remaining window is too short for a plateau test."""
    n_max = window.n_max
    for space in (op.domain, op.codomain):
        if space.n_limit is not None:
            n_max = min(n_max, space.n_limit)
    pts = [c for c in window.checkpoints if c <= n_max]
    if not pts or pts[-1] != n_max:
        pts.append(n_max)
    if len(pts) < 2:
        if n_max // 2 < 2:
            return None
        pts = [n_max // 2, n_max]
    return tuple(pts)


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


def ratio_curve(
    op: ToeplitzOperator,
    k: int,
    m: int,
    checkpoints: Sequence[int] | None = None,
    norm_kind: NormKind | None = None,
    window: Window | None = None,
) -> RatioCurve:
    """Running sup of the column-norm ratio along the checkpoint schedule.

    Checkpoints must ascend; the curve is nondecreasing because both the
    sup range and the column truncation grow with the checkpoint.
    """
    win = window or Window()
    kind = norm_kind or default_norm_kind(op)
    pts = tuple(checkpoints) if checkpoints else _effective_checkpoints(op, win)
    if pts is None:
        raise ConfigurationError("window too short for a ratio curve")
    if list(pts) != sorted(set(pts)):
        raise ConfigurationError("checkpoints must be strictly ascending")
    return RatioCurve(k=k, m=m, norm_kind=kind,
                      points=tuple(_curve_points(op, kind, k, m, pts)))


def _profile_pairs(op: ToeplitzOperator, kind: NormKind, pts: Sequence[int]
                   ) -> SupPair:
    """Scan evidence from the ratio curve at the last two checkpoints; the
    plateau status only reads the last doubling.  A scan fetches each
    grading's profiles and each witness's weights at both checkpoints once,
    on its first pair, and keeps them for the scan's other pairs."""
    half, full = pts[-2:]
    profiles: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    weights: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def sup_pair(k: int, m: int) -> tuple[LogValue, LogValue]:
        prof = profiles.get(k)
        if prof is None:
            prof = profiles[k] = (column_norm_profile(op, k, half, kind),
                                  column_norm_profile(op, k, full, kind))
        w = weights.get(m)
        if w is None:
            w = weights[m] = (weight_array(op.domain, m, half),
                              weight_array(op.domain, m, full))
        return float((prof[0] - w[0]).max()), float((prof[1] - w[1]).max())
    return sup_pair


# ---------------------------------------------------------------------------
# oracle verdicts
# ---------------------------------------------------------------------------


def oracle_continuity(
    op: ToeplitzOperator,
    window: Window | None = None,
    norm_kind: NormKind | None = None,
) -> Verdict:
    """For each grading k, hunt a witness m whose ratio curve plateaus."""
    win = window or Window()
    kind = norm_kind or default_norm_kind(op)
    pts = _effective_checkpoints(op, win)
    if pts is None:
        return inconclusive("window too short for ratio evidence", win,
                            tags=("oracle",))
    tags = ("oracle",) if pts == win.checkpoints else ("oracle", "finite-window")
    scan = scan_forall(win, _profile_pairs(op, kind, pts), win.k_max, win.m_max)
    if scan.outcome is Outcome.HOLDS:
        return holds(PointwiseCertificate(scan.entries), win, tags=tags)
    if scan.outcome is Outcome.INCONCLUSIVE:
        return inconclusive(
            f"ratio curve neither settles nor grows for some m at k={scan.k}",
            win, tags=tags,
        )
    witness = FailureWitness(k=scan.k, best_m=win.m_max,
                             n_range=(pts[-2], pts[-1]), growth_log=scan.growth)
    return fails(witness, win, tags=tags,
                 reason=f"ratio curve grows for every m at k={scan.k}")


def oracle_compactness(
    op: ToeplitzOperator,
    window: Window | None = None,
    norm_kind: NormKind | None = None,
) -> Verdict:
    """Hunt a single witness m whose ratio curves plateau for every grading.

    Each candidate m is probed against gradings beyond itself, since those
    are the ones that can refute it.  Nuclearity of the codomain (the
    hypothesis behind the compactness reading of the ratio criterion) is
    checked and attached as a tag.
    """
    win = window or Window()
    kind = norm_kind or default_norm_kind(op)
    pts = _effective_checkpoints(op, win)
    if pts is None:
        return inconclusive("window too short for ratio evidence", win,
                            tags=("oracle",))
    nuclear = nuclearity_verdict(op.codomain, win)
    tags = ["oracle"]
    if pts != win.checkpoints:
        tags.append("finite-window")
    if nuclear.outcome is Outcome.HOLDS:
        tags.append("nuclearity:holds")
    else:
        tags.append(f"hypothesis-unverified:nuclearity-{nuclear.outcome.value}")
    tags = tuple(tags)

    scan = scan_exists(win, _profile_pairs(op, kind, pts), win.k_max, win.m_max,
                       op.codomain.k_limit)
    if scan.outcome is Outcome.HOLDS:
        return holds(UniformCertificate(scan.m, scan.entries), win, tags=tags)
    if scan.outcome is Outcome.INCONCLUSIVE:
        return inconclusive("no uniform witness index settles the ratio curves",
                            win, tags=tags)
    witness = FailureWitness(k=scan.k, best_m=win.m_max,
                             n_range=(pts[-2], pts[-1]), growth_log=scan.growth)
    return fails(witness, win, tags=tags,
                 reason="every witness index leaves a growing ratio curve")


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
