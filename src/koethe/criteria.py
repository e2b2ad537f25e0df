"""Certificate search for weight-domination conditions and operator verdicts.

Every continuity/compactness condition used here is a weight domination
``codomain_weight(n, k) <= C * domain_weight(n, m)`` under one of three
quantifier shapes: for-all-k/exists-m (continuity type), exists-m/for-all-k
(compactness type), or m fixed by a nondecreasing index map S (tameness
type).  Some conditions only constrain n >= k; ``n_start`` records that fine
print.

An operator verdict is the conjunction of the symbol membership check, the
weight condition certificate, and the rule's hypotheses (subadditive growth
of an exponent sequence, nuclearity of the codomain).  Hypotheses are window
certificates reported separately: a verdict is never upgraded to Holds past
an unestablished hypothesis, and a compactness Fails is downgraded to
Inconclusive when the nuclearity hypothesis backing its necessity is not
established.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    NotWellDefinedError,
    UnsupportedCombinationError,
    json_form,
    json_record,
    json_report,
)
from .logdomain import LogValue, log_ratio
from .operators import (
    NormKind,
    Symbol,
    SymbolSpec,
    ToeplitzOperator,
    Variant,
    _profiles,
    _stack,
    _symbol_side,
    _weight_side,
    lower_part,
    membership_in_dual,
    membership_in_space,
    upper_part,
)
from .spaces import (
    GENERAL_KOETHE,
    POWER_SERIES_FINITE,
    POWER_SERIES_INFINITE,
    SpaceDescriptor,
    SubadditivityReport,
    _memo,
    nuclearity_verdict,
    weight_array,
    window_subadditivity,
)
from .verdicts import (
    CompositeCertificate,
    Outcome,
    PointwiseCertificate,
    Shape,
    Sups,
    TameCertificate,
    UniformCertificate,
    Verdict,
    Window,
    conjoin,
    decide,
    scan_fixed_lockstep,
)


class NStart(str, enum.Enum):
    ONE = "one"
    K = "k"


@dataclass(frozen=True)
class SMap:
    """Nondecreasing index map S: k -> m for tameness conditions."""

    form: str
    a: float | None = None
    values: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.values is not None:
            object.__setattr__(self, "values", tuple(self.values))
        if self.form == "identity":
            return
        if self.form == "linear":
            if self.a is None or self.a < 1:
                raise ConfigurationError("linear index map needs factor a >= 1")
        elif self.form == "table":
            vals = self.values
            if not vals or any(v < 1 for v in vals):
                raise ConfigurationError("index map table needs entries >= 1")
            if any(vals[i] > vals[i + 1] for i in range(len(vals) - 1)):
                raise ConfigurationError("index map must be nondecreasing")
        else:
            raise ConfigurationError(f"unknown index map form {self.form!r}")

    @classmethod
    def identity(cls) -> "SMap":
        return cls(form="identity")

    @classmethod
    def linear(cls, a: float) -> "SMap":
        return cls(form="linear", a=float(a))

    @classmethod
    def table(cls, values: Sequence[int]) -> "SMap":
        return cls(form="table", values=tuple(int(v) for v in values))

    def __call__(self, k: int) -> int:
        if k < 1:
            raise ConfigurationError(f"grading index must be >= 1, got {k}")
        if self.form == "identity":
            return k
        if self.form == "linear":
            return max(1, math.ceil(self.a * k - 1e-9))
        if k > len(self.values):
            raise ConfigurationError(
                f"index map table too short for k={k} (length {len(self.values)})"
            )
        return self.values[k - 1]

    to_json = json_record

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "SMap":
        return json_form(data, {
            "identity": (cls.identity, {}),
            "linear": (cls.linear, {"a": "number"}),
            "table": (cls.table, {"values": "integers"}),
        }, "index map")


@dataclass(frozen=True)
class QuantifierCondition:
    """lhs(n, k) <= C * rhs(n, m) under a quantifier shape.

    ``lhs`` is graded by k (the codomain side in operator routes), ``rhs``
    by the witness index m (the domain side).  ``n_start`` selects whether
    the inequality is demanded from n = 1 or only from n = k.
    """

    lhs: SpaceDescriptor
    rhs: SpaceDescriptor
    shape: Shape
    n_start: NStart = NStart.ONE
    s_map: SMap | None = None

    def __post_init__(self):
        if self.shape is Shape.FIXED_MAP and self.s_map is None:
            raise ConfigurationError("fixed-map shape needs an index map")


def weight_domination(
    domain: SpaceDescriptor,
    codomain: SpaceDescriptor,
    shape: Shape,
    n_start: NStart = NStart.ONE,
    s_map: SMap | None = None,
) -> QuantifierCondition:
    """The condition 'codomain weights are dominated by domain weights'."""
    return QuantifierCondition(lhs=codomain, rhs=domain, shape=shape,
                               n_start=n_start, s_map=s_map)


# ---------------------------------------------------------------------------
# the certifier
# ---------------------------------------------------------------------------


def _effective_bounds(cond: QuantifierCondition, win: Window) -> tuple[int, int, int, bool]:
    """The window's bounds clipped to the condition's spaces (see
    :meth:`Window.clip`)."""
    bounds = win.clip(cond.lhs, cond.rhs)
    if bounds[2] < 4:
        raise ConfigurationError(
            "condition window collapsed: tabulated weights too short"
        )
    return bounds


def _check_index_map(s_map: SMap, k_max: int, m_max: int) -> None:
    """The index map must stay inside the witness window up to k_max."""
    over = next((k for k in range(1, k_max + 1) if s_map(k) > m_max), None)
    if over is not None:
        raise ConfigurationError(
            f"index map exceeds the witness window at k={over}: "
            f"S(k)={s_map(over)} > m_max={m_max}"
        )


def _row(space: SpaceDescriptor, k: int, n_max: int) -> tuple[np.ndarray, bool]:
    """The weight row of grading k and whether it is wild: an infinite, NaN
    or huge entry (where a difference may overflow) can make a gap warn or
    meet a zero.  A power series row (a space with an exponent sequence) is
    monotone in n, its exponents being nondecreasing, so its last entry has
    the largest magnitude."""
    arr = weight_array(space, k, n_max)
    top = np.abs(arr).max() if space.alpha is None else abs(arr.item(-1))
    return arr, not top < 2.0 ** 1022


def _gap_sups(
    lhs: Callable[[int], tuple[Sequence[np.ndarray], bool]],
    rhs: Callable[[int], tuple[np.ndarray, bool]],
    widths: Sequence[int],
    starts: Callable[[int], Sequence[int] | None],
    fold: Callable[[np.ndarray], np.ndarray],
) -> Sups:
    """The one sup-pair provider of the certifier and the oracle.  Grading
    k's parts ``lhs(k)``, rows of ``widths``, meet prefixes of witness m's
    row ``rhs(m)``; both carry a wild flag (:func:`_row`), and a gap with a
    wild side goes through :func:`logdomain.log_ratio`.  ``fold`` maps the
    gaps' maxima over the segments from ``starts(k)``, along the last axis,
    to the pair: a pair's one row, or a run's row per grading, and may
    reuse its argument.  Starts of None, from some grading on, mean no
    evidence: a None pair, no row of a run, and no fetch.  Gradings that
    share their starts may share one array of them.  Rows are fetched on
    their first read and kept.  A pair writes its gap into one
    provider-local row.  A run copies its gradings' parts into row k - 1 of
    one matrix (grown by doubling) once, subtracts the witness's prefixes
    laid out as one row, and takes one segmented max: along the rows where
    the run's starts are shared, else over the raveled gaps.  It returns
    the pairs of its gradings up to the last with evidence as one array,
    a row each."""
    bounds = (0, *itertools.accumulate(widths))
    lhs_rows: dict[int, tuple[Sequence[np.ndarray], bool]] = {}
    rhs_rows: dict[int, tuple[np.ndarray, bool]] = {}
    gap = np.empty(bounds[-1])
    segments = [gap[a:b] for a, b in zip(bounds, bounds[1:])]

    def pair(k: int, m: int) -> tuple[LogValue, ...] | None:
        at = starts(k)
        if at is None:
            return None
        parts, lhs_wild = lhs_rows.get(k) or lhs_rows.setdefault(k, lhs(k))
        w, rhs_wild = rhs_rows.get(m) or rhs_rows.setdefault(m, rhs(m))
        for part, segment in zip(parts, segments):
            if lhs_wild or rhs_wild:
                segment[:] = log_ratio(part, w[:len(segment)])
            else:
                np.subtract(part, w[:len(segment)], segment)
        return tuple(fold(np.maximum.reduceat(gap, at)).tolist())

    matrix = np.empty((0, bounds[-1]))
    held: set[int] = set()
    # log_ratio keeps a tame gap's bits: once a wild row is held, runs read it
    wild_held = False
    # the starts of gradings 1, 2, ..., as far as runs have read them
    at_list: list[Sequence[int] | None] = []
    laid = np.empty(bounds[-1])

    def run(ks: range, m: int) -> np.ndarray:
        nonlocal matrix, wild_held
        at_list.extend(map(starts, range(len(at_list) + 1, ks.stop)))
        ats = at_list[ks.start - 1 : ks.stop - 1]
        live = ks[:len(ks) - sum(at is None for at in ats)] if ats and ats[-1] is None else ks
        if not live:
            return np.empty((0, 2))
        for k in live:
            if k not in held:
                if k > len(matrix):
                    grown = np.empty((max(k, 2 * len(matrix)), bounds[-1]))
                    grown[:len(matrix)] = matrix
                    matrix = grown
                parts, wild = lhs_rows.get(k) or lhs_rows.setdefault(k, lhs(k))
                np.concatenate(parts, out=matrix[k - 1])
                held.add(k)
                wild_held = wild_held or wild
        block = matrix[live.start - 1 : live.stop - 1]
        w, wild = rhs_rows.get(m) or rhs_rows.setdefault(m, rhs(m))
        np.concatenate([w[:b - a] for a, b in zip(bounds, bounds[1:])], out=laid)
        gaps = log_ratio(block, laid) if wild or wild_held else block - laid
        if ats[:len(live)].count(ats[0]) == len(live):
            return fold(np.maximum.reduceat(gaps, ats[0], axis=1))
        # each row's segments, and the next row's head up to its first start,
        # which is dropped
        flat = [head + a for head, at in zip(range(0, gaps.size, bounds[-1]), ats)
                for a in (*at, bounds[-1])]
        maxima = np.maximum.reduceat(gaps.ravel(), flat[:-1])
        return fold(np.append(maxima, 0.0).reshape(len(live), -1)[:, :-1])
    return Sups(pair, run)


def _gap_pairs(cond: QuantifierCondition, n_max: int) -> Sups:
    """Scan evidence from the raw weight gaps of the condition, one part per
    grading (:func:`_gap_sups`): the sups from n0 = k or 1 over the half and
    the full window, the latter Python's ``max`` of the two, which drops a
    NaN past the half; from n0 = k, no grading past the half holds any.
    Each (space, grading) row is fetched once, whichever side asks first:
    where lhs and rhs are one space, grading k's row is witness k's."""
    half = n_max // 2
    from_k = cond.n_start is NStart.K
    rows: dict[tuple[SpaceDescriptor, int], tuple[np.ndarray, bool]] = {}

    def row(space: SpaceDescriptor, k: int) -> tuple[np.ndarray, bool]:
        return rows.get((space, k)) or rows.setdefault((space, k), _row(space, k, n_max))

    def lhs(k: int) -> tuple[tuple[np.ndarray], bool]:
        arr, wild = row(cond.lhs, k)
        return (arr,), wild

    def starts(k: int) -> tuple[int, int] | None:
        n0 = k if from_k else 1
        return None if n0 > half else (n0 - 1, half)
    def fold(sups: np.ndarray) -> np.ndarray:
        # the full sup as Python's max(half, rest) takes it: a NaN rest drops
        half, rest = sups[..., :1], sups[..., 1:]
        np.copyto(rest, half, where=~(rest > half))
        return sups
    return _gap_sups(lhs, lambda m: row(cond.rhs, m), (n_max,), starts, fold)


#: reasons of the certifier's verdicts; ``{k}`` is the grading the scan names
_REASONS = {
    (Shape.FORALL_K_EXISTS_M, Outcome.INCONCLUSIVE):
        "gap sup neither settles nor grows for some m at k={k}",
    (Shape.FORALL_K_EXISTS_M, Outcome.FAILS_ON_WINDOW):
        "gap sup grows for every m at k={k}",
    (Shape.EXISTS_M_FORALL_K, Outcome.INCONCLUSIVE):
        "no uniform witness index settles on the window",
    (Shape.EXISTS_M_FORALL_K, Outcome.FAILS_ON_WINDOW):
        "every witness index leaves a growing grading",
    (Shape.FIXED_MAP, Outcome.INCONCLUSIVE): "gap sup drifts at the top grading",
    (Shape.FIXED_MAP, Outcome.FAILS_ON_WINDOW):
        "gap sup grows at the top grading k={k}",
}


def certify(cond: QuantifierCondition, window: Window | None = None) -> Verdict:
    """Search the window for witnesses of the quantifier condition.

    The witness index scan is ascending and the first stabilized constant
    is accepted, so certificates are minimal and reproducible.  A power
    series lhs keeps the verdict under ``("certify", cond, window)`` among
    the facts of its sequence at the clipped n_max (:func:`spaces._memo`);
    a general Köthe lhs is searched on every call.  Only a pair with a wild
    row (:func:`_row`) is read through :func:`logdomain.log_ratio`."""
    win = window or Window()
    k_max, m_max, n_max, clipped = _effective_bounds(cond, win)
    if cond.shape is Shape.FIXED_MAP:
        _check_index_map(cond.s_map, k_max, m_max)

    def search() -> Verdict:
        return decide(cond.shape, win, _gap_pairs(cond, n_max), k_max, m_max,
                      (n_max // 2, n_max), ("finite-window",) if clipped else (),
                      _REASONS, k_limit=cond.lhs.k_limit, s_map=cond.s_map)
    return _memo(cond.lhs.alpha, n_max, ("certify", cond, win), search)


def replay_certificate(
    cond: QuantifierCondition, verdict: Verdict, window: Window | None = None
) -> float:
    """Largest violation (log-units) of a certificate against raw weights.

    Nonpositive means the recorded constants really dominate the window."""
    win = window or Window()
    _, _, n_max, _ = _effective_bounds(cond, win)
    cert = verdict.certificate

    def check(k: int, m: int, log_c: LogValue) -> float:
        n0 = k if cond.n_start is NStart.K else 1
        gap = log_ratio(weight_array(cond.lhs, k, n_max),
                        weight_array(cond.rhs, m, n_max))
        return float(np.max(gap[n0 - 1 : n_max])) - log_c

    if isinstance(cert, PointwiseCertificate):
        entries = [(k, m, c) for k, (m, c) in cert.entries.items()]
    elif isinstance(cert, UniformCertificate):
        entries = [(k, cert.m, c) for k, c in cert.log_c.items()]
    elif isinstance(cert, TameCertificate):
        entries = [(k, cond.s_map(k), c) for k, c in cert.log_c.items()]
    else:
        raise ConfigurationError("verdict carries no replayable certificate")
    return max([-math.inf] + [check(*entry) for entry in entries])


# ---------------------------------------------------------------------------
# operator routing
# ---------------------------------------------------------------------------

CONTINUITY = "continuity"
COMPACTNESS = "compactness"

#: hypothesis names
H_NUCLEAR_COD = "nuclearity:codomain"
H_SUBADD_DOM = "subadditivity:domain-exponent"
H_SUBADD_COD = "subadditivity:codomain-exponent"


@dataclass(frozen=True)
class Rule:
    """The paper's rule for a triangular part: its route, where its weight
    condition starts, its continuity hypotheses (compactness adds
    nuclearity of the codomain) and the tameness index that a fixed-map
    certificate implies, whose None multiplier is M of the rule's space."""

    route_id: str
    n_start: NStart
    hypotheses: tuple[str, ...]
    implied: tuple[str, int | None]


#: the rules, keyed by (direction, kind of the rule's space): a lower part's
#: codomain, an upper part's domain
RULES: dict[tuple[Variant, str], Rule] = {
    (Variant.LOWER, POWER_SERIES_FINITE):
        Rule("lower_to_finite", NStart.ONE, (), ("S", 1)),
    (Variant.LOWER, POWER_SERIES_INFINITE):
        Rule("lower_to_infinite", NStart.K, (H_SUBADD_COD,), ("M*S", None)),
    (Variant.UPPER, POWER_SERIES_INFINITE):
        Rule("upper_from_infinite", NStart.ONE, (H_NUCLEAR_COD,), ("2S", 2)),
    (Variant.UPPER, POWER_SERIES_FINITE):
        Rule("upper_from_finite", NStart.K, (H_SUBADD_DOM,), ("M*S", None)),
}

_NO_RULE = {
    Variant.LOWER: "no rule decides a lower-triangular operator into a general "
                   "Köthe space; a power series codomain is required",
    Variant.UPPER: "no rule decides an upper-triangular operator from a general "
                   "Köthe space; a power series domain is required",
}


def _side(direction: Variant, domain: SpaceDescriptor, codomain: SpaceDescriptor
          ) -> tuple[Callable[..., Verdict], SpaceDescriptor]:
    """The membership check of a triangular direction's rules and the space
    it reads: a lower part's symbol lies in the codomain, an upper part's
    obeys the domain's dual bound."""
    if direction is Variant.LOWER:
        return membership_in_space, codomain
    return membership_in_dual, domain


def _route(direction: Variant, domain: SpaceDescriptor, codomain: SpaceDescriptor
           ) -> tuple[Rule | None, Callable[..., Verdict], SpaceDescriptor]:
    """The rule of a triangular direction between two spaces (None where the
    rule's space is not a power series space), its membership check and space."""
    check, space = _side(direction, domain, codomain)
    return RULES.get((direction, space.kind)), check, space


@dataclass(frozen=True)
class OperatorReport:
    """Verdict plus the separately reported evidence it rests on."""

    verdict: Verdict
    prop: str
    route_id: str
    membership: Verdict | None
    condition: Verdict | None
    hypotheses: Mapping[str, Any]
    window: Window
    parts: Mapping[str, "OperatorReport"] = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    @property
    def outcome(self) -> Outcome:
        return self.verdict.outcome

    JSON_KEYS = {"property": "prop", "outcome": "verdict.outcome",
                 "certificate": "verdict.certificate", "witness": "verdict.witness",
                 "reason": "verdict.reason", "theorem_id": "route_id",
                 "membership": "membership", "condition": "condition",
                 "hypothesis_reports": "hypotheses", "parts": "parts",
                 "notes": "notes", "window": "window"}
    to_json = json_report


def _hypothesis_outcome(report: Any) -> Outcome:
    if isinstance(report, Verdict):
        return report.outcome
    if isinstance(report, SubadditivityReport):
        # a missing window constant does not witness asymptotic failure
        return Outcome.HOLDS if report.holds else Outcome.INCONCLUSIVE
    raise TypeError(f"unknown hypothesis report type {type(report)!r}")


#: hypothesis name -> its window report on the operator's spaces
_HYPOTHESES = {
    H_NUCLEAR_COD: lambda op, win: nuclearity_verdict(op.codomain, win),
    H_SUBADD_COD: lambda op, win: window_subadditivity(op.codomain, win),
    H_SUBADD_DOM: lambda op, win: window_subadditivity(op.domain, win),
}


def _triangular_report(op: ToeplitzOperator, prop: str, win: Window) -> OperatorReport:
    rule, check, space = _route(op.variant, op.domain, op.codomain)
    if rule is None:
        raise UnsupportedCombinationError(_NO_RULE[op.variant])
    membership = check(getattr(op.symbol, op.variant.value), space, win)
    compact = prop == COMPACTNESS
    shape = Shape.EXISTS_M_FORALL_K if compact else Shape.FORALL_K_EXISTS_M
    condition = certify(
        weight_domination(op.domain, op.codomain, shape, rule.n_start), win
    )
    names = rule.hypotheses
    if compact and H_NUCLEAR_COD not in names:
        names += (H_NUCLEAR_COD,)
    hyps = {name: _HYPOTHESES[name](op, win) for name in names}
    hyp_outcomes = [_hypothesis_outcome(r) for r in hyps.values()]
    hyps_ok = all(o is Outcome.HOLDS for o in hyp_outcomes)

    core = conjoin(membership.outcome, condition.outcome)
    notes: list[str] = []
    if core is Outcome.HOLDS:
        overall = Outcome.HOLDS if hyps_ok else Outcome.INCONCLUSIVE
        if not hyps_ok:
            notes.append("all checks hold but a rule hypothesis is unestablished")
    elif core is Outcome.FAILS_ON_WINDOW:
        overall = Outcome.FAILS_ON_WINDOW
        nuclear = hyps.get(H_NUCLEAR_COD)
        if (compact
                and membership.outcome is not Outcome.FAILS_ON_WINDOW
                and nuclear is not None
                and _hypothesis_outcome(nuclear) is not Outcome.HOLDS):
            # the necessity direction for compactness rests on nuclearity
            overall = Outcome.INCONCLUSIVE
            notes.append("condition violated but nuclearity of the codomain "
                         "is unverified; failure not asserted")
    else:
        overall = Outcome.INCONCLUSIVE

    verdict = Verdict(
        outcome=overall,
        certificate=condition.certificate if overall is Outcome.HOLDS else None,
        witness=((membership.witness or condition.witness)
                 if overall is Outcome.FAILS_ON_WINDOW else None),
        reason=(membership.reason if membership.outcome is not Outcome.HOLDS
                else condition.reason),
        window=win,
    )
    return OperatorReport(
        verdict=verdict, prop=prop, route_id=rule.route_id,
        membership=membership, condition=condition, hypotheses=hyps,
        window=win, notes=tuple(notes),
    )


def _report(op: ToeplitzOperator, prop: str, win: Window) -> OperatorReport:
    """The operator's report for one property; a full operator's is the
    conjunction of its triangular parts' reports."""
    if op.variant is not Variant.FULL:
        return _triangular_report(op, prop, win)
    dom, cod = op.domain.kind, op.codomain.kind
    if dom == POWER_SERIES_FINITE and cod == POWER_SERIES_INFINITE:
        raise NotWellDefinedError(
            "a full Toeplitz operator is not well defined from a finite-type "
            "into an infinite-type power series space"
        )
    if dom == GENERAL_KOETHE or cod == GENERAL_KOETHE:
        raise UnsupportedCombinationError(
            "full-variant verdicts need power series spaces on both sides"
        )
    low = _triangular_report(lower_part(op), prop, win)
    up = _triangular_report(upper_part(op), prop, win)
    overall = conjoin(low.outcome, up.outcome)
    certificate = None
    if overall is Outcome.HOLDS:
        certificate = CompositeCertificate(low.verdict.certificate,
                                           up.verdict.certificate)
    failing = next((r for r in (low, up)
                    if r.outcome is Outcome.FAILS_ON_WINDOW), None)
    verdict = Verdict(
        outcome=overall,
        certificate=certificate,
        witness=failing.verdict.witness if failing else None,
        reason=failing.verdict.reason if failing else None,
        window=win,
    )
    hyps = {**low.hypotheses, **up.hypotheses}
    return OperatorReport(
        verdict=verdict, prop=prop, route_id="full:{}->{}".format(
            *(kind.removeprefix("power_series_") for kind in (dom, cod))),
        membership=None, condition=None, hypotheses=hyps, window=win,
        parts={"lower": low, "upper": up},
        notes=("full-variant verdict is the conjunction of its triangular parts",),
    )


def continuity_verdict(
    op: ToeplitzOperator, window: Window | None = None
) -> OperatorReport:
    """Route the operator to its continuity rule and certify it."""
    return _report(op, CONTINUITY, window or Window())


def compactness_verdict(
    op: ToeplitzOperator, window: Window | None = None
) -> OperatorReport:
    """Route the operator to its compactness rule and certify it."""
    return _report(op, COMPACTNESS, window or Window())


def default_norm_kind(op: ToeplitzOperator | OperatorTemplate) -> NormKind:
    """Norm form matching the proofs behind each route: sum norms for
    lower-triangular work, sup norms for upper-triangular work.  Reads only
    the variant and the codomain, so an operator template serves too."""
    if op.variant is Variant.UPPER:
        return NormKind.SUP
    if op.variant is Variant.FULL and op.codomain.kind == POWER_SERIES_INFINITE:
        return NormKind.SUP
    return NormKind.SUM


# ---------------------------------------------------------------------------
# tameness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorTemplate:
    """Operator family skeleton: everything but the symbol."""

    variant: Variant
    domain: SpaceDescriptor
    codomain: SpaceDescriptor

    def build(self, spec: SymbolSpec, second: SymbolSpec | None = None
              ) -> ToeplitzOperator:
        if self.variant is Variant.LOWER:
            sym = Symbol(lower=spec)
        elif self.variant is Variant.UPPER:
            sym = Symbol(upper=spec)
        else:
            sym = Symbol(lower=spec, upper=second)
        return ToeplitzOperator(sym, self.variant, self.domain, self.codomain)

    to_json = json_record


@dataclass(frozen=True)
class FamilySpec:
    """Named random family of one-sided symbols.

    Samples must pass the membership check of the rule of the part they
    feed (:func:`_side`); offenders are resampled a bounded number of times.
    """

    sampler: str = "geometric"
    count: int = 50
    seed: int = 0
    r_min: float = 0.05
    r_max: float = 0.9
    signed: bool = False

    def __post_init__(self):
        if self.sampler != "geometric":
            raise ConfigurationError(f"unknown sampler {self.sampler!r}")
        if self.count < 1:
            raise ConfigurationError("family count must be >= 1")
        if self.seed < 0:
            raise ConfigurationError("family seed must be >= 0")
        if not 0.0 <= self.r_min <= self.r_max:
            raise ConfigurationError("need 0 <= r_min <= r_max")

    to_json = json_record

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "FamilySpec":
        kinds = {"sampler": "string", "count": "integer", "seed": "integer",
                 "r_min": "number", "r_max": "number", "signed": "boolean"}
        return json_form(data, {None: (cls, kinds)}, "family", tag=None,
                         optional=tuple(kinds))


def _sample_family(
    family: FamilySpec,
    direction: Variant,
    template: OperatorTemplate,
    win: Window,
    rng: np.random.Generator,
) -> list[SymbolSpec]:
    check, space = _side(direction, template.domain, template.codomain)
    out: list[SymbolSpec] = []
    attempts = 0
    max_attempts = family.count * 20
    while len(out) < family.count:
        if attempts >= max_attempts:
            raise ConfigurationError(
                f"family sampling exhausted {max_attempts} attempts before "
                f"collecting {family.count} members passing the "
                f"{direction.value} part's membership"
            )
        attempts += 1
        r = float(rng.uniform(family.r_min, family.r_max))
        if family.signed and rng.integers(2):
            r = -r
        spec = SymbolSpec.geometric(r)
        if check(spec, space, win).outcome is Outcome.HOLDS:
            out.append(spec)
    return out


@dataclass(frozen=True)
class TameSample:
    spec: SymbolSpec
    status: Outcome
    k0: int | None
    log_c: LogValue | None

    JSON_KEYS = {"symbol": "spec", "status": "status", "k0": "k0", "log_c": "log_c"}
    to_json = json_report


@dataclass(frozen=True)
class TamenessReport:
    verdict: Verdict
    s_map: SMap
    samples: tuple[TameSample, ...]

    @property
    def outcome(self) -> Outcome:
        return self.verdict.outcome

    JSON_KEYS = {"outcome": "verdict.outcome", "reason": "verdict.reason",
                 "s_map": "s_map", "samples": "samples", "window": "verdict.window"}
    to_json = json_report


#: below this magnitude, symbol logs and weights let a tameness sup pair
#: choose its columns (:func:`_range_facts`)
_TAME_LOG = 2.0 ** 40


def _tame(arr: np.ndarray) -> bool:
    """Every entry is log-zero or below _TAME_LOG in magnitude."""
    return bool((np.isneginf(arr) | (np.abs(arr) < _TAME_LOG)).all())


def _range_facts(domain: SpaceDescriptor, codomain: SpaceDescriptor, k: int, m: int,
                 direction: int, n_max: int
                 ) -> tuple[list[list[float]], np.ndarray, np.ndarray] | None:
    """The weight facts from which the tameness sup pairs of grading k and
    witness m choose their columns (:func:`_pair_columns`) for a run in
    ``direction``, kept among the facts of the domain's sequence at n_max
    (:func:`spaces._memo`), so a family builds them once.

    A group of members reads its stack through four scalars per run: the
    smallest u[0] and u[1], u_sufmax[0] and i_top.  Column n's log norm is
    at least u[0] + v and u[1] + the weight of its second row (n + 1 below
    the diagonal, n - 1 above), and at most u_sufmax[0] + reach, the
    largest weight from its first row on, plus log(Σ i_top) in a sum.  With
    v the codomain weights and w the domain row, the facts are the half and
    rest maxima of v - w and of the second row's weights minus w, and
    h = reach - w as its prefix max and its negated suffix max per segment,
    where ``searchsorted`` finds the first and the last column at which h
    reaches a threshold.

    The facts add u[0] to v - w where the kernel adds u[0] + v and the gap
    subtracts w.  So they exist only where v is log-zero or below 2^40 in
    magnitude and w is finite and below 2^40 (None otherwise), and a group
    reads them only where its symbol logs are tame likewise.  Every sum is
    then below 2^43 in magnitude and rounds by at most 2^-11; the few such
    roundings that part a pair's thresholds from the real bounds, the
    kernel's own included, stay below 2^-8, and the upper bound's margin of
    1 covers them: no column that attains the pair is left out."""
    def build() -> tuple[list[list[float]], np.ndarray, np.ndarray] | None:
        v = weight_array(codomain, k, n_max)
        w = weight_array(domain, m, n_max)
        if not (_tame(v) and np.abs(w).max() < _TAME_LOG):
            return None
        nxt, own = (slice(1, None), slice(None, -1))[::direction]
        second = np.full(n_max, -np.inf)
        second[own] = v[nxt]
        half = n_max // 2
        heads = np.maximum.reduceat(np.stack([v - w, second - w]), (0, half), axis=1)
        # v_reach is in walk order
        h = _weight_side(codomain, k, n_max, direction).v_reach[:n_max][::direction] - w
        first, last = np.empty(n_max), np.empty(n_max)
        for seg in (slice(0, half), slice(half, n_max)):
            first[seg] = np.maximum.accumulate(h[seg])
            last[seg] = -np.maximum.accumulate(h[seg][::-1])[::-1]
        first.flags.writeable = last.flags.writeable = False
        return heads.tolist(), first, last
    return _memo(domain.alpha, n_max,
                 ("range facts", domain.kind, m, codomain, k, direction), build)


def _pair_columns(stack: list, facts: list[tuple], norm_kind: NormKind, n_max: int
                  ) -> tuple[int, int] | None:
    """The column range [c0, c1) of every column whose gap can reach the sup
    pair over n >= 1 of some member of ``stack`` (:func:`operators._stack`),
    from each run's smallest u[0] and u[1], its largest u_sufmax[0] and
    facts (:func:`_range_facts`), with a slack of log(Σ i_top) in a sum plus
    the margin of 1; None for all columns.  A column of the half window is
    kept where its upper gap reaches the best lower gap of the half, any
    other where it reaches the best of the full window.  The thresholds are
    monotone in each scalar, so the range holds every member's own."""
    half = n_max // 2
    slack = (math.log(max(sum(run.i_top for run in stack), 1))
             if norm_kind is NormKind.SUM else 0.0) + 1.0
    best_half = best_rest = -math.inf
    for run, (((g0_half, g0_rest), (g1_half, g1_rest)), _, _) in zip(stack, facts):
        u0, u1 = run.u[:, :2].min(axis=0).tolist()
        best_half = max(best_half, u0 + g0_half, u1 + g1_half)
        best_rest = max(best_rest, u0 + g0_rest, u1 + g1_rest)
    if best_half == -math.inf:
        return None
    best_full = max(best_half, best_rest)
    c0, c1 = n_max, 0
    for run, (_, first, last) in zip(stack, facts):
        if run.u_sufmax[0] == -math.inf:
            continue
        t_half, t_full = (best - run.u_sufmax[0] - slack for best in (best_half, best_full))
        i = int(first[:half].searchsorted(t_half))
        if i == half:
            i += int(first[half:].searchsorted(t_full))
        j = half + int(last[half:].searchsorted(-t_full, "right"))
        if j == half:
            j = int(last[:half].searchsorted(-t_half, "right"))
        c0, c1 = min(c0, i), max(c1, j)
    return (c0, c1) if 0 < c1 - c0 < n_max else None


#: the most members whose scans run in lock-step: it bounds the memory that
#: their symbol sides and stacked walks hold at once
_GROUP = 16


def _sample_tameness(
    ops: Sequence[ToeplitzOperator], s_map: SMap, win: Window, norm_kind: NormKind,
    k_max: int, n_max: int,
) -> list[tuple[Outcome, int | None, LogValue | None]]:
    """For each of at most _GROUP members of a family: the smallest
    k0 <= k_max with a stabilized uniform constant for all k >= k0, on the
    clipped truncation n_max.

    The members' scans run in lock-step (:func:`verdicts.scan_fixed_lockstep`).
    A member's symbol side is built once, before the scans, and each
    grading's weight sides are shared by the family
    (:func:`operators._weight_side`); every walk is a
    :func:`operators._profiles` call on them.  At each grading the live
    members whose symbol logs are tame, where the family has range facts
    for the weights (:func:`_range_facts`), walk the one column range that
    holds every column that can attain one of their pairs
    (:func:`_pair_columns`), in stacks no wider than one member's
    all-columns walk, each of which reduces its gaps in one pass.  Every
    other member walks alone, on all columns.  Either way each pair has
    the full profile's bits (:func:`operators._walk`)."""
    if n_max < 2:
        return [(Outcome.INCONCLUSIVE, None, None)] * len(ops)
    domain, codomain = ops[0].domain, ops[0].codomain
    sides = [_symbol_side(op, n_max) for op in ops]
    tame = [all(_tame(run.u) for run in runs) for runs in sides]
    half = n_max // 2

    @lru_cache(maxsize=1)
    def stacked(members: tuple[int, ...]) -> list:
        """The members' symbol sides as one stack, kept while the next
        grading walks the same members."""
        return _stack([sides[i] for i in members])

    def sup_pairs(k: int, m: int, live: list[int]) -> list[tuple[LogValue, LogValue]]:
        facts = [_range_facts(domain, codomain, k, m, run.direction, n_max)
                 for run in sides[0]]
        group = tuple(i for i in live if tame[i]) if None not in facts else ()
        weights, wild = _row(domain, m, n_max)
        weight_sides = [_weight_side(codomain, k, n_max, run.direction)
                        for run in sides[0]]
        # alone, a member walks its own side, a stack of one, past the cache
        walks = [((i,), sides[i], None) for i in live if i not in group]
        if group:
            cols = _pair_columns(stacked(group), facts, norm_kind, n_max)
            # no stack's block is wider than one member's all-columns walk
            size = n_max // (cols[1] - cols[0]) if cols else 1
            # a chunk of one walks its own side, so the cache keeps the group
            chunks = [group[g : g + size] for g in range(0, len(group), size)]
            walks += [(chunk, stacked(chunk) if len(chunk) > 1 else sides[chunk[0]],
                       cols) for chunk in chunks]
        pairs = {}
        for members, runs, cols in walks:
            c0, c1 = cols or (0, n_max)
            profiles = _profiles(runs, weight_sides, n_max, norm_kind, cols)
            split = min(max(half - c0, 0), c1 - c0)
            # a member alone may overflow; a wild row reads a zero column
            # norm as -inf against any weight (log_ratio)
            with np.errstate(over="ignore"):
                gap = (log_ratio(profiles, weights[c0:c1]) if wild
                       else profiles - weights[c0:c1])
            sups = (gap[:, :split].max(axis=1, initial=-np.inf).tolist(),
                    gap[:, split:].max(axis=1, initial=-np.inf).tolist())
            for i, sup_half, sup_rest in zip(members, *sups):
                pairs[i] = sup_half, max(sup_half, sup_rest)
        return [pairs[i] for i in live]

    return [(Outcome.HOLDS, min(scan.entries), max(scan.entries.values()))
            if scan.outcome is Outcome.HOLDS else (scan.outcome, None, None)
            for scan in scan_fixed_lockstep(win, sup_pairs, len(ops), k_max, s_map)]


def tameness_check(
    family: FamilySpec,
    s_map: SMap,
    template: OperatorTemplate,
    window: Window | None = None,
) -> TamenessReport:
    """Sample the family and certify the uniform column-norm estimate
    ||T e_n||_k <= C ||e_n||_{S(k)} for k beyond a per-member threshold."""
    win = window or Window()
    k_max, m_max, n_max, _ = win.clip(template.codomain, template.domain)
    _check_index_map(s_map, k_max, m_max)
    rng = np.random.default_rng(family.seed)
    # a full family draws its lower parts first
    parts = ((Variant.LOWER, Variant.UPPER) if template.variant is Variant.FULL
             else (template.variant,))
    members = list(zip(*(_sample_family(family, part, template, win, rng)
                         for part in parts)))
    norm_kind = default_norm_kind(template)
    ops = [template.build(*member) for member in members]
    results = [result for g in range(0, len(ops), _GROUP)
               for result in _sample_tameness(ops[g : g + _GROUP], s_map, win,
                                              norm_kind, k_max, n_max)]
    samples = [TameSample(member[0], *result)
               for member, result in zip(members, results)]
    outcomes = [s.status for s in samples]
    overall = conjoin(*outcomes)
    failing = next((i for i, s in enumerate(samples)
                    if s.status is not Outcome.HOLDS), None)
    verdict = Verdict(
        outcome=overall,
        reason=None if failing is None else f"sample {failing} does not "
                                            f"admit a stabilized constant",
        window=win,
    )
    return TamenessReport(verdict=verdict, s_map=s_map, samples=tuple(samples))


@dataclass(frozen=True)
class ImpliedTameness:
    """Family tameness index implied by a fixed-map weight certificate."""

    factor: str  # "S" | "2S" | "M*S"
    multiplier: int | None

    to_json = json_report


@dataclass(frozen=True)
class TameConditionReport:
    verdict: Verdict
    implied: ImpliedTameness | None
    subadditivity: SubadditivityReport | None

    JSON_KEYS = {"verdict": "verdict", "implied_tameness": "implied",
                 "subadditivity": "subadditivity"}
    to_json = json_report


def tame_condition_certify(
    s_map: SMap,
    domain: SpaceDescriptor,
    codomain: SpaceDescriptor,
    variant_direction: Variant,
    window: Window | None = None,
) -> TameConditionReport:
    """Certify the fixed-map weight domination and report which uniform
    tameness index (S, 2S, or M*S) it buys the corresponding family."""
    win = window or Window()
    if variant_direction is Variant.FULL:
        raise ConfigurationError(
            "tame conditions are certified per triangular direction"
        )
    verdict = certify(
        weight_domination(domain, codomain, Shape.FIXED_MAP,
                          NStart.ONE, s_map), win
    )
    implied = None
    subadd = None
    rule, _, space = _route(variant_direction, domain, codomain)
    if verdict.outcome is Outcome.HOLDS and rule is not None:
        factor, multiplier = rule.implied
        if multiplier is None:
            subadd = window_subadditivity(space, win)
            multiplier = subadd.m
        implied = ImpliedTameness(factor, multiplier)
    return TameConditionReport(verdict=verdict, implied=implied,
                               subadditivity=subadd)
