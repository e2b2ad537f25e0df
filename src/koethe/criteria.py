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
import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    NotWellDefinedError,
    UnsupportedCombinationError,
    json_fields,
    json_form,
    json_record,
)
from .logdomain import LogValue
from .operators import (
    NormKind,
    Symbol,
    SymbolSpec,
    ToeplitzOperator,
    Variant,
    column_norm_profile,
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
    nuclearity_verdict,
    weight_array,
    window_subadditivity,
)
from .verdicts import (
    CompositeCertificate,
    Outcome,
    PointwiseCertificate,
    Shape,
    SupPair,
    TameCertificate,
    UniformCertificate,
    Verdict,
    Window,
    conjoin,
    decide,
    scan_fixed,
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


def _gap(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    # zero lhs weight satisfies any bound; zero rhs weight under a nonzero
    # lhs cannot be dominated at any constant; a gap past float range is +-inf
    with np.errstate(invalid="ignore", over="ignore"):
        gap = lhs - rhs
    return np.where(np.isneginf(lhs), -np.inf, gap)


def _sup_pair(
    lhs: np.ndarray, zero: np.ndarray | None, rhs: np.ndarray, n0: int, n_max: int
) -> tuple[LogValue, LogValue]:
    """Sups of ``lhs - rhs`` from n0 <= n_max // 2 over the half and the full
    window, with ``-inf`` wherever ``zero`` marks a zero lhs weight (see
    :func:`_gap`)."""
    with np.errstate(invalid="ignore", over="ignore"):
        gap = lhs - rhs
    if zero is not None:
        gap[zero] = -np.inf
    sup_half, sup_rest = np.maximum.reduceat(gap, (n0 - 1, n_max // 2))
    sup_half = float(sup_half)
    return sup_half, max(sup_half, float(sup_rest))


def _gap_pairs(cond: QuantifierCondition, n_max: int) -> SupPair:
    """Scan evidence from the raw weight gaps of the condition.  A scan
    fetches each grading's and each witness's weight row once, on its
    first pair, and keeps it for the scan's other pairs."""
    from_k = cond.n_start is NStart.K
    lhs_rows: dict[int, tuple[np.ndarray, np.ndarray | None]] = {}
    rhs_rows: dict[int, np.ndarray] = {}

    def sup_pair(k: int, m: int) -> tuple[LogValue, LogValue] | None:
        n0 = k if from_k else 1
        if n0 > n_max // 2:
            return None
        lhs = lhs_rows.get(k)
        if lhs is None:
            row = weight_array(cond.lhs, k, n_max)
            zero = np.isneginf(row)
            lhs = lhs_rows[k] = (row, zero if zero.any() else None)
        rhs = rhs_rows.get(m)
        if rhs is None:
            rhs = rhs_rows[m] = weight_array(cond.rhs, m, n_max)
        return _sup_pair(*lhs, rhs, n0, n_max)
    return sup_pair


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
    is accepted, so certificates are minimal and reproducible.
    """
    win = window or Window()
    k_max, m_max, n_max, clipped = _effective_bounds(cond, win)
    if cond.shape is Shape.FIXED_MAP:
        _check_index_map(cond.s_map, k_max, m_max)
    return decide(cond.shape, win, _gap_pairs(cond, n_max), k_max, m_max,
                  (n_max // 2, n_max), ("finite-window",) if clipped else (),
                  _REASONS, k_limit=cond.lhs.k_limit, s_map=cond.s_map)


def replay_certificate(
    cond: QuantifierCondition, verdict: Verdict, window: Window | None = None
) -> float:
    """Largest violation (log-units) of a certificate against raw weights.

    Nonpositive means the recorded constants really dominate the window."""
    win = window or Window()
    _, _, n_max, _ = _effective_bounds(cond, win)
    cert = verdict.certificate
    worst = -math.inf

    def check(k: int, m: int, log_c: LogValue) -> float:
        n0 = k if cond.n_start is NStart.K else 1
        gap = _gap(weight_array(cond.lhs, k, n_max),
                   weight_array(cond.rhs, m, n_max))
        return float(np.max(gap[n0 - 1 : n_max])) - log_c

    if isinstance(cert, PointwiseCertificate):
        for k, (m, log_c) in cert.entries.items():
            worst = max(worst, check(k, m, log_c))
    elif isinstance(cert, UniformCertificate):
        for k, log_c in cert.log_c.items():
            worst = max(worst, check(k, cert.m, log_c))
    elif isinstance(cert, TameCertificate):
        for k, log_c in cert.log_c.items():
            worst = max(worst, check(k, cond.s_map(k), log_c))
    else:
        raise ConfigurationError("verdict carries no replayable certificate")
    return worst


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
class Route:
    route_id: str
    membership: str  # "codomain_space" | "domain_dual"
    n_start: NStart
    hypotheses: tuple[str, ...]


def _route(op: ToeplitzOperator, prop: str) -> Route:
    dom, cod = op.domain.kind, op.codomain.kind
    compact = prop == COMPACTNESS
    if op.variant is Variant.LOWER:
        if cod == POWER_SERIES_FINITE:
            hyps = (H_NUCLEAR_COD,) if compact else ()
            return Route("lower_to_finite", "codomain_space", NStart.ONE, hyps)
        if cod == POWER_SERIES_INFINITE:
            hyps = (H_SUBADD_COD, H_NUCLEAR_COD) if compact else (H_SUBADD_COD,)
            return Route("lower_to_infinite", "codomain_space", NStart.K, hyps)
        raise UnsupportedCombinationError(
            "no rule decides a lower-triangular operator into a general "
            "Köthe space; a power series codomain is required"
        )
    if op.variant is Variant.UPPER:
        if dom == POWER_SERIES_INFINITE:
            return Route("upper_from_infinite", "domain_dual", NStart.ONE,
                         (H_NUCLEAR_COD,))
        if dom == POWER_SERIES_FINITE:
            hyps = (H_SUBADD_DOM, H_NUCLEAR_COD) if compact else (H_SUBADD_DOM,)
            return Route("upper_from_finite", "domain_dual", NStart.K, hyps)
        raise UnsupportedCombinationError(
            "no rule decides an upper-triangular operator from a general "
            "Köthe space; a power series domain is required"
        )
    # full variant routing is resolved by its triangular parts
    if dom == POWER_SERIES_FINITE and cod == POWER_SERIES_INFINITE:
        raise NotWellDefinedError(
            "a full Toeplitz operator is not well defined from a finite-type "
            "into an infinite-type power series space"
        )
    if dom == GENERAL_KOETHE or cod == GENERAL_KOETHE:
        raise UnsupportedCombinationError(
            "full-variant verdicts need power series spaces on both sides"
        )
    return Route(f"full:{_short(dom)}->{_short(cod)}", "both", NStart.ONE, ())


def _short(kind: str) -> str:
    return {POWER_SERIES_FINITE: "finite", POWER_SERIES_INFINITE: "infinite"}[kind]


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

    def to_json(self) -> dict[str, Any]:
        return {
            "property": self.prop,
            "outcome": self.verdict.outcome.value,
            "certificate": (self.verdict.certificate.to_json()
                            if self.verdict.certificate else None),
            "witness": (self.verdict.witness.to_json()
                        if self.verdict.witness else None),
            "reason": self.verdict.reason,
            "theorem_id": self.route_id,
            "membership": self.membership.to_json() if self.membership else None,
            "condition": self.condition.to_json() if self.condition else None,
            "hypothesis_reports": {
                name: rep.to_json() for name, rep in sorted(self.hypotheses.items())
            },
            "parts": {name: rep.to_json() for name, rep in self.parts.items()},
            "notes": list(self.notes),
            "window": self.window.to_json(),
        }


def _hypothesis_outcome(report: Any) -> Outcome:
    if isinstance(report, Verdict):
        return report.outcome
    if isinstance(report, SubadditivityReport):
        # a missing window constant does not witness asymptotic failure
        return Outcome.HOLDS if report.holds else Outcome.INCONCLUSIVE
    raise TypeError(f"unknown hypothesis report type {type(report)!r}")


def _evaluate_hypotheses(
    op: ToeplitzOperator, route: Route, win: Window
) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for name in route.hypotheses:
        if name == H_NUCLEAR_COD:
            out[name] = nuclearity_verdict(op.codomain, win)
        elif name == H_SUBADD_COD:
            out[name] = window_subadditivity(op.codomain, win)
        elif name == H_SUBADD_DOM:
            out[name] = window_subadditivity(op.domain, win)
    return out


def _triangular_report(op: ToeplitzOperator, prop: str, win: Window) -> OperatorReport:
    route = _route(op, prop)
    if route.membership == "codomain_space":
        membership = membership_in_space(op.symbol.lower, op.codomain, win)
    else:
        membership = membership_in_dual(op.symbol.upper, op.domain, win)
    shape = (Shape.EXISTS_M_FORALL_K if prop == COMPACTNESS
             else Shape.FORALL_K_EXISTS_M)
    condition = certify(
        weight_domination(op.domain, op.codomain, shape, route.n_start), win
    )
    hyps = _evaluate_hypotheses(op, route, win)
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
        if (prop == COMPACTNESS
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
        verdict=verdict, prop=prop, route_id=route.route_id,
        membership=membership, condition=condition, hypotheses=hyps,
        window=win, notes=tuple(notes),
    )


def _full_report(op: ToeplitzOperator, prop: str, win: Window) -> OperatorReport:
    route = _route(op, prop)  # raises for ill-defined / unsupported pairs
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
        verdict=verdict, prop=prop, route_id=route.route_id,
        membership=None, condition=None, hypotheses=hyps, window=win,
        parts={"lower": low, "upper": up},
        notes=("full-variant verdict is the conjunction of its triangular parts",),
    )


def continuity_verdict(
    op: ToeplitzOperator, window: Window | None = None
) -> OperatorReport:
    """Route the operator to its continuity rule and certify it."""
    win = window or Window()
    if op.variant is Variant.FULL:
        return _full_report(op, CONTINUITY, win)
    return _triangular_report(op, CONTINUITY, win)


def compactness_verdict(
    op: ToeplitzOperator, window: Window | None = None
) -> OperatorReport:
    """Route the operator to its compactness rule and certify it."""
    win = window or Window()
    if op.variant is Variant.FULL:
        return _full_report(op, COMPACTNESS, win)
    return _triangular_report(op, COMPACTNESS, win)


def default_norm_kind(op: ToeplitzOperator) -> NormKind:
    """Norm form matching the proofs behind each route: sum norms for
    lower-triangular work, sup norms for upper-triangular work."""
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

    Samples must pass the membership constraint of the operator route they
    feed ("auto": codomain space for lower parts, domain dual for upper
    parts); offenders are resampled a bounded number of times.
    """

    sampler: str = "geometric"
    count: int = 50
    seed: int = 0
    r_min: float = 0.05
    r_max: float = 0.9
    signed: bool = False
    constraint: str = "auto"

    def __post_init__(self):
        if self.sampler != "geometric":
            raise ConfigurationError(f"unknown sampler {self.sampler!r}")
        if self.count < 1:
            raise ConfigurationError("family count must be >= 1")
        if self.seed < 0:
            raise ConfigurationError("family seed must be >= 0")
        if not 0.0 <= self.r_min <= self.r_max:
            raise ConfigurationError("need 0 <= r_min <= r_max")
        if self.constraint not in ("auto", "space", "dual"):
            raise ConfigurationError(f"unknown constraint {self.constraint!r}")

    to_json = json_record

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "FamilySpec":
        kinds = {"sampler": "string", "count": "integer", "seed": "integer",
                 "r_min": "number", "r_max": "number", "signed": "boolean",
                 "constraint": "string"}
        return cls(**json_fields(data, kinds, "family"))


def _sample_family(
    family: FamilySpec,
    constraint: str,
    space: SpaceDescriptor,
    win: Window,
    rng: np.random.Generator,
) -> list[SymbolSpec]:
    out: list[SymbolSpec] = []
    attempts = 0
    max_attempts = family.count * 20
    while len(out) < family.count:
        if attempts >= max_attempts:
            raise ConfigurationError(
                f"family sampling exhausted {max_attempts} attempts before "
                f"collecting {family.count} members passing the "
                f"{constraint} membership"
            )
        attempts += 1
        r = float(rng.uniform(family.r_min, family.r_max))
        if family.signed and rng.integers(2):
            r = -r
        spec = SymbolSpec.geometric(r)
        check = (membership_in_space(spec, space, win) if constraint == "space"
                 else membership_in_dual(spec, space, win))
        if check.outcome is Outcome.HOLDS:
            out.append(spec)
    return out


@dataclass(frozen=True)
class TameSample:
    spec: SymbolSpec
    status: Outcome
    k0: int | None
    log_c: LogValue | None

    def to_json(self) -> dict[str, Any]:
        return {"symbol": self.spec.to_json(), "status": self.status.value,
                "k0": self.k0, "log_c": self.log_c}


@dataclass(frozen=True)
class TamenessReport:
    verdict: Verdict
    s_map: SMap
    samples: tuple[TameSample, ...]

    @property
    def outcome(self) -> Outcome:
        return self.verdict.outcome

    def to_json(self) -> dict[str, Any]:
        return {
            "outcome": self.verdict.outcome.value,
            "reason": self.verdict.reason,
            "s_map": self.s_map.to_json(),
            "samples": [s.to_json() for s in self.samples],
            "window": self.verdict.window.to_json() if self.verdict.window else None,
        }


def _sample_tameness(
    op: ToeplitzOperator, s_map: SMap, win: Window, norm_kind: NormKind,
    k_max: int, n_max: int,
) -> tuple[Outcome, int | None, LogValue | None]:
    """Smallest k0 <= k_max with a stabilized uniform constant for all
    k >= k0, on the clipped truncation n_max."""
    if n_max < 2:
        return Outcome.INCONCLUSIVE, None, None

    def sup_pair(k: int, m: int) -> tuple[LogValue, LogValue]:
        return _sup_pair(column_norm_profile(op, k, n_max, norm_kind), None,
                         weight_array(op.domain, m, n_max), 1, n_max)

    scan = scan_fixed(win, sup_pair, k_max, s_map)
    if scan.outcome is Outcome.HOLDS:
        return Outcome.HOLDS, min(scan.entries), max(scan.entries.values())
    return scan.outcome, None, None


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
    if template.variant is Variant.FULL:
        lows = _sample_family(family, "space", template.codomain, win, rng)
        ups = _sample_family(family, "dual", template.domain, win, rng)
        members = [(lo, up) for lo, up in zip(lows, ups)]
    elif template.variant is Variant.LOWER:
        kind = "space" if family.constraint in ("auto", "space") else "dual"
        space = template.codomain if kind == "space" else template.domain
        members = [(s, None) for s in _sample_family(family, kind, space, win, rng)]
    else:
        kind = "dual" if family.constraint in ("auto", "dual") else "space"
        space = template.domain if kind == "dual" else template.codomain
        members = [(s, None) for s in _sample_family(family, kind, space, win, rng)]

    norm_kind = default_norm_kind(template.build(SymbolSpec.delta(),
                                                 SymbolSpec.delta()))
    samples: list[TameSample] = []
    for spec, second in members:
        op = template.build(spec, second)
        status, k0, log_c = _sample_tameness(op, s_map, win, norm_kind,
                                             k_max, n_max)
        samples.append(TameSample(spec, status, k0, log_c))
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

    def to_json(self) -> dict[str, Any]:
        return {"factor": self.factor, "multiplier": self.multiplier}


@dataclass(frozen=True)
class TameConditionReport:
    verdict: Verdict
    implied: ImpliedTameness | None
    subadditivity: SubadditivityReport | None

    def to_json(self) -> dict[str, Any]:
        return {
            "verdict": self.verdict.to_json(),
            "implied_tameness": self.implied.to_json() if self.implied else None,
            "subadditivity": (self.subadditivity.to_json()
                              if self.subadditivity else None),
        }


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
    if verdict.outcome is Outcome.HOLDS:
        if variant_direction is Variant.LOWER:
            if codomain.kind == POWER_SERIES_FINITE:
                implied = ImpliedTameness("S", 1)
            elif codomain.kind == POWER_SERIES_INFINITE:
                subadd = window_subadditivity(codomain, win)
                implied = ImpliedTameness("M*S", subadd.m)
        else:
            if domain.kind == POWER_SERIES_INFINITE:
                implied = ImpliedTameness("2S", 2)
            elif domain.kind == POWER_SERIES_FINITE:
                subadd = window_subadditivity(domain, win)
                implied = ImpliedTameness("M*S", subadd.m)
    return TameConditionReport(verdict=verdict, implied=implied,
                               subadditivity=subadd)
