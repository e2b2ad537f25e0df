"""Window evidence types: search windows, plateau tests, certificates, verdicts.

A window verdict is finite-data evidence for an asymptotic claim, never a
proof.  The trichotomy is: Holds (a certificate whose inequality was checked
over the whole window, with a stabilized constant), FailsOnWindow (a witness
index range where the required sup kept growing for every admissible search
index), and Inconclusive (neither pattern).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Any, Callable, Mapping, NamedTuple

import numpy as np

from .errors import ConfigurationError, json_form, json_record, json_report
from .logdomain import LogValue, linear_or_none


class Outcome(str, enum.Enum):
    HOLDS = "holds"
    FAILS_ON_WINDOW = "fails_on_window"
    INCONCLUSIVE = "inconclusive"


#: conjunction order: a combined verdict is the worst of its parts
_SEVERITY = {Outcome.FAILS_ON_WINDOW: 0, Outcome.INCONCLUSIVE: 1, Outcome.HOLDS: 2}


def conjoin(*outcomes: Outcome) -> Outcome:
    return min(outcomes, key=_SEVERITY.__getitem__)


class Shape(str, enum.Enum):
    """Quantifier shape of a condition between a grading k and a witness m."""

    FORALL_K_EXISTS_M = "forall_k_exists_m"
    EXISTS_M_FORALL_K = "exists_m_forall_k"
    FIXED_MAP = "fixed_map"


class PlateauStatus(str, enum.Enum):
    PLATEAU = "plateau"
    GROWTH = "growth"
    DRIFT = "drift"


def _halvings(n_max: int, floor: int) -> tuple[int, ...]:
    """``n_max`` and its halvings down to ``max(floor, n_max // 16)``,
    ascending: a window's default checkpoints (floor 2) and a series'
    partial-sum bounds (floor 1)."""
    pts = [n_max]
    while pts[-1] // 2 >= max(floor, n_max // 16):
        pts.append(pts[-1] // 2)
    return tuple(reversed(pts))


@dataclass(frozen=True)
class Window:
    """Search bounds and evidence thresholds for one certification run.

    ``n_max`` is the truncation; ``k_max``/``m_max`` bound the grading and
    witness searches; ``l_slack`` extends the nuclearity probe range past
    ``k_max``; ``subadd_m_max`` bounds the subadditivity constant search.
    Threshold fields pin the trichotomy: a sup is a plateau when it moved at
    most ``plateau_tol`` log-units between the half and full window, and
    growth when it moved at least ``growth_tol``.
    """

    k_max: int = 12
    m_max: int = 48
    n_max: int = 4096
    l_slack: int = 4
    subadd_m_max: int = 64
    checkpoints: tuple[int, ...] = ()
    plateau_tol: float = 1e-6
    growth_tol: float = math.log(2.0)
    series_tail_rel: float = 1e-12
    series_growth_tol: float = 0.02
    dense_cap: int = 4096

    def __post_init__(self):
        object.__setattr__(self, "checkpoints",
                           tuple(self.checkpoints) or _halvings(self.n_max, 2))
        if self.k_max < 1 or self.m_max < 1:
            raise ConfigurationError("k_max and m_max must be >= 1")
        if self.n_max < 4:
            raise ConfigurationError("n_max must be >= 4")
        cps = self.checkpoints
        if (len(cps) < 2 or list(cps) != sorted(set(cps)) or cps[0] < 1
                or cps[-1] != self.n_max):
            raise ConfigurationError(
                "checkpoints must be >= 1, strictly ascending and end at n_max"
            )
        if self.plateau_tol <= 0 or self.growth_tol <= self.plateau_tol:
            raise ConfigurationError("need 0 < plateau_tol < growth_tol")
        # a fraction of a series' total
        if not 0 < self.series_tail_rel < 1:
            raise ConfigurationError("need 0 < series_tail_rel < 1")
        if not self.series_growth_tol > 0:
            raise ConfigurationError("need series_growth_tol > 0")
        for name, least in (("l_slack", 0), ("subadd_m_max", 1), ("dense_cap", 1)):
            if getattr(self, name) < least:
                raise ConfigurationError(f"{name} must be >= {least}")

    def with_n_max(self, n_max: int) -> "Window":
        return replace(self, n_max=n_max, checkpoints=_halvings(n_max, 2))

    def clip(self, k_space: Any, m_space: Any = None) -> tuple[int, int, int, bool]:
        """(k_max, m_max, n_max) cut to the tabulated weights of the space
        graded by k and of the one graded by m, and whether any was cut."""
        n_max = min(self.n_max, k_space.n_limit or self.n_max)
        k_max = min(self.k_max, k_space.k_limit or self.k_max)
        m_max = self.m_max
        if m_space is not None:
            n_max = min(n_max, m_space.n_limit or n_max)
            m_max = min(m_max, m_space.k_limit or m_max)
        bounds = (k_max, m_max, n_max)
        return *bounds, bounds != (self.k_max, self.m_max, self.n_max)

    def classify_sup(self, sup_half: LogValue, sup_full: LogValue) -> PlateauStatus:
        """Trichotomy for a running sup observed on the half and full window."""
        if sup_full == float("-inf"):
            return PlateauStatus.PLATEAU
        move = sup_full - sup_half
        if move <= self.plateau_tol:
            return PlateauStatus.PLATEAU
        if move >= self.growth_tol:
            return PlateauStatus.GROWTH
        return PlateauStatus.DRIFT

    def plateau_rows(self, pairs: np.ndarray) -> np.ndarray:
        """Where :meth:`classify_sup` reads a plateau, for an array of
        (sup_half, sup_full) rows."""
        half, full = pairs[:, 0], pairs[:, 1]
        # inf - inf is NaN, which no threshold holds: drift, as a pair reads
        with np.errstate(invalid="ignore"):
            return (full == -np.inf) | (full - half <= self.plateau_tol)

    to_json = json_record

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "Window":
        kinds = {
            "k_max": "integer", "m_max": "integer", "n_max": "integer",
            "l_slack": "integer", "subadd_m_max": "integer",
            "checkpoints": "integers", "plateau_tol": "number",
            "growth_tol": "number", "series_tail_rel": "number",
            "series_growth_tol": "number", "dense_cap": "integer",
        }
        return json_form(data, {None: (cls, kinds)}, "window", tag=None,
                         optional=tuple(kinds))


# ---------------------------------------------------------------------------
# quantifier scans
# ---------------------------------------------------------------------------

#: evidence for a grading k against a witness index m: the sup of the gap
#: over the half and the full window, or None (read as drift) when the
#: window holds no evidence for the pair
SupPair = Callable[[int, int], "tuple[LogValue, LogValue] | None"]

#: the pairs of the gradings of a run ``ks`` (a range) against a witness
#: index m, in order, as the rows of one (rows, 2) float array with the pair
#: call's bits; the gradings past the last row have no evidence (a None pair)
SupRun = Callable[[range, int], np.ndarray]


class Sups(NamedTuple):
    """A sup-pair provider: its pair call and its run call.  A provider
    fetches a grading's and a witness's rows on the first call that reads
    them and keeps them for its later calls."""

    pair: SupPair
    run: SupRun


@dataclass(frozen=True)
class Scan:
    """Result of a quantifier scan.

    HOLDS carries the accepted ``entries`` by grading k -- ``(m, sup)`` for
    the for-all scan, the stabilized sup otherwise -- and, for the exists
    scan, the uniform witness ``m``.  FAILS_ON_WINDOW names the grading
    ``k`` whose sup kept growing and its ``growth``; INCONCLUSIVE names the
    drifting grading where the scan has one.
    """

    outcome: Outcome
    entries: Mapping[int, Any] = field(default_factory=dict)
    m: int | None = None
    k: int | None = None
    growth: float | None = None


def _status(win: Window, pair: tuple[LogValue, LogValue] | None) -> PlateauStatus:
    return PlateauStatus.DRIFT if pair is None else win.classify_sup(*pair)


def scan_forall(win: Window, sup_pair: SupPair, k_max: int, m_max: int) -> Scan:
    """For all k <= k_max there is an m <= m_max: the ascending m scan at
    each k accepts the first plateau.  A grading with no plateau fails with
    the smallest growth seen, unless some m drifted."""
    entries: dict[int, tuple[int, LogValue]] = {}
    for k in range(1, k_max + 1):
        growth: float | None = None
        drift = False
        for m in range(1, m_max + 1):
            pair = sup_pair(k, m)
            status = _status(win, pair)
            if status is PlateauStatus.PLATEAU:
                entries[k] = (m, pair[1])
                break
            if status is PlateauStatus.GROWTH:
                move = pair[1] - pair[0]
                growth = move if growth is None else min(growth, move)
            else:
                drift = True
        else:
            if drift:
                return Scan(Outcome.INCONCLUSIVE, k=k)
            return Scan(Outcome.FAILS_ON_WINDOW, k=k, growth=growth)
    return Scan(Outcome.HOLDS, entries)


def scan_exists(
    win: Window, sups: Sups, k_max: int, m_max: int,
    k_limit: int | None = None,
) -> Scan:
    """There is an m <= m_max for all k <= k_max: the first m whose sup
    plateaus at every grading it is probed against.

    Only gradings beyond m can refute a candidate m, and the refuting growth
    must overtake window transients (column-norm humps), so candidate m is
    probed up to k = max(k_max, 2m + 1), capped by ``k_limit`` (the last
    grading of a tabulated codomain).  Plateaus above k_max are checked but
    not recorded.  Failure reports the growing grading of the largest
    candidate; any drifting candidate makes the scan inconclusive.

    A candidate asks in one run for the pairs of the gradings that earlier
    candidates reached, whose rows the provider holds, when they are two or
    more (a run of one costs more than its pair), and for each other
    grading's pair alone.  One array test (:meth:`Window.plateau_rows`)
    finds the run's first row that is not a plateau, or the first grading
    with no row, and only that pair is classified; the pairs past the run
    are classified in order up to the first that is not a plateau.  So the
    scan reads, and the provider fetches, what a scan of one pair at a time
    would.
    """
    sup_pair, sup_run = sups
    drift = False
    failing: tuple[int, float] | None = None
    reached = 0
    for m in range(1, m_max + 1):
        k_top = max(k_max, 2 * m + 1)
        if k_limit is not None:
            k_top = min(k_top, k_limit)
        held = min(reached, k_top) if reached > 1 else 0
        log_c: dict[int, LogValue] = {}
        status = PlateauStatus.PLATEAU
        k = 0
        if held:
            rows = sup_run(range(1, held + 1), m)
            plateaus = win.plateau_rows(rows)
            # gradings 1..k plateau
            k = len(rows) if plateaus.all() else int(plateaus.argmin())
            log_c = dict(zip(range(1, k_max + 1), rows[:min(k, k_max), 1].tolist()))
            if k < held:
                pair = tuple(rows[k].tolist()) if k < len(rows) else None
                status = _status(win, pair)
                k += 1
        while status is PlateauStatus.PLATEAU and k < k_top:
            k += 1
            pair = sup_pair(k, m)
            status = _status(win, pair)
            if status is PlateauStatus.PLATEAU and k <= k_max:
                log_c[k] = pair[1]
        if k > reached:
            reached = k
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


def scan_fixed(
    win: Window, sup_pair: SupPair, k_max: int, s_map: Callable[[int], int]
) -> Scan:
    """m fixed by the index map, m = S(k): the run of plateaus reaching down
    from k_max, whose bottom is the threshold k0 = min(entries).  The scan
    walks down and stops at the first grading that does not plateau; with
    no plateau at k_max it fails only on growth there.  It is the one-scan
    case of :func:`scan_fixed_lockstep`."""
    [scan] = scan_fixed_lockstep(win, lambda k, m, live: [sup_pair(k, m)], 1,
                                 k_max, s_map)
    return scan


#: the sup pairs of several scans at grading k and witness m: one pair (or
#: None) for each scan index in ``live``, in that order
SupPairs = Callable[[int, int, "list[int]"],
                    "list[tuple[LogValue, LogValue] | None]"]


def scan_fixed_lockstep(
    win: Window, sup_pairs: SupPairs, count: int, k_max: int,
    s_map: Callable[[int], int],
) -> list[Scan]:
    """``count`` scans of :func:`scan_fixed` in lock-step: at each grading,
    from k_max down, one call of ``sup_pairs`` gives the pairs of the scans
    still running, and each stops by its own pairs, so it asks for the
    pairs that it asks for alone."""
    entries: list[dict[int, LogValue]] = [{} for _ in range(count)]
    # the status and pair of the grading where each scan stopped
    stops: list = [None] * count
    live = list(range(count))
    for k in range(k_max, 0, -1):
        if not live:
            break
        for i, pair in zip(live, sup_pairs(k, s_map(k), live)):
            status = _status(win, pair)
            if status is PlateauStatus.PLATEAU:
                entries[i][k] = pair[1]
            else:
                stops[i] = status, pair
        live = [i for i in live if stops[i] is None]

    def scan(found: dict[int, LogValue], stop) -> Scan:
        if found:
            return Scan(Outcome.HOLDS, dict(sorted(found.items())))
        status, pair = stop
        if status is PlateauStatus.GROWTH:
            return Scan(Outcome.FAILS_ON_WINDOW, k=k_max, growth=pair[1] - pair[0])
        return Scan(Outcome.INCONCLUSIVE, k=k_max)
    return [scan(found, stop) for found, stop in zip(entries, stops)]


def _freeze(cert: Any, name: str) -> None:
    """Replace a certificate's mapping by a read-only copy: verdicts may be
    memoised and shared between callers."""
    object.__setattr__(cert, name, MappingProxyType(dict(getattr(cert, name))))


def _constant(log_c: LogValue) -> dict[str, Any]:
    """A stabilized constant as its JSON pair: the log and the linear value."""
    return {"log_c": log_c, "c": linear_or_none(log_c)}


def _constants(cert: Any) -> dict[str, dict[str, Any]]:
    return {str(k): _constant(c) for k, c in cert.log_c.items()}


@dataclass(frozen=True)
class PointwiseCertificate:
    """For each grading k, a witness index and stabilized log-constant."""

    entries: Mapping[int, tuple[int, LogValue]]

    def __post_init__(self):
        _freeze(self, "entries")

    JSON_KEYS = {"shape": lambda _: "pointwise",
                 "entries": lambda cert: {str(k): {"m": m, **_constant(c)}
                                          for k, (m, c) in cert.entries.items()}}
    to_json = json_report


@dataclass(frozen=True)
class UniformCertificate:
    """A single witness index m serving every grading k, with per-k constants."""

    m: int
    log_c: Mapping[int, LogValue]

    def __post_init__(self):
        _freeze(self, "log_c")

    JSON_KEYS = {"shape": lambda _: "uniform", "m": "m", "log_c": _constants}
    to_json = json_report


@dataclass(frozen=True)
class TameCertificate:
    """A threshold grading k0 and per-k constants for a fixed index map."""

    k0: int
    log_c: Mapping[int, LogValue]

    def __post_init__(self):
        _freeze(self, "log_c")

    JSON_KEYS = {"shape": lambda _: "fixed_map", "k0": "k0", "log_c": _constants}
    to_json = json_report


@dataclass(frozen=True)
class BoundCertificate:
    """A single (index, log-constant) pair, e.g. a dual coefficient bound."""

    m: int
    log_c: LogValue

    JSON_KEYS = {"shape": lambda _: "bound", "m": "m", "log_c": "log_c",
                 "c": lambda cert: linear_or_none(cert.log_c)}
    to_json = json_report


@dataclass(frozen=True)
class CompositeCertificate:
    """Certificates of the triangular parts of a full operator."""

    lower: Any
    upper: Any

    @property
    def m(self) -> int | None:
        parts = [getattr(self.lower, "m", None), getattr(self.upper, "m", None)]
        if any(p is None for p in parts):
            return None
        return max(parts)

    JSON_KEYS = {"shape": lambda _: "composite", "m": "m", "lower": "lower",
                 "upper": "upper"}
    to_json = json_report


Certificate = (
    PointwiseCertificate
    | UniformCertificate
    | TameCertificate
    | BoundCertificate
    | CompositeCertificate
)


@dataclass(frozen=True)
class FailureWitness:
    """Where the required sup kept growing for every admissible index."""

    k: int | None
    best_m: int | None
    n_range: tuple[int, int]
    growth_log: float

    to_json = json_report


@dataclass(frozen=True)
class Verdict:
    """Trichotomous outcome of a certificate search over a window."""

    outcome: Outcome
    certificate: Certificate | None = None
    witness: FailureWitness | None = None
    reason: str | None = None
    window: Window | None = None
    tags: tuple[str, ...] = field(default=())

    to_json = json_report


def holds(certificate: Certificate | None, window: Window, **kw) -> Verdict:
    return Verdict(Outcome.HOLDS, certificate=certificate, window=window, **kw)


def fails(witness: FailureWitness, window: Window, **kw) -> Verdict:
    return Verdict(Outcome.FAILS_ON_WINDOW, witness=witness, window=window, **kw)


def inconclusive(reason: str, window: Window, **kw) -> Verdict:
    return Verdict(Outcome.INCONCLUSIVE, reason=reason, window=window, **kw)


def decide(
    shape: Shape, win: Window, sups: Sups, k_max: int, m_max: int,
    n_range: tuple[int, int], tags: tuple[str, ...],
    reasons: Mapping[tuple[Shape, Outcome], str],
    k_limit: int | None = None, s_map: Callable[[int], int] | None = None,
) -> Verdict:
    """Run the scan of ``shape`` over ``sups`` and turn it into a verdict.

    Holds carries the shape's certificate.  A failure names the grading the
    scan reports, ``m_max`` (``S(k_max)`` under a fixed map) as the best
    witness index and ``n_range`` as the window of the growth.  The reason
    of a verdict that does not hold is ``reasons[shape, outcome]`` with
    ``{k}`` set to the scan's grading.
    """
    if shape is Shape.FORALL_K_EXISTS_M:
        scan = scan_forall(win, sups.pair, k_max, m_max)
    elif shape is Shape.EXISTS_M_FORALL_K:
        scan = scan_exists(win, sups, k_max, m_max, k_limit)
    else:
        scan = scan_fixed(win, sups.pair, k_max, s_map)
    if scan.outcome is Outcome.HOLDS:
        if shape is Shape.FORALL_K_EXISTS_M:
            certificate = PointwiseCertificate(scan.entries)
        elif shape is Shape.EXISTS_M_FORALL_K:
            certificate = UniformCertificate(scan.m, scan.entries)
        else:
            certificate = TameCertificate(min(scan.entries), scan.entries)
        return holds(certificate, win, tags=tags)
    reason = reasons[shape, scan.outcome].format(k=scan.k)
    if scan.outcome is Outcome.INCONCLUSIVE:
        return inconclusive(reason, win, tags=tags)
    best_m = s_map(k_max) if shape is Shape.FIXED_MAP else m_max
    return fails(FailureWitness(scan.k, best_m, n_range, scan.growth), win,
                 tags=tags, reason=reason)
