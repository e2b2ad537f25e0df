"""The quantifier-scan engine on hand-made sup tables.

The certifier and the oracle share these scans, so their agreement cannot
catch a scan bug; these tests pin the scans on their own.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from koethe.operators import Symbol, SymbolSpec, ToeplitzOperator, Variant
from koethe.oracle import oracle_continuity, ratio_curve
from koethe.spaces import ExponentSequence, SpaceDescriptor
from koethe.verdicts import (
    Outcome,
    PointwiseCertificate,
    Shape,
    Sups,
    TameCertificate,
    UniformCertificate,
    Window,
    decide,
    scan_exists,
    scan_fixed,
    scan_forall,
)

WIN = Window()  # plateau_tol 1e-6, growth_tol log 2

PLATEAU = (0.25, 0.25)
DRIFT = (0.0, 0.1)


def grows(move: float) -> tuple[float, float]:
    return (0.0, move)


class Table:
    """Sup-pair provider over a {(k, m): pair} table, recording each pair it
    gives in ``calls`` (a run's in order) and each run in ``runs``."""

    def __init__(self, pairs, default=PLATEAU):
        self.pairs = pairs
        self.default = default
        self.calls = []
        self.runs = []

    def __call__(self, k, m):
        self.calls.append((k, m))
        return self.pairs.get((k, m), self.default)

    def run(self, ks, m):
        self.runs.append((ks, m))
        return [self(k, m) for k in ks]

    @property
    def sups(self):
        return Sups(self, self.run)


# -- for all k there is an m ---------------------------------------------------


def test_forall_accepts_lowest_plateauing_m():
    table = Table({(1, 1): grows(1.0), (1, 2): DRIFT, (1, 3): (0.5, 0.5),
                   (2, 1): (-1.0, -1.0)})
    scan = scan_forall(WIN, table, k_max=2, m_max=6)
    assert scan.outcome is Outcome.HOLDS
    assert scan.entries == {1: (3, 0.5), 2: (1, -1.0)}
    assert table.calls == [(1, 1), (1, 2), (1, 3), (2, 1)]


def test_forall_fails_with_smallest_growth_seen():
    table = Table({(2, 1): grows(3.0), (2, 2): grows(1.5), (2, 3): grows(2.0)})
    scan = scan_forall(WIN, table, k_max=3, m_max=3)
    assert scan.outcome is Outcome.FAILS_ON_WINDOW
    assert (scan.k, scan.growth, scan.m) == (2, 1.5, None)
    assert table.calls[-1] == (2, 3)  # the scan stops at the failing grading


def test_forall_drift_is_inconclusive_even_beside_growth():
    table = Table({(1, m): grows(2.0) for m in range(1, 5)} | {(1, 3): DRIFT})
    scan = scan_forall(WIN, table, k_max=2, m_max=4)
    assert scan.outcome is Outcome.INCONCLUSIVE
    assert scan.k == 1


def test_forall_none_pair_counts_as_drift():
    table = Table({(1, 1): None, (1, 2): grows(1.0)}, default=grows(1.0))
    scan = scan_forall(WIN, table, k_max=1, m_max=2)
    assert scan.outcome is Outcome.INCONCLUSIVE


def test_neg_inf_full_sup_is_a_plateau():
    table = Table({(1, 1): (-math.inf, -math.inf), (1, 2): (3.0, -math.inf)},
                  default=grows(1.0))
    assert scan_forall(WIN, table, k_max=1, m_max=1).entries == {1: (1, -math.inf)}
    scan = scan_fixed(WIN, table, k_max=1, s_map=lambda k: 2)
    assert scan.outcome is Outcome.HOLDS and scan.entries == {1: -math.inf}


def test_oracle_reports_m_max_and_the_smallest_curve_growth():
    alpha, beta = ExponentSequence.affine(1.0), ExponentSequence.power(2.0)
    op = ToeplitzOperator(Symbol(lower=SymbolSpec.delta()), Variant.LOWER,
                          SpaceDescriptor.power_series_infinite(alpha),
                          SpaceDescriptor.power_series_infinite(beta))
    win = Window(k_max=3, m_max=4, n_max=256)
    verdict = oracle_continuity(op, win)
    assert verdict.outcome is Outcome.FAILS_ON_WINDOW
    witness = verdict.witness
    assert witness.best_m == win.m_max
    moves = []
    for m in range(1, win.m_max + 1):
        (_, half), (_, full) = ratio_curve(op, witness.k, m, window=win).points[-2:]
        moves.append(full - half)
    assert witness.growth_log == min(moves)


# -- there is an m for all k ---------------------------------------------------


def test_exists_probe_climbs_past_k_max_without_recording():
    # m = 1 is refuted only at k = 3 > k_max; m = 2 is probed up to k = 5
    table = Table({(3, 1): grows(1.0), (5, 2): (0.75, 0.75)})
    scan = scan_exists(WIN, table.sups, k_max=2, m_max=4)
    assert scan.outcome is Outcome.HOLDS
    assert scan.m == 2
    assert scan.entries == {1: 0.25, 2: 0.25}
    assert table.calls == [(1, 1), (2, 1), (3, 1)] + [(k, 2) for k in range(1, 6)]
    # m = 2 reads the gradings that m = 1 reached in one run
    assert table.runs == [(range(1, 4), 2)]


def test_exists_probe_is_capped_by_k_limit():
    table = Table({(3, 1): grows(1.0), (5, 2): grows(1.0)})
    assert scan_exists(WIN, table.sups, k_max=2, m_max=4).m == 3
    table.calls.clear()
    scan = scan_exists(WIN, table.sups, k_max=2, m_max=4, k_limit=4)
    assert scan.outcome is Outcome.HOLDS and scan.m == 2
    assert table.calls == [(1, 1), (2, 1), (3, 1)] + [(k, 2) for k in range(1, 5)]


def test_exists_fails_at_the_growing_grading_of_the_largest_m():
    table = Table({(1, 1): grows(4.0), (2, 2): grows(1.0), (3, 3): grows(2.0)})
    scan = scan_exists(WIN, table.sups, k_max=3, m_max=3)
    assert scan.outcome is Outcome.FAILS_ON_WINDOW
    assert (scan.k, scan.growth) == (3, 2.0)


@pytest.mark.parametrize("bad", [DRIFT, None])
def test_exists_any_drift_is_inconclusive(bad):
    table = Table({(1, 1): bad, (1, 2): grows(1.0), (1, 3): grows(1.0)})
    scan = scan_exists(WIN, table.sups, k_max=1, m_max=3)
    assert scan.outcome is Outcome.INCONCLUSIVE


def test_exists_short_codomain_never_holds():
    # k_limit < k_max: a candidate that plateaus everywhere it can be probed
    # still leaves gradings unchecked, and clears the failure of a smaller m
    table = Table({(1, 1): grows(1.0)})
    scan = scan_exists(WIN, table.sups, k_max=3, m_max=2, k_limit=2)
    assert scan.outcome is Outcome.INCONCLUSIVE


def hexed_scan(scan):
    """A scan's fields with its floats as float.hex, so NaN compares."""
    def h(v):
        return None if v is None else float(v).hex()
    return (scan.outcome, scan.m, scan.k, h(scan.growth),
            {k: h(v) for k, v in scan.entries.items()})


class Touches(Table):
    """A table that records the first call reading each grading and each
    witness: the rows a real provider fetches, in its order."""

    def __init__(self, pairs, default=PLATEAU):
        super().__init__(pairs, default)
        self.touched = []

    def __call__(self, k, m):
        for row in (("k", k), ("m", m)):
            if row not in self.touched:
                self.touched.append(row)
        return super().__call__(k, m)

    def run(self, ks, m):
        # a run reads only gradings that earlier calls read
        assert all(("k", k) in self.touched for k in ks)
        return super().run(ks, m)


# plateaus and growth at exactly the thresholds, drift, zero sups, NaN and
# no evidence
sup_pairs = st.one_of(
    st.sampled_from([PLATEAU, DRIFT, None, (0.0, WIN.plateau_tol),
                     (0.0, WIN.growth_tol), (-math.inf, -math.inf),
                     (0.5, -math.inf), (math.nan, math.nan), (0.0, math.nan)]),
    st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
)


@settings(max_examples=400, deadline=None)
@given(k_max=st.integers(1, 4), m_max=st.integers(1, 6),
       k_limit=st.none() | st.integers(1, 14), default=sup_pairs,
       data=st.data())
def test_exists_over_runs_is_the_per_pair_scan(k_max, m_max, k_limit, default, data):
    # candidate m probes up to 2m + 1 > k_max, so every m past k_max // 2
    # reads gradings above k_max
    cells = [(k, m) for k in range(1, 2 * m_max + 2) for m in range(1, m_max + 1)]
    pairs = data.draw(st.dictionaries(st.sampled_from(cells), sup_pairs))
    old, new = Touches(pairs, default), Touches(pairs, default)
    expected = ref.scan_exists(WIN, old, k_max, m_max, k_limit)
    scan = scan_exists(WIN, new.sups, k_max, m_max, k_limit)
    assert hexed_scan(scan) == hexed_scan(expected)
    # the provider reads the rows that the per-pair scan reads, in its order
    assert new.touched == old.touched


# -- m fixed by an index map ---------------------------------------------------


def test_fixed_k0_is_bottom_of_top_plateau_run():
    table = Table({(2, 4): grows(1.0), (3, 6): (0.5, 0.5)})
    scan = scan_fixed(WIN, table, k_max=5, s_map=lambda k: 2 * k)
    assert scan.outcome is Outcome.HOLDS
    assert scan.entries == {3: 0.5, 4: 0.25, 5: 0.25}
    assert list(scan.entries) == [3, 4, 5]
    # the walk down stops at the first grading that does not plateau
    assert table.calls == [(5, 10), (4, 8), (3, 6), (2, 4)]


def test_fixed_fails_only_on_growth_at_k_max():
    scan = scan_fixed(WIN, Table({(4, 4): grows(1.5)}), k_max=4, s_map=lambda k: k)
    assert scan.outcome is Outcome.FAILS_ON_WINDOW
    assert (scan.k, scan.growth) == (4, 1.5)
    below = Table({(4, 4): DRIFT}, default=grows(1.5))
    scan = scan_fixed(WIN, below, k_max=4, s_map=lambda k: k)
    assert scan.outcome is Outcome.INCONCLUSIVE and scan.k == 4
    assert below.calls == [(4, 4)]
    scan = scan_fixed(WIN, Table({(4, 4): None}), k_max=4, s_map=lambda k: k)
    assert scan.outcome is Outcome.INCONCLUSIVE
    scan = scan_fixed(WIN, Table({(1, 1): grows(1.5)}), k_max=4, s_map=lambda k: k)
    assert scan.outcome is Outcome.HOLDS and min(scan.entries) == 2


# -- from a scan to a verdict --------------------------------------------------

REASONS = {(shape, outcome): f"{shape.value} {outcome.value} at k={{k}}"
           for shape in Shape
           for outcome in (Outcome.FAILS_ON_WINDOW, Outcome.INCONCLUSIVE)}
N_RANGE = (128, 256)
TAGS = ("finite-window",)


def run_decide(shape, table, k_max=3, m_max=4, k_limit=None):
    """decide under S(k) = k + 1 for the fixed map."""
    s_map = (lambda k: k + 1) if shape is Shape.FIXED_MAP else None
    return decide(shape, WIN, table.sups, k_max, m_max, N_RANGE, TAGS, REASONS,
                  k_limit=k_limit, s_map=s_map)


@pytest.mark.parametrize("shape, certificate", [
    (Shape.FORALL_K_EXISTS_M,
     PointwiseCertificate({k: (1, 0.25) for k in (1, 2, 3)})),
    (Shape.EXISTS_M_FORALL_K, UniformCertificate(1, {k: 0.25 for k in (1, 2, 3)})),
    # the plateau run reaches down to k0 = 2 from k_max = 3
    (Shape.FIXED_MAP, TameCertificate(2, {2: 0.25, 3: 0.25})),
])
def test_decide_holds_with_the_shape_certificate(shape, certificate):
    verdict = run_decide(shape, Table({(1, 2): DRIFT}))
    assert verdict.outcome is Outcome.HOLDS and verdict.window is WIN
    assert verdict.certificate.to_json() == certificate.to_json()
    assert verdict.tags == TAGS and verdict.witness is None and verdict.reason is None


@pytest.mark.parametrize("shape, table, k, best_m", [
    # every m grows at k = 2; the witness is m_max
    (Shape.FORALL_K_EXISTS_M, {(2, m): grows(1.0) for m in range(1, 6)}, 2, 5),
    # each candidate m is refuted at k = 2m + 1 <= k_limit, the last at k = 11
    (Shape.EXISTS_M_FORALL_K, {(2 * m + 1, m): grows(1.0) for m in range(1, 6)}, 11, 5),
    # growth at the top grading k_max = 3, whose witness is S(3) = 4, not m_max
    (Shape.FIXED_MAP, {(3, 4): grows(1.0)}, 3, 4),
])
def test_decide_fails_with_the_scan_grading_and_best_m(shape, table, k, best_m):
    verdict = run_decide(shape, Table(table), m_max=5, k_limit=11)
    assert verdict.outcome is Outcome.FAILS_ON_WINDOW
    assert verdict.certificate is None and verdict.tags == TAGS
    witness = verdict.witness
    assert (witness.k, witness.best_m, witness.n_range, witness.growth_log) == (
        k, best_m, N_RANGE, 1.0)
    assert verdict.reason == f"{shape.value} fails_on_window at k={k}"


@pytest.mark.parametrize("shape, table, k", [
    (Shape.FORALL_K_EXISTS_M, {(1, m): DRIFT for m in range(1, 5)}, 1),
    (Shape.EXISTS_M_FORALL_K, {(1, m): DRIFT for m in range(1, 5)}, None),
    (Shape.FIXED_MAP, {(3, 4): DRIFT}, 3),
])
def test_decide_inconclusive_names_the_scan_grading(shape, table, k):
    verdict = run_decide(shape, Table(table))
    assert verdict.outcome is Outcome.INCONCLUSIVE
    assert verdict.certificate is None and verdict.witness is None
    assert verdict.tags == TAGS
    assert verdict.reason == f"{shape.value} inconclusive at k={k}"


def test_decide_passes_k_limit_to_the_exists_scan():
    # a candidate probed only up to k_limit = 2 < k_max cannot hold
    verdict = run_decide(Shape.EXISTS_M_FORALL_K, Table({(1, 1): grows(1.0)}),
                         k_max=3, m_max=2, k_limit=2)
    assert verdict.outcome is Outcome.INCONCLUSIVE


# -- the window clipped to tabulated spaces -----------------------------------

GENERAL = SpaceDescriptor.general([[0.5, 0.7, 0.9]] * 64)
CLOSED = SpaceDescriptor.power_series_finite(ExponentSequence.affine(1.0))
TABLE = SpaceDescriptor.power_series_infinite(ExponentSequence.table(range(100)))


def test_clip_cuts_k_and_n_to_a_general_space():
    assert WIN.clip(GENERAL) == (3, WIN.m_max, 64, True)
    assert WIN.clip(GENERAL, CLOSED) == (3, WIN.m_max, 64, True)
    assert WIN.clip(CLOSED, GENERAL) == (WIN.k_max, 3, 64, True)
    assert WIN.clip(TABLE, CLOSED) == (WIN.k_max, WIN.m_max, 100, True)


def test_clip_leaves_closed_form_spaces_alone():
    assert WIN.clip(CLOSED) == (WIN.k_max, WIN.m_max, WIN.n_max, False)
    assert WIN.clip(CLOSED, CLOSED) == (WIN.k_max, WIN.m_max, WIN.n_max, False)
    # a tabulated space as large as the window cuts nothing
    small = Window(k_max=2, m_max=3, n_max=64)
    assert small.clip(GENERAL, GENERAL) == (2, 3, 64, False)
