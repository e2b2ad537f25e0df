"""The series pass over a block of rows, against its one-series reference.

``spaces._prefix_lse`` reduces a ``(rows, n)`` block one halving segment at
a time across all rows, and ``membership_in_space`` classifies all its
gradings in one such pass.  ``reference_kernels`` keeps the one-series
classification and the per-grading membership loop that came before; every
row's partial sums must equal them bit for bit, and every membership report
must equal theirs.  The suite turns every ``RuntimeWarning`` into an error,
so a warning that escapes the pass fails here too.

``membership_in_space`` settles, without the pass, a grading whose tail
half cannot move its float sum (``spaces._settled_rows``); the reference
keeps no such rule.  Run as a script, every membership of ``SWEEP_SPACES`` x
``SWEEP_SYMBOLS`` x ``SWEEP_WINDOWS`` is read cold and then from the memo
(``spaces._memo``), each read is compared with the reference's byte for
byte, and the script exits 1 on a report that differs or on a power series
space's warm read that checks anew:

    python tests/test_series_pass.py
"""

import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from koethe import operators, spaces
from koethe.cli import _dumps
from koethe.criteria import FamilySpec, OperatorTemplate, _sample_family
from koethe.operators import SymbolSpec, Variant, membership_in_space
from koethe.spaces import (
    _ROUNDING_LOG,
    ExponentSequence,
    SpaceDescriptor,
    classify_series,
    weight_array,
)
from koethe.verdicts import Outcome, Window, _halvings

ALPHA_N = ExponentSequence.power(1.0)
L1_N = SpaceDescriptor.power_series_finite(ALPHA_N)
LINF_N = SpaceDescriptor.power_series_infinite(ALPHA_N)
#: n^200 passes float range at n = 35, so most of its weights are +inf
LINF_HUGE = SpaceDescriptor.power_series_infinite(ExponentSequence.power(200.0))

#: offsets from a row's level: exp of those below -746 is written +0.0, and
#: those in [-745.13, -708.4] give subnormal terms, which are evaluated
SPECIAL = st.one_of(
    st.sampled_from([-math.inf, math.inf, math.nan]),
    st.floats(-1e6, -746.0),
    st.floats(-745.2, -708.0),
)


def _hex(values):
    return [float(v).hex() for v in values]


@st.composite
def blocks(draw):
    """A ``(rows, n)`` block of log terms: geometric, polynomial and noisy
    rows, with entries of -inf, +inf, NaN and both underflow bands, and
    whole rows of -inf."""
    n = draw(st.one_of(st.just(2), st.sampled_from([2 ** e for e in range(2, 13)]),
                       st.integers(3, 5000).filter(lambda v: v & (v - 1))))
    rows = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    j = np.arange(1, n + 1, dtype=np.float64)
    block = np.empty((rows, n))
    for r in range(rows):
        slope, power = draw(st.floats(-3.0, 0.5)), draw(st.floats(-3.0, 2.0))
        row = slope * j + power * np.log(j) + draw(st.floats(-50.0, 50.0))
        if draw(st.booleans()):
            row += rng.normal(0.0, draw(st.sampled_from([1.0, 100.0, 800.0])), n)
        level = float(np.max(row))
        for index, offset in draw(st.lists(st.tuples(st.integers(0, n - 1), SPECIAL),
                                           max_size=12)):
            row[index] = level + offset
        if draw(st.integers(0, 9)) == 0:
            row[:] = -math.inf
        block[r] = row
    return block


@settings(max_examples=150, deadline=None)
@given(block=blocks())
def test_the_rows_pass_gives_every_row_the_reference_partial_sums(block):
    bounds = _halvings(block.shape[1], 1)
    got = spaces._prefix_lse(block.copy(), bounds)
    assert len(got) == len(block)
    for row, sums in zip(block, got):
        assert _hex(sums) == _hex(ref._prefix_lse(row.copy(), bounds))


@settings(max_examples=60, deadline=None)
@given(block=blocks(), tail_rel=st.sampled_from([0.05, 0.5]))
def test_every_row_classifies_as_its_reference_series(block, tail_rel):
    win = Window(series_tail_rel=tail_rel)
    got = spaces._classify_rows(block.copy(), win)
    assert [v.to_json() for v in got] \
        == [ref.classify_series(row.copy(), win).to_json() for row in block]
    assert classify_series(block[0], win).to_json() == got[0].to_json()


# -- rows settled without the pass ---------------------------------------------


@st.composite
def halves(draw):
    """A ``(rows, n)`` block whose rows have a head max h up to 2^60 in
    magnitude and a tail max at, or one ulp either side of, the settling cut
    h - drop, or near it, or -inf; tails flat at their max or falling below
    it; and entries of ``SPECIAL`` or bare +-inf and NaN in either half."""
    n = draw(st.one_of(st.sampled_from([2, 3, 4, 5, 7]), st.integers(6, 3000)))
    half = n // 2
    drop = _ROUNDING_LOG + math.log(n - half)
    rows = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    block = np.empty((rows, n))
    for r in range(rows):
        h = draw(st.one_of(st.floats(-2.0 ** 60, 2.0 ** 60),
                           st.sampled_from([0.0, 2.0 ** 60, -2.0 ** 60, 1e6])))
        head = h - rng.exponential(draw(st.sampled_from([0.0, 1.0, 100.0])), half)
        head[rng.integers(half)] = h
        cut = h - drop
        t = draw(st.sampled_from([
            cut, np.nextafter(cut, math.inf), np.nextafter(cut, -math.inf),
            cut + draw(st.floats(-5.0, 5.0)), -math.inf]))
        tail = np.full(n - half, t)
        if draw(st.booleans()):
            tail -= rng.exponential(draw(st.sampled_from([1.0, 100.0])), n - half)
            tail[rng.integers(n - half)] = t
        row = np.concatenate([head, tail])
        for index, offset in draw(st.lists(st.tuples(st.integers(0, n - 1), SPECIAL),
                                           max_size=3)):
            row[index] = (offset if draw(st.booleans()) or not math.isfinite(offset)
                          else h + offset)
        block[r] = row
    return block


@settings(max_examples=300, deadline=None)
@given(block=halves())
def test_a_settled_row_is_convergent_with_equal_last_partial_sums(block):
    half = block.shape[1] // 2
    settled = spaces._settled_rows(block)
    verdicts = spaces._classify_rows(block.copy())
    for row, done, verdict in zip(block, settled, verdicts):
        head, tail = row[:half], row[half:]
        if (np.isnan(row).any() or np.isposinf(row).any()
                or np.isneginf(head).all()):
            assert not done
        if done:
            assert verdict.classification is spaces.SeriesClass.CONVERGENT
            (_, s_half), (_, s_full) = verdict.partial_sums[-2:]
            assert float(s_full).hex() == float(s_half).hex()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 4096])
def test_a_tail_far_below_its_head_settles_and_one_above_the_cut_does_not(n):
    half = n // 2
    drop = _ROUNDING_LOG + math.log(n - half)
    block = np.array([[0.0] * half + [-drop - 1e-6] * (n - half),
                      [0.0] * half + [-math.inf] * (n - half),
                      [0.0] * half + [-drop + 1e-6] * (n - half),
                      [-math.inf] * n])
    assert spaces._settled_rows(block).tolist() == [True, True, False, False]


def test_a_flat_tail_at_the_cut_leaves_the_sum_where_it_was():
    # the worst case for the rule: a head sum of exactly 1 and 2048 tail
    # terms all at the cut.  The sum moves once 2048 e^t reaches half an
    # ulp of 1, near t = -44.4; the rule cuts at -47.6 and does not settle
    # the cut itself
    drop = _ROUNDING_LOG + math.log(2048)
    head = [0.0] + [-math.inf] * 2047

    def last_sums(t):
        (verdict,) = spaces._classify_rows(np.array([head + [t] * 2048]))
        return [s for _, s in verdict.partial_sums[-2:]]

    s_half, s_full = last_sums(-drop)
    assert s_half == 0.0 and s_full == s_half
    assert not spaces._settled_rows(np.array([head + [-drop] * 2048]))[0]
    assert spaces._settled_rows(np.array([head + [-drop - 1e-9] * 2048]))[0]
    assert last_sums(-44.0)[1] > 0.0


# -- memberships --------------------------------------------------------------


def _same_membership(spec, space, win):
    got = membership_in_space(spec, space, win)
    assert got.to_json() == ref.membership_in_space(spec, space, win).to_json()
    return got


def test_a_series_diverging_past_the_first_grading_names_its_witness():
    # sum_j 0.01^j e^{k(j+1)} diverges once k > log 100 = 4.6: the gradings
    # k <= 4 settle without the pass, and k = 5 is the pass's first row
    spec = SymbolSpec.geometric(0.01)
    for n_max in (256, 4096):
        win = Window().with_n_max(n_max)
        terms = np.array([spec.log_abs_array(n_max) + weight_array(LINF_N, k, n_max)
                          for k in range(1, win.k_max + 1)])
        assert spaces._settled_rows(terms).tolist() == [True] * 4 + [False] * 8
        verdict = _same_membership(spec, LINF_N, win)
        assert verdict.outcome is Outcome.FAILS_ON_WINDOW
        assert verdict.reason == "membership series diverges at k=5"
        assert verdict.witness.k == 5 and math.isfinite(verdict.witness.growth_log)


def test_an_undecided_grading_is_reported_as_the_reference_reports_it():
    # sum_j (j+1)^-1 e^{-(j+1)/k} converges at every k, but for large k not
    # within the window
    verdict = _same_membership(SymbolSpec.polynomial(-1), L1_N,
                               Window().with_n_max(64))
    assert verdict.outcome is Outcome.INCONCLUSIVE
    assert verdict.reason.startswith("membership series undecided at k=")


@pytest.mark.parametrize("values, outcome", [
    ([1.0], Outcome.HOLDS),
    ([1.0, 0.0, 0.0] + [0.0] * 40 + [2.0], Outcome.FAILS_ON_WINDOW),
], ids=["zeros-only-past-range", "a-nonzero-entry-past-range"])
def test_zero_entries_against_infinite_weights_add_nothing(values, outcome):
    assert weight_array(LINF_HUGE, 1, 64)[40] == math.inf
    verdict = _same_membership(SymbolSpec.explicit(values), LINF_HUGE,
                               Window().with_n_max(64))
    assert verdict.outcome is outcome


SYMBOLS = st.one_of(
    st.floats(0.01, 3.0).map(SymbolSpec.geometric),
    # the benchmark family's range
    st.floats(0.05, 0.9).map(SymbolSpec.geometric),
    st.integers(-3, 3).map(SymbolSpec.polynomial),
    st.floats(-2.0, 1.0).map(lambda c: SymbolSpec.exp_of_exponent(c, ALPHA_N)),
    st.lists(st.sampled_from([0.0, 1.0, -2.5, 1e300]), min_size=1, max_size=80)
    .map(SymbolSpec.explicit),
)
SPACES = st.sampled_from([
    L1_N, LINF_N, LINF_HUGE,
    SpaceDescriptor.power_series_finite(ExponentSequence.power(2.0)),
    SpaceDescriptor.power_series_finite(ExponentSequence.logarithmic()),
    SpaceDescriptor.power_series_infinite(ExponentSequence.power(0.5)),
    SpaceDescriptor.general([[math.exp(-n / k) for k in range(1, 9)]
                             for n in range(1, 301)]),
    # two and three rows clip the window to n_max 2 and 3
    SpaceDescriptor.general([[0.5, 0.7, 0.9]] * 2),
    SpaceDescriptor.general([[0.0, 0.5, 2.0]] * 3),
])


@settings(max_examples=80, deadline=None)
@given(spec=SYMBOLS, space=SPACES,
       n_max=st.sampled_from([4, 5, 64, 100, 256, 1024, 4096]),
       k_max=st.integers(1, 12))
def test_membership_reports_equal_the_per_grading_loop(spec, space, n_max, k_max):
    _same_membership(spec, space, Window(k_max=k_max).with_n_max(n_max))


def test_the_benchmark_family_memberships_make_no_series_pass():
    # every draw of the 16 pool families into Λ₀(n) at the default window
    # settles at every grading, so none reaches _prefix_lse
    alpha = ExponentSequence.affine(1.0)
    template = OperatorTemplate(Variant.LOWER,
                                SpaceDescriptor.power_series_infinite(alpha),
                                SpaceDescriptor.power_series_finite(alpha))
    with mock.patch.object(spaces, "_prefix_lse",
                           side_effect=AssertionError("series pass")):
        for seed in range(16):
            family = FamilySpec(count=50, seed=seed, r_min=0.05, r_max=0.9)
            members = _sample_family(family, Variant.LOWER, template, Window(),
                                     np.random.default_rng(seed))
            assert len(members) == 50


# -- inputs are left as they were ----------------------------------------------


@pytest.mark.parametrize("make", [
    lambda t: t,
    lambda t: t.tolist(),
    lambda t: np.repeat(t, 2)[::2],
    lambda t: np.stack([t, t])[1],
], ids=["array", "list", "strided-view", "row-of-a-block"])
def test_classify_series_leaves_its_terms_as_they_were(make):
    terms = make(-0.5 * np.arange(1, 300, dtype=np.float64))
    before = list(terms)
    first = classify_series(terms)
    assert list(terms) == before
    assert classify_series(terms) == first


@pytest.mark.parametrize("spec, space", [
    (SymbolSpec.geometric(0.5), L1_N),
    (SymbolSpec.geometric(0.01), LINF_N),
    (SymbolSpec.explicit([1.0, 0.0, 3.0]), LINF_HUGE),
], ids=["holds", "fails", "zero-entries"])
def test_membership_leaves_the_weights_and_the_symbol_as_they_were(spec, space):
    win = Window().with_n_max(256)
    rows = [weight_array(space, k, 256).copy() for k in range(1, win.k_max + 1)]
    logs = spec.log_abs_array(256).copy()
    first = membership_in_space(spec, space, win)
    assert all(np.array_equal(weight_array(space, k, 256), row, equal_nan=True)
               for k, row in enumerate(rows, 1))
    assert np.array_equal(spec.log_abs_array(256), logs)
    assert membership_in_space(spec, space, win) == first


# -- the report sweep ----------------------------------------------------------

_SWEEP_ALPHAS = [ExponentSequence.affine(1.0), ExponentSequence.power(2.0),
                 ExponentSequence.power(0.5), ExponentSequence.logarithmic(),
                 ExponentSequence.table(np.log(np.log(np.arange(1, 4097) + 3.0))),
                 ExponentSequence.table([1.0, 2.0] + [1e308] * 100)]
SWEEP_SPACES = [make(alpha) for alpha in _SWEEP_ALPHAS
                for make in (SpaceDescriptor.power_series_finite,
                             SpaceDescriptor.power_series_infinite)] + [
    SpaceDescriptor.general([[math.exp(-n / k) for k in range(1, 9)]
                             for n in range(1, 301)])]
SWEEP_SYMBOLS = (
    [SymbolSpec.geometric(r) for r in (0.01, 0.05, 0.3, 0.9, 1.0, 2.0)]
    + [SymbolSpec.polynomial(d) for d in (-3, -1, 0, 2)]
    + [SymbolSpec.exp_of_exponent(c, ALPHA_N) for c in (-1.0, -0.5, 0.5)]
    + [SymbolSpec.explicit([1.0, 0.0, 0.0, -2.5] + [0.0] * 60 + [1e300]),
       SymbolSpec.explicit([0.0, 3.0])])
SWEEP_WINDOWS = [Window(series_tail_rel=rel).with_n_max(n)
                 for n in (4, 5, 7, 64, 100, 256, 1024, 4096)
                 for rel in (1e-300, 0.5)]


def sweep_mismatches() -> tuple[int, int, int, int, list[tuple[int, int, int]]]:
    """(cases, gradings, settled gradings, warm reads that ran the check
    again, (space, symbol, window) indices of the memberships whose report
    differs from the reference's).  Every membership is read twice, cold
    and then from the memo, and both reads must give the reference's bytes;
    only a general space's warm read runs the check again."""
    counts = [0, 0, 0]

    def counted(block):
        settled = spaces._settled_rows(block)
        counts[0] += len(settled)
        counts[1] += int(settled.sum())
        return settled

    def rerun(block):
        counts[2] += 1
        return spaces._settled_rows(block)

    cases = [(i, j, w) for i in range(len(SWEEP_SPACES))
             for j in range(len(SWEEP_SYMBOLS)) for w in range(len(SWEEP_WINDOWS))]

    def reports(check):
        return [_dumps(check(SWEEP_SYMBOLS[j], SWEEP_SPACES[i], SWEEP_WINDOWS[w])
                       .to_json()) for i, j, w in cases]

    spaces._exponent_values.cache_clear()
    with mock.patch.object(operators, "_settled_rows", counted):
        cold = reports(membership_in_space)
    with mock.patch.object(operators, "_settled_rows", rerun):
        warm = reports(membership_in_space)
    want = reports(ref.membership_in_space)
    mismatched = [case for case, ref_bytes, cold_bytes, warm_bytes
                  in zip(cases, want, cold, warm)
                  if not ref_bytes == cold_bytes == warm_bytes]
    return len(cases), *counts, mismatched


if __name__ == "__main__":
    cases, gradings, settled, reruns, mismatched = sweep_mismatches()
    print(f"{cases} memberships, {settled} of {gradings} gradings settled "
          f"without the series pass; {reruns} warm reads ran the check again; "
          f"reports that differ: {mismatched}")
    general = sum(space.alpha is None for space in SWEEP_SPACES)
    sys.exit(1 if mismatched
             or reruns != general * len(SWEEP_SYMBOLS) * len(SWEEP_WINDOWS) else 0)
