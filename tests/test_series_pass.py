"""The series pass over a block of rows, against its one-series reference.

``spaces._prefix_lse`` reduces a ``(rows, n)`` block one halving segment at
a time across all rows, and ``membership_in_space`` classifies all its
gradings in one such pass.  ``reference_kernels`` keeps the one-series
classification and the per-grading membership loop that came before; every
row's partial sums must equal them bit for bit, and every membership report
must equal theirs.  The suite turns every ``RuntimeWarning`` into an error,
so a warning that escapes the pass fails here too.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from koethe import spaces
from koethe.operators import SymbolSpec, membership_in_space
from koethe.spaces import (
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


# -- memberships --------------------------------------------------------------


def _same_membership(spec, space, win):
    got = membership_in_space(spec, space, win)
    assert got.to_json() == ref.membership_in_space(spec, space, win).to_json()
    return got


def test_a_series_diverging_past_the_first_grading_names_its_witness():
    # sum_j 0.01^j e^{k(j+1)} diverges once k > log 100 = 4.6
    verdict = _same_membership(SymbolSpec.geometric(0.01), LINF_N,
                               Window().with_n_max(256))
    assert verdict.outcome is Outcome.FAILS_ON_WINDOW
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
@given(spec=SYMBOLS, space=SPACES, n_max=st.sampled_from([4, 5, 64, 100, 256]),
       k_max=st.integers(1, 12))
def test_membership_reports_equal_the_per_grading_loop(spec, space, n_max, k_max):
    _same_membership(spec, space, Window(k_max=k_max).with_n_max(n_max))


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
