"""The window-view column-norm kernel against the clip-and-gather reference.

Both kernels compute the same terms in the same (offset, column) layout; the
window-view kernel only leaves out the rows at a block's end that cannot move
its bits.  So every comparison here is exact: ``np.array_equal``, not a
tolerance.

A symbol supported at offset 0 alone has its profile in closed form, with
no walk; those profiles are held against the merged reference itself.  Run
as a script, a seeded sweep of 2,000 random such operators does so, and
the script exits 1 on any difference:

    python tests/test_profile_kernel.py
"""

import hashlib
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from koethe import operators, spaces
from koethe.operators import (
    _BLOCK,
    NormKind,
    Symbol,
    SymbolSpec,
    ToeplitzOperator,
    Variant,
    _profiles,
    _runs,
    _symbol_run,
    _symbol_side,
    _walk,
    _weight_run,
    _weight_side,
    column_norm_profiles,
)
from koethe.spaces import _ROUNDING_LOG, ExponentSequence, SpaceDescriptor, weight_array
import reference_kernels
from reference_kernels import (
    gather_kernel,
    gather_run_profile,
    same_exp_log_build,
    uncached_profile,
)

ALPHAS = [
    ExponentSequence.power(0.5),
    ExponentSequence.affine(1.0),
    ExponentSequence.power(2.0),
    ExponentSequence.logarithmic(),
]
SPACES = ([SpaceDescriptor.power_series_finite(a) for a in ALPHAS]
          + [SpaceDescriptor.power_series_infinite(a) for a in ALPHAS])


def make_op(variant, lower, upper, domain, codomain):
    sym = Symbol(lower=lower if variant is not Variant.UPPER else None,
                 upper=upper if variant is not Variant.LOWER else None)
    return ToeplitzOperator(sym, variant, domain, codomain)


def run_profile(u, v, direction, n_trunc, norm, cols=None):
    """One run's walk on weights padded to that run's own support alone,
    n_trunc + i_top rows, so a read past them raises."""
    run = _symbol_run(u, direction, n_trunc)
    weights = _weight_run(v, direction, n_trunc)
    (m,), (s,) = _walk(run, weights._replace(
        pad=weights.pad[: n_trunc + run.i_top],
        v_reach=weights.v_reach[: n_trunc + run.i_top]), n_trunc, norm, cols)
    return m, s


def member_setup(op, k, n_trunc):
    """``op``'s symbol side at n_trunc and the weight sides of grading k,
    as the tameness check looks them up."""
    runs = _symbol_side(op, n_trunc)
    return runs, [_weight_side(op.codomain, k, n_trunc, run.direction) for run in runs]


def member_profile(op, k, n_trunc, norm, cols=None):
    """``op``'s profile walked on :func:`member_setup`, as one row."""
    [profile] = _profiles(*member_setup(op, k, n_trunc), n_trunc, norm, cols)
    return profile


def assert_raw_kernels_agree(u, v, direction, norm):
    n = len(v)
    m_new, s_new = run_profile(u, v, direction, n, norm)
    m_ref, s_ref = gather_run_profile(u, v, direction, n, norm)
    assert np.array_equal(m_new, m_ref)
    assert np.array_equal(s_new, s_ref)


def assert_kernels_agree(op, k, n, norm):
    v = weight_array(op.codomain, k, n)
    for u, direction in _runs(op, n, log=True):
        assert_raw_kernels_agree(u, v, direction, norm)
    profile = uncached_profile(op, k, n, norm)
    with gather_kernel():
        reference = uncached_profile(op, k, n, norm)
    assert np.array_equal(profile, reference)
    # the memoised profile in both norms has the bits of a walk on the
    # family's memoised weight sides, the tameness check's shape
    for kind in NormKind:
        assert operators.column_norm_profile(op, k, n, kind).tobytes() \
            == member_profile(op, k, n, kind).tobytes()


@pytest.mark.parametrize("norm", list(NormKind))
def test_profiles_under_gather_kernel_come_from_the_reference(norm):
    # gather_kernel replaces the walk that column_norm_profile drives, so
    # each run of a profile computed inside it is gather_run_profile's: a
    # shifted reference shifts the profile
    op = make_op(Variant.FULL, SymbolSpec.geometric(0.5), SymbolSpec.geometric(-0.25),
                 SPACES[0], SPACES[1])
    directions = []

    def shifted(u, v, direction, *args):
        directions.append(direction)
        m, s = gather_run_profile(u, v, direction, *args)
        return m + 1.0, s

    with gather_kernel():
        reference = uncached_profile(op, 3, 300, norm)
        with mock.patch.object(reference_kernels, "gather_run_profile", shifted):
            moved = uncached_profile(op, 3, 300, norm)
    assert directions == [1, -1]
    assert np.allclose(moved, reference + 1.0, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n", [7, _BLOCK, 300, 2 * _BLOCK + 100])
@pytest.mark.parametrize("norm", list(NormKind))
@pytest.mark.parametrize("variant", list(Variant))
def test_kernels_agree_on_fixed_cases(variant, norm, n):
    lower = SymbolSpec.geometric(0.9)
    upper = SymbolSpec.explicit([0.5, -2.0, 0.0, 3.0] * 40)
    for domain, codomain in [(SPACES[5], SPACES[1]), (SPACES[2], SPACES[6])]:
        op = make_op(variant, lower, upper, domain, codomain)
        for k in (1, 6, 12):
            assert_kernels_agree(op, k, n, norm)


@pytest.mark.parametrize("norm", list(NormKind))
def test_kernels_agree_on_slow_upper_symbol_past_two_blocks(norm):
    # r = 0.99 loses only ~2.6 per block, so every offset block stays inside
    # the _ROUNDING_LOG band up to the top columns
    n = 4 * _BLOCK + 37
    op = make_op(Variant.UPPER, None, SymbolSpec.geometric(0.99),
                 SPACES[1], SPACES[1])
    for k in (1, 12):
        assert_kernels_agree(op, k, n, norm)
        (u, direction), = _runs(op, n, log=True)
        v = weight_array(op.codomain, k, n)
        cut = u.copy()
        cut[3 * _BLOCK:] = -np.inf
        full_m, _ = run_profile(u, v, direction, n, norm)
        cut_m, _ = run_profile(cut, v, direction, n, norm)
        assert not np.array_equal(full_m, cut_m)  # blocks past 3*_BLOCK count


@pytest.mark.parametrize("norm", list(NormKind))
def test_one_column_block_keeps_its_rows(norm):
    # only column 1 is active in the second block (rows 257..300), and its
    # five comparable terms end in a cliff.  The block is too small to be
    # searched, so it keeps its rows; searched, it is cut after those five,
    # and as it is summed row by row beside its log-zero companion, like any
    # wider block, no bit moves
    n = _BLOCK + 44
    v = np.zeros(n)
    v[:_BLOCK] = -100.0
    u = np.full(n, -300.0)
    u[:_BLOCK] = 0.0
    u[_BLOCK : _BLOCK + 5] = -67.0 + np.array([-0.5, -0.5, -0.25, -0.5, -0.5])
    assert_raw_kernels_agree(u, v, 1, norm)
    (m_cut, s_cut), (m, s) = searched_and_whole(u, v, 1, norm)
    assert m.tobytes() == m_cut.tobytes() and s.tobytes() == s_cut.tobytes()


class _RowCounter:
    """numpy as the kernel sees it, counting the offset rows of the blocks
    it fills (each block's terms are written by one ``np.add(..., out=)``)."""

    def __init__(self):
        self.rows = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def add(self, *args, out=None, **kwargs):
        if out is not None:
            self.rows += out.shape[0]
        return np.add(*args, out=out, **kwargs)


def evaluated_rows(monkeypatch, u, v, direction, norm):
    """Offset rows a run's walk evaluates over all its blocks."""
    counter = _RowCounter()
    with monkeypatch.context() as patch:
        patch.setattr(operators, "np", counter)
        run_profile(u, v, direction, len(v), norm)
    return counter.rows


@pytest.mark.parametrize("tail", [-_ROUNDING_LOG - 1e-9, -_ROUNDING_LOG,
                                  -_ROUNDING_LOG + 1e-9, -33.0])
@pytest.mark.parametrize("direction", [1, -1])
def test_sum_cut_at_the_rounding_horizon(monkeypatch, direction, tail):
    # flat weights put every column's first row at 0 and the sum just above
    # 1, where half an ulp is 2^-53 ~ e^-36.7; rows 1..39 move the sum, row 40
    # is the tail, and past it nothing is left.  The floor is -_ROUNDING_LOG:
    # a tail on or below it is cut, one above it is kept
    n = 3 * _BLOCK
    u = np.full(n, -500.0)
    u[0] = 0.0
    u[1:40] = -20.0 - np.arange(39) / 64.0
    u[40] = tail
    v = np.zeros(n)
    assert_raw_kernels_agree(u, v, direction, NormKind.SUM)
    assert evaluated_rows(monkeypatch, u, v, direction, NormKind.SUM) \
        == 40 + (tail > -_ROUNDING_LOG)
    # a tail past 2^-53 moves the sum, one at the horizon does not
    without = u.copy()
    without[40] = -500.0
    _, s = run_profile(u, v, direction, n, NormKind.SUM)
    _, s_without = run_profile(without, v, direction, n, NormKind.SUM)
    assert np.array_equal(s, s_without) == (tail < -36.0)


@pytest.mark.parametrize("offset", [-1e-9, 1e-9])
@pytest.mark.parametrize("direction", [1, -1])
def test_sum_block_skip_at_the_negligible_margin(monkeypatch, direction, offset):
    # flat weights put every column's running scale at 0 once the first
    # block is cut after its two head rows; the second block opens with the
    # only other term above e^-500, just below or just above the skip margin
    # -_ROUNDING_LOG - log n, so the 512 columns it reaches are skipped, or
    # evaluated for their two head rows.  (The exact tie is left out:
    # -40 - log n + log n need not round back to -40.)  The reference skips
    # at its own, wider margin, so it evaluates the block either way
    n = 3 * _BLOCK
    u = np.full(n, -500.0)
    u[0] = 0.0
    u[_BLOCK] = -_ROUNDING_LOG - math.log(n) + offset
    v = np.zeros(n)
    assert_raw_kernels_agree(u, v, direction, NormKind.SUM)
    assert evaluated_rows(monkeypatch, u, v, direction, NormKind.SUM) \
        == (4 if offset > 0 else 2)


@pytest.mark.parametrize("tail", [0.0, 1e-9])
@pytest.mark.parametrize("direction", [1, -1])
def test_sup_cut_and_skip_at_the_max(monkeypatch, direction, tail):
    # flat weights put every column's first row at 0; rows 1..255 lie below
    # it and the second block opens with the tail.  A tail that ties the max
    # cuts the first block after its two head rows and skips the second
    # (peak == running max); one just above it keeps both
    n = 3 * _BLOCK
    u = np.full(n, -500.0)
    u[0] = 0.0
    u[1:_BLOCK] = -1.0 - np.arange(_BLOCK - 1) / 64.0
    u[_BLOCK] = tail
    v = np.zeros(n)
    assert_raw_kernels_agree(u, v, direction, NormKind.SUP)
    assert evaluated_rows(monkeypatch, u, v, direction, NormKind.SUP) \
        == (_BLOCK + 2 if tail > 0.0 else 2)


@pytest.mark.parametrize("norm", list(NormKind))
def test_full_upper_run_is_cut_below_its_log_zero_head(monkeypatch, norm):
    # the full variant's upper run has log-zero at offset 0 (the diagonal
    # lives in the lower run), so its floor comes from offset 1
    n, k = 4096, 3
    geo = SymbolSpec.geometric(0.3)
    op = make_op(Variant.FULL, geo, geo, SPACES[4], SPACES[5])
    assert_kernels_agree(op, k, n, norm)
    (_, _), (u, direction) = _runs(op, n, log=True)
    assert direction == -1 and np.isneginf(u[0])
    assert evaluated_rows(monkeypatch, u, weight_array(op.codomain, k, n),
                          direction, norm) <= 16


heads = st.sampled_from([None, 0.5, -2.0])
symbol_parts = st.one_of(
    st.builds(SymbolSpec.geometric, st.floats(-0.999, 0.999)),
    # slow decay keeps long runs of every block alive
    st.builds(SymbolSpec.geometric,
              st.floats(0.95, 0.9999) | st.floats(-0.9999, -0.95)),
    st.builds(SymbolSpec.explicit,
              st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=40)),
    # leading zeros put log-zero in the first block's first row, so that
    # block is not cut
    st.builds(lambda zeros, rest: SymbolSpec.explicit([0.0] * zeros + rest),
              st.integers(1, 3),
              st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=300)),
    st.builds(SymbolSpec.polynomial, st.integers(-3, 3)),
).flatmap(lambda spec: heads.map(
    lambda h: spec if h is None else spec.with_head(h)))


def test_the_cut_keeps_rows_that_rounding_hides_under_huge_weights():
    # at log weights of 1e308, u_i + v rounds every log(0.5) step away: the
    # last column's three terms all equal its max, so the cut may drop none
    u = np.log(0.5) * np.arange(5)
    v = np.array([1.0, 2.0] + [1e308] * 3)
    (m_cut, s_cut), (m, s) = searched_and_whole(u, v, -1, NormKind.SUM)
    assert m.tobytes() == m_cut.tobytes() and s.tobytes() == s_cut.tobytes()
    assert s[-1] == 3.0


@settings(max_examples=60, deadline=None)
@given(
    variant=st.sampled_from(list(Variant)),
    lower=symbol_parts,
    upper=symbol_parts,
    domain=st.sampled_from(SPACES),
    codomain=st.sampled_from(SPACES),
    k=st.integers(1, 12),
    n=st.integers(1, 1100),
    norm=st.sampled_from(list(NormKind)),
)
def test_kernels_agree_on_random_operators(variant, lower, upper, domain,
                                           codomain, k, n, norm):
    if variant is Variant.FULL:
        # a full symbol splits its diagonal into two nonzero halves
        lower = lower if lower.values_array(1)[0] != 0.0 else lower.with_head(1.0)
        upper = upper if upper.values_array(1)[0] != 0.0 else upper.with_head(1.0)
    op = make_op(variant, lower, upper, domain, codomain)
    assert_kernels_agree(op, k, n, norm)


def searched_and_whole(u, v, direction, norm):
    """A run's walk as it stands, and with every block searched for its cut."""
    n = len(v)
    whole = run_profile(u, v, direction, n, norm)
    with mock.patch.object(operators, "_SEARCH_TERMS", 0):
        searched = run_profile(u, v, direction, n, norm)
    return searched, whole


@pytest.mark.parametrize("norm", list(NormKind))
def test_small_blocks_keep_nan_terms_as_the_search_does(norm):
    # +inf weights meet the symbol's zero at offset 2 as NaN terms; the cut
    # drops offsets 2.. (their bound +inf is not above the floor +inf), so a
    # run with a +inf part must search even its small blocks
    n = 8
    u = np.full(n, -np.inf)
    u[:4] = [0.0, 0.0, -np.inf, 0.0]
    v = np.full(n, np.inf)
    for direction in (1, -1):
        (m_cut, s_cut), (m, s) = searched_and_whole(u, v, direction, norm)
        assert m.tobytes() == m_cut.tobytes() and s.tobytes() == s_cut.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    variant=st.sampled_from(list(Variant)),
    lower=symbol_parts,
    upper=symbol_parts,
    codomain=st.sampled_from(SPACES + [
        # log weights past float range: +inf from row 3 on for k >= 2
        SpaceDescriptor.power_series_infinite(
            ExponentSequence.table([1.0, 2.0] + [1e308] * 600))]),
    k=st.integers(1, 12),
    n=st.integers(1, 600),
    norm=st.sampled_from(list(NormKind)),
)
def test_small_blocks_skip_the_search_without_moving_a_bit(variant, lower, upper,
                                                           codomain, k, n, norm):
    if variant is Variant.FULL:
        lower = lower if lower.values_array(1)[0] != 0.0 else lower.with_head(1.0)
        upper = upper if upper.values_array(1)[0] != 0.0 else upper.with_head(1.0)
    op = make_op(variant, lower, upper, SPACES[0], codomain)
    v = weight_array(op.codomain, k, n)
    for u, direction in _runs(op, n, log=True):
        (m_cut, s_cut), (m, s) = searched_and_whole(u, v, direction, norm)
        assert m.tobytes() == m_cut.tobytes() and s.tobytes() == s_cut.tobytes()


def general_codomain(rng, rows: int, cols: int) -> SpaceDescriptor:
    """A tabulated codomain of ``rows`` rows, log weights rising in k, with
    some zero weights in the first of two or more gradings."""
    logs = (rng.uniform(-30.0, 30.0, size=(rows, 1))
            + np.cumsum(rng.uniform(0.0, 2.0, size=(rows, cols)), axis=1))
    weights = np.exp(logs)
    if cols > 1:
        weights[rng.random(rows) < 0.1, 0] = 0.0
    return SpaceDescriptor.general(weights.tolist())


@st.composite
def general_codomains(draw, rows: int):
    """:func:`general_codomain` with 1 to 12 gradings."""
    cols = draw(st.integers(1, 12))
    return general_codomain(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                            rows, cols)


@settings(max_examples=60, deadline=None)
@given(upper=symbol_parts, big=st.integers(1, 1100), data=st.data())
def test_upper_sup_profile_is_a_prefix_of_a_longer_one(upper, big, data):
    # an upper column n holds rows 1..n only, and a sup is exact whatever
    # the block schedule, so a longer truncation only appends columns
    n = data.draw(st.integers(1, big), label="n")
    codomain = data.draw(st.sampled_from(SPACES) | general_codomains(big),
                         label="codomain")
    k = data.draw(st.integers(1, codomain.k_limit or 12), label="k")
    op = make_op(Variant.UPPER, None, upper, SPACES[0], codomain)
    short = uncached_profile(op, k, n, NormKind.SUP)
    assert short.tobytes() == uncached_profile(op, k, big, NormKind.SUP)[:n].tobytes()
    sliced, top = column_norm_profiles(op, k, (n, big), NormKind.SUP)
    assert sliced.tobytes() == short.tobytes() and len(top) == big


def test_upper_profiles_are_sliced_in_both_norms():
    # at 300 only column 300 is active in the second offset block; at 600
    # the new columns 301.. join that block.  Either way its rows are summed
    # in order, so column 300 has the same bits, and one kernel call at 600
    # serves both truncations
    tail = np.exp(-67.0 + np.random.default_rng(28).uniform(-0.6, 0.0, 8))
    op = make_op(Variant.UPPER, None,
                 SymbolSpec.explicit([1.0] * _BLOCK + tail.tolist()), SPACES[0],
                 SpaceDescriptor.general([[1.0]] * 44 + [[math.exp(-100.0)]] * 556))
    original = operators.column_norm_profile
    for norm in NormKind:
        calls = []

        def spy(op, k, n_trunc, norm_kind):
            calls.append(n_trunc)
            return original(op, k, n_trunc, norm_kind)

        with mock.patch.object(operators, "column_norm_profile", spy):
            short, top = column_norm_profiles(op, 1, (300, 600), norm)
        assert calls == [600] and len(top) == 600
        assert short.tobytes() == uncached_profile(op, 1, 300, norm).tobytes()
        assert short.tobytes() == uncached_profile(op, 1, 600, norm)[:300].tobytes()


every_form = symbol_parts | st.builds(
    SymbolSpec.exp_of_exponent, st.floats(-3.0, 3.0), st.sampled_from(ALPHAS)
).flatmap(lambda spec: heads.map(lambda h: spec if h is None else spec.with_head(h)))


@settings(max_examples=80, deadline=None)
@given(variant=st.sampled_from(list(Variant)), lower=every_form, upper=every_form,
       big=st.integers(2, 1100), norm=st.sampled_from(list(NormKind)), data=st.data())
def test_a_column_range_has_the_full_profiles_bits(variant, lower, upper, big,
                                                   norm, data):
    # the range keeps the blocks, the skip, the cut and the allowance of the
    # full range, so a run's columns are the full run's, and the profile of
    # a range, even of one column, is the full profile's slice
    if variant is Variant.FULL:
        lower = lower if lower.values_array(1)[0] != 0.0 else lower.with_head(1.0)
        upper = upper if upper.values_array(1)[0] != 0.0 else upper.with_head(1.0)
    codomain = data.draw(st.sampled_from(SPACES) | general_codomains(big),
                         label="codomain")
    k = data.draw(st.integers(1, codomain.k_limit or 12), label="k")
    c0 = data.draw(st.integers(0, big - 1), label="c0")
    c1 = data.draw(st.integers(c0 + 1, big), label="c1")
    op = make_op(variant, lower, upper, SPACES[0], codomain)
    v = weight_array(op.codomain, k, big)
    for u, direction in _runs(op, big, log=True):
        (m_ranged, s_ranged), (m, s) = (run_profile(u, v, direction, big, norm, cols)
                                        for cols in ((c0, c1), None))
        assert m_ranged.tobytes() == m[c0:c1].tobytes()
        assert s_ranged.tobytes() == s[c0:c1].tobytes()
    full = uncached_profile(op, k, big, norm)
    assert member_profile(op, k, big, norm, (c0, c1)).tobytes() == full[c0:c1].tobytes()
    bounds = reference_kernels.bounded_setup(op, k, big).bounds(norm)
    if bounds is not None:
        lower_bound, upper_bound = bounds
        assert (lower_bound <= full).all() and (full <= upper_bound).all()


def assert_shared_walks_match(specs, v, n, norm, cols):
    """The walk of every part in ``specs``, each way, on one weight side
    per direction built for any support (as the tameness check keeps it,
    and read by each member as far as its own support reaches) has the bits
    of :func:`run_profile`, whose weights end at that member's support;
    no walk writes to the shared weight side."""
    shared = {direction: _weight_run(v, direction, n) for direction in (1, -1)}

    def state():
        return {d: (w.pad.tobytes(), w.v_reach.tobytes()) for d, w in shared.items()}

    before = state()
    for spec in specs:
        u = spec.log_abs_array(n)
        for direction, weights in shared.items():
            (m,), (s,) = _walk(_symbol_run(u, direction, n), weights, n, norm, cols)
            m_ref, s_ref = run_profile(u, v, direction, n, norm, cols)
            assert m.tobytes() == m_ref.tobytes() and s.tobytes() == s_ref.tobytes()
    assert state() == before


@settings(max_examples=60, deadline=None)
@given(variant=st.sampled_from(list(Variant)), lower=every_form, upper=every_form,
       others=st.lists(every_form, max_size=3), big=st.integers(2, 1100),
       norm=st.sampled_from(list(NormKind)), data=st.data())
def test_walks_on_a_shared_set_up_have_the_kernels_bits(variant, lower, upper, others,
                                                         big, norm, data):
    # the tameness check builds each grading's weight side once for every
    # member and direction, and each member's symbol side once for every
    # grading; the ranged profile and the reference bounds both read that
    # set-up, and the bounds exist where every symbol log and weight is bounded
    if variant is Variant.FULL:
        lower = lower if lower.values_array(1)[0] != 0.0 else lower.with_head(1.0)
        upper = upper if upper.values_array(1)[0] != 0.0 else upper.with_head(1.0)
    codomain = data.draw(st.sampled_from(SPACES) | general_codomains(big),
                         label="codomain")
    k = data.draw(st.integers(1, codomain.k_limit or 12), label="k")
    c0 = data.draw(st.integers(0, big - 1), label="c0")
    cols = data.draw(st.none() | st.tuples(st.just(c0), st.integers(c0 + 1, big)),
                     label="cols")
    v = weight_array(codomain, k, big)
    assert_shared_walks_match([lower, upper, *others], v, big, norm, cols)
    op = make_op(variant, lower, upper, SPACES[0], codomain)
    profile = operators.column_norm_profile(op, k, big, norm)[slice(*cols or (0, big))]
    assert member_profile(op, k, big, norm, cols).tobytes() == profile.tobytes()
    bounded = reference_kernels._bounded(v) and all(
        reference_kernels._bounded(u) for u, _ in _runs(op, big, log=True))
    assert (reference_kernels.bounded_setup(op, k, big).bounds(norm) is not None) == bounded


@pytest.mark.parametrize("norm", list(NormKind))
def test_shared_walks_of_a_finite_support(norm):
    # an explicit symbol stops at offset 3 of 300, so a member reads the
    # pad built for any support only up to row n + 3
    n = 300
    spec = SymbolSpec.explicit([1.0, -0.5, 0.25])
    assert _symbol_run(spec.log_abs_array(n), 1, n).i_top == 3
    v = weight_array(SPACES[1], 4, n)
    for cols in (None, (0, 5), (290, 300), (100, 101)):
        assert_shared_walks_match([spec, SymbolSpec.geometric(0.5)], v, n, norm, cols)


def test_shared_walks_keep_a_one_column_block_in_its_range():
    # the one-column block of test_a_one_column_block_of_a_range_keeps_the_
    # range, walked each way on a shared set-up: no walk widens to the full
    # range, and the range has the bits of the full walk's slice
    n = _BLOCK + 44
    tail = np.exp(-67.0 + np.array([-0.5, -0.5, -0.25, -0.5, -0.5]))
    spec = SymbolSpec.explicit([1.0] * _BLOCK + tail.tolist())
    v = weight_array(
        SpaceDescriptor.general([[math.exp(-100.0)]] * _BLOCK + [[1.0]] * 44), 1, n)
    original = operators._walk
    seen = []

    def spy(*args):
        seen.append(args[4] if len(args) > 4 else None)
        return original(*args)

    with mock.patch.object(operators, "_walk", spy):
        assert_shared_walks_match([spec], v, n, NormKind.SUM, (0, 2))
    assert seen and None not in seen
    u = spec.log_abs_array(n)
    for direction in (1, -1):
        (m, s), (m_full, s_full) = (run_profile(u, v, direction, n, NormKind.SUM, cols)
                                    for cols in ((0, 2), None))
        assert m.tobytes() == m_full[:2].tobytes() and s.tobytes() == s_full[:2].tobytes()


@pytest.mark.parametrize("norm", list(NormKind))
def test_shared_walks_with_an_infinite_part(norm):
    # +inf weights (log weights past float range from row 3 on at k = 2)
    # and +inf symbol logs make NaN terms possible, so every block of the
    # walk is searched
    n = 32
    table = ExponentSequence.table([1.0, 2.0] + [1e308] * 30)
    v = weight_array(SpaceDescriptor.power_series_infinite(table), 2, n)
    assert _weight_run(v, 1, n).v_reach[0] == np.inf
    specs = [SymbolSpec.explicit([1.0, 0.0, 1.0]), SymbolSpec.geometric(0.5),
             SymbolSpec.exp_of_exponent(2.0, table)]
    for cols in (None, (0, 2), (3, 20)):
        assert_shared_walks_match(specs, v, n, norm, cols)
        assert_shared_walks_match(specs, weight_array(SPACES[1], 2, n), n, norm, cols)


def test_weight_sides_are_kept_per_space_kind_and_direction():
    # Λ₀(n^0.5) and Λ∞(n^0.5) keep their weight sides among the facts of one
    # sequence, as do a grading's downward and upward sides: each must get
    # its own, whichever was built first
    n = 300
    op = make_op(Variant.FULL, SymbolSpec.geometric(0.5), SymbolSpec.geometric(-0.5),
                 SPACES[0], SPACES[0])
    for codomains in [(SPACES[0], SPACES[4]), (SPACES[4], SPACES[0])]:
        spaces._exponent_values.cache_clear()
        for codomain in codomains:
            twin = ToeplitzOperator(op.symbol, op.variant, codomain, codomain)
            for norm in NormKind:
                profile = uncached_profile(twin, 2, n, norm)
                assert member_profile(twin, 2, n, norm).tobytes() == profile.tobytes()


def test_a_one_column_block_of_a_range_keeps_the_range():
    # in the second offset block only column 1 is active (see
    # test_one_column_block_keeps_its_rows): inside the range [0, 2) that
    # block is one column wide, and it is summed row by row like the full
    # range's, so the walk keeps the range, on the set-up it was given, and
    # has the full profile's bits
    n = _BLOCK + 44
    tail = np.exp(-67.0 + np.array([-0.5, -0.5, -0.25, -0.5, -0.5]))
    op = make_op(Variant.LOWER, SymbolSpec.explicit([1.0] * _BLOCK + tail.tolist()),
                 None, SPACES[0],
                 SpaceDescriptor.general([[math.exp(-100.0)]] * _BLOCK + [[1.0]] * 44))
    runs, sides = member_setup(op, 1, n)
    original = operators._walk
    for norm in NormKind:
        seen = []

        def spy(*args):
            seen.append(args)
            return original(*args)

        with mock.patch.object(operators, "_walk", spy):
            [ranged] = _profiles(runs, sides, n, norm, (0, 2))
        [(run, weights, _, _, cols)] = seen
        assert cols == (0, 2) and run is runs[0] and weights is sides[0]
        assert ranged.tobytes() == uncached_profile(op, 1, n, norm)[:2].tobytes()


#: the parts of symbols supported at offset 0 alone, with or without a head:
#: theta_0 = c, r = 0, and e^{-2 alpha} where alpha jumps from 0 past float
#: range, whose log at 0 is -0.0 and -inf after it
ONE_TERM_PARTS = [spec if h is None else spec.with_head(h)
                  for spec in [SymbolSpec.geometric(0.0), SymbolSpec.exp_of_exponent(
                      -2.0, ExponentSequence.table([0.0] + [1e308] * 1100))]
                  + [SymbolSpec.explicit([sign * c]) for c in (1e-300, 0.5, 1.0, 3.0, 1e300)
                     for sign in (1.0, -1.0)]
                  for h in (None, 0.5, -2.0)]


def one_term_codomain(rng, kind: int, rows: int) -> SpaceDescriptor:
    """Codomain ``kind`` of ``rows`` rows: 0, a power series of a closed
    form; 1, of an exponent table whose zeros give log weights 0.0 (Λ∞) or
    -0.0 (Λ₀); 2, a general space with zero weights (log-zero)."""
    if kind == 0:
        return SPACES[rng.integers(len(SPACES))]
    if kind == 1:
        alpha = np.sort(rng.uniform(0.0, 40.0, rows))
        alpha[: rng.integers(4)] = 0.0
        space = (SpaceDescriptor.power_series_finite,
                 SpaceDescriptor.power_series_infinite)[rng.integers(2)]
        return space(ExponentSequence.table(alpha.tolist()))
    return general_codomain(rng, rows, int(rng.integers(1, 13)))


def one_term_differs(variant, lower, upper, kind, n, norm, seed) -> bool:
    """Does a one-term operator's profile differ from the merged reference?
    A full operator's upper part keeps its all-zero tail; its diagonal is
    the parts' heads summed, zero where they cancel."""
    rng = np.random.default_rng(seed)
    codomain = one_term_codomain(rng, kind, n)
    k = int(rng.integers(1, (codomain.k_limit or 12) + 1))
    op = make_op(variant, lower, upper, SPACES[0], codomain)
    return uncached_profile(op, k, n, norm).tobytes() \
        != reference_kernels.merged_profile(op, k, n, norm).tobytes()


@settings(max_examples=100, deadline=None)
# a -0.0 symbol log on -0.0 log weights (seed 1: alpha_1..3 = 0 in Λ₀), a
# -0.0 column sup and a 0.0 column sum
@example(Variant.LOWER, ONE_TERM_PARTS[3], None, 1, 5, NormKind.SUM, 1)
@example(Variant.UPPER, None, ONE_TERM_PARTS[3], 1, 5, NormKind.SUP, 1)
@given(variant=st.sampled_from(list(Variant)), lower=st.sampled_from(ONE_TERM_PARTS),
       upper=st.sampled_from(ONE_TERM_PARTS), kind=st.integers(0, 2),
       n=st.integers(1, 1100), norm=st.sampled_from(list(NormKind)),
       seed=st.integers(0, 2**32 - 1))
def test_one_term_profiles_have_the_references_bits(variant, lower, upper, kind, n,
                                                   norm, seed):
    # the kernel gives these profiles in closed form, without a walk, so
    # they are held against the reference itself, not under gather_kernel
    assert not one_term_differs(variant, lower, upper, kind, n, norm, seed)


@pytest.mark.parametrize("norm", list(NormKind))
def test_a_one_term_profile_walks_only_on_an_infinite_weight(norm):
    calls = []

    def spy(name):
        original = getattr(operators, name)

        def counted(*args):
            calls.append(name)
            return original(*args)
        return counted

    delta = make_op(Variant.LOWER, SymbolSpec.delta(), None, SPACES[0], SPACES[5])
    # log weights 2, 4 and then past float range, +inf
    wild = make_op(Variant.LOWER, SymbolSpec.delta(), None, SPACES[0],
                   SpaceDescriptor.power_series_infinite(
                       ExponentSequence.table([1.0, 2.0] + [1e308] * 30)))
    with mock.patch.object(operators, "_weight_run", spy("_weight_run")), \
            mock.patch.object(operators, "_walk", spy("_walk")):
        one = uncached_profile(delta, 3, 300, norm)
        assert calls == []
        walked = uncached_profile(wild, 2, 8, norm)
        assert calls == ["_weight_run", "_walk"]
    assert one.tobytes() == reference_kernels.merged_profile(delta, 3, 300, norm).tobytes()
    assert walked.tobytes() == reference_kernels.merged_profile(wild, 2, 8, norm).tobytes()
    # a +inf term's inf - inf is NaN in a sum, which reads as log-zero
    tail = -np.inf if norm is NormKind.SUM else np.inf
    assert walked.tolist() == [2.0, 4.0] + [tail] * 6


#: sha256 of the profiles below, recorded before the kernel was cut at the
#: rounding horizon
PROFILE_DIGEST = "d53994b036e442c0b2334ab436d1a9ba530c6e9f772d79d08449740b96571450"


#: sha256 of the same profiles at small truncations, where a block holds few
#: terms, recorded before the kernel skipped the cut's search on such blocks
SMALL_PROFILE_DIGEST = "0181288ef16c60eaf48fbf05e9c100433b425da5e86659ffe6d0715586fd5482"


def profile_digest(truncations) -> str:
    # the domain does not enter a profile: 3 variants x the 6 spaces of the
    # cross-validation grid as codomain x 4 symbols = 72 operators
    alphas = [ExponentSequence.affine(1.0), ExponentSequence.power(2.0),
              ExponentSequence.power(0.5)]
    codomains = ([SpaceDescriptor.power_series_finite(a) for a in alphas]
                 + [SpaceDescriptor.power_series_infinite(a) for a in alphas])
    symbols = [SymbolSpec.delta(), SymbolSpec.geometric(0.5),
               SymbolSpec.geometric(0.99),
               SymbolSpec.explicit([0.5, -2.0, 0.0, 3.0] * 40)]
    digest = hashlib.sha256()
    for n in truncations:
        for variant in Variant:
            for codomain in codomains:
                for spec in symbols:
                    op = make_op(variant, spec, spec, codomains[0], codomain)
                    for k in (1, 6, 12):
                        for norm in NormKind:
                            digest.update(uncached_profile(op, k, n, norm).tobytes())
    return digest.hexdigest()


def test_profiles_match_the_recorded_digest():
    if not same_exp_log_build():
        pytest.skip("this numpy build rounds exp or log differently")
    assert profile_digest([1024]) == PROFILE_DIGEST


def test_small_profiles_match_the_recorded_digest():
    # at these truncations most blocks hold few terms
    if not same_exp_log_build():
        pytest.skip("this numpy build rounds exp or log differently")
    assert profile_digest([2, 16, 64, 128, 256]) == SMALL_PROFILE_DIGEST


def sweep(count: int = 2000) -> int:
    """How many of ``count`` seeded random one-term operators have a
    profile that differs from the merged reference's; each is printed."""
    rng = np.random.default_rng(37)
    bad = 0
    for _ in range(count):
        parts = rng.integers(len(ONE_TERM_PARTS), size=2).tolist()
        case = (list(Variant)[rng.integers(3)], int(rng.integers(3)),
                int(rng.integers(1, 1101)), list(NormKind)[rng.integers(2)],
                int(rng.integers(2**32)))
        variant, *rest = case
        if one_term_differs(variant, *(ONE_TERM_PARTS[i] for i in parts), *rest):
            bad += 1
            print(f"ONE_TERM_PARTS{parts}", *case)
    return bad


if __name__ == "__main__":
    count = 2000
    bad = sweep(count)
    print(f"{count} one-term profiles: {bad} differ")
    sys.exit(1 if bad else 0)
