"""Operators: symbols, columns, application paths, memberships."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from koethe.errors import InvariantError, UnsupportedCombinationError, WindowError
from koethe.logdomain import LOG_ZERO
from koethe.operators import (
    NormKind,
    Symbol,
    SymbolSpec,
    ToeplitzOperator,
    Variant,
    _dense_matrix,
    _runs,
    apply_dense,
    apply_fast,
    column,
    column_norm,
    column_norm_profile,
    decompose,
    membership_in_dual,
    membership_in_space,
)
from koethe.spaces import (
    ExponentSequence,
    SpaceDescriptor,
    seminorm_sum,
    seminorm_sup,
    weight,
)
from koethe.verdicts import Outcome, Window

ALPHA_N = ExponentSequence.affine(1.0)
ALPHA_N2 = ExponentSequence.power(2.0)
L1_N = SpaceDescriptor.power_series_finite(ALPHA_N)
L1_N2 = SpaceDescriptor.power_series_finite(ALPHA_N2)
LINF_N = SpaceDescriptor.power_series_infinite(ALPHA_N)

DELTA = SymbolSpec.delta()


def lower_op(spec, domain=L1_N, codomain=L1_N):
    return ToeplitzOperator(Symbol(lower=spec), Variant.LOWER, domain, codomain)


def upper_op(spec, domain=L1_N, codomain=L1_N):
    return ToeplitzOperator(Symbol(upper=spec), Variant.UPPER, domain, codomain)


def full_op(lower, upper, domain=L1_N, codomain=L1_N):
    return ToeplitzOperator(Symbol(lower=lower, upper=upper), Variant.FULL,
                            domain, codomain)


# -- symbol specs -------------------------------------------------------------


def test_symbol_forms():
    assert SymbolSpec.geometric(0.5).values_array(4)[3] == 0.125
    assert SymbolSpec.polynomial(2).values_array(3)[2] == 9.0
    assert SymbolSpec.explicit([1.0, 2.0]).values_array(6)[5] == 0.0
    exp = SymbolSpec.exp_of_exponent(-1.0, ALPHA_N)
    assert exp.values_array(1)[0] == pytest.approx(math.exp(-1.0))
    assert exp.log_abs_array(4)[3] == -4.0


def test_symbol_log_abs_stays_finite_far_out():
    spec = SymbolSpec.geometric(0.5)
    assert spec.log_abs_array(10_001)[10_000] == 10_000 * math.log(0.5)
    grow = SymbolSpec.exp_of_exponent(1.0, ALPHA_N2)
    assert grow.log_abs_array(10_000)[9_999] == 10_000.0**2


def test_symbol_signs():
    vals = SymbolSpec.geometric(-0.5).values_array(2)
    assert np.sign(vals).tolist() == [1.0, -1.0]
    assert vals[1] == -0.5
    assert np.sign(SymbolSpec.explicit([0.0, -2.0]).values_array(2)[1]) == -1
    assert np.sign(SymbolSpec.explicit([0.0]).values_array(1)[0]) == 0


# finite parts whose values stay normal floats on j < 300, so the two
# evaluators can be compared entry by entry
signed_parts = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0]).flatmap(
        lambda s: st.floats(0.1, 1.5).map(lambda r: s * r)).map(SymbolSpec.geometric),
    st.lists(st.floats(-1e300, 1e300, allow_subnormal=False), max_size=40)
    .map(SymbolSpec.explicit),
    st.builds(SymbolSpec.exp_of_exponent, st.floats(-2.0, 2.0),
              st.sampled_from([ALPHA_N, ExponentSequence.logarithmic(),
                               ExponentSequence.power(0.5)])),
    st.integers(-100, 100).map(SymbolSpec.polynomial),
)


@settings(max_examples=200, deadline=None)
@given(spec=signed_parts,
       head=st.none() | st.floats(-1e300, 1e300, allow_subnormal=False),
       count=st.integers(1, 300))
def test_value_and_log_evaluators_agree(spec, head, count):
    if head is not None:
        spec = spec.with_head(head)
    vals, logs = spec.values_array(count), spec.log_abs_array(count)
    nonzero = np.isfinite(vals) & (vals != 0.0)
    assert np.log(np.abs(vals[nonzero])) == pytest.approx(logs[nonzero], rel=1e-12)
    assert (logs[vals == 0.0] == LOG_ZERO).all()


def test_symbol_head_override():
    spec = SymbolSpec.geometric(0.5).with_head(3.0)
    assert spec.values_array(2).tolist() == [3.0, 0.5]
    assert spec.log_abs_array(1)[0] == math.log(3.0)
    arr = spec.values_array(4)
    assert arr[0] == 3.0 and arr[2] == 0.25


@pytest.mark.parametrize("build", [
    lambda: SymbolSpec.geometric(math.nan),
    lambda: SymbolSpec.explicit([1.0, math.nan]),
    lambda: SymbolSpec.exp_of_exponent(math.nan, ALPHA_N),
    lambda: SymbolSpec.geometric(0.5).with_head(math.nan),
])
def test_nan_symbols_are_refused(build):
    # a NaN symbol would read as a member of every space
    with pytest.raises(InvariantError):
        build()


def test_symbol_json_roundtrip():
    specs = [
        SymbolSpec.geometric(0.5),
        SymbolSpec.explicit([1.0, -2.0]),
        SymbolSpec.polynomial(3),
        SymbolSpec.exp_of_exponent(-1.0, ALPHA_N2).with_head(2.0),
    ]
    for spec in specs:
        assert SymbolSpec.from_json(spec.to_json()) == spec
    sym = Symbol(lower=specs[0], upper=specs[1])
    assert Symbol.from_json(sym.to_json()) == sym


# -- decomposition -------------------------------------------------------------


def test_decompose_bookkeeping():
    sub = SymbolSpec.explicit([2.0, 5.0])
    sup = SymbolSpec.explicit([2.0, 7.0])
    sym = decompose(sub, sup, (1.0, 1.0))
    assert sym.lower.values_array(2).tolist() == [1.0, 5.0]
    assert sym.upper.values_array(2).tolist() == [1.0, 7.0]
    assert sym.diagonal == 2.0


def test_decompose_identity_case():
    sym = decompose(SymbolSpec.explicit([1.0]), SymbolSpec.explicit([1.0]),
                    (0.5, 0.5))
    op = ToeplitzOperator(sym, Variant.FULL, L1_N, L1_N)
    assert np.array_equal(_dense_matrix(op, 6), np.eye(6))


def test_decompose_rejects_bad_split():
    sub = SymbolSpec.explicit([2.0, 5.0])
    sup = SymbolSpec.explicit([2.0, 7.0])
    with pytest.raises(InvariantError):
        decompose(sub, sup, (2.0, 0.0))
    with pytest.raises(InvariantError):
        decompose(sub, sup, (1.0, 2.0))
    with pytest.raises(InvariantError):
        decompose(sub, SymbolSpec.explicit([3.0]), (1.0, 1.0))


def test_full_diagonal_beyond_float_range():
    # the diagonal is e^{1000} + 1, whose log rounds to 1000
    log_space = SpaceDescriptor.power_series_finite(ExponentSequence.logarithmic())
    op = full_op(SymbolSpec.exp_of_exponent(1000.0, ALPHA_N),
                 SymbolSpec.geometric(0.5), log_space, log_space)
    assert op.symbol.diagonal == math.inf
    assert _runs(op, 4, log=True)[0][0][0] == 1000.0
    assert column_norm(op, 1, 1, 1, NormKind.SUP) == 1000.0 + weight(log_space, 1, 1)


def test_full_diagonal_overflow_keeps_head_signs():
    # e^{710} overflows; 1e308 is a sizeable fraction of it
    lower = SymbolSpec.exp_of_exponent(710.0, ALPHA_N)
    scale = math.exp(710.0 - math.log(1e308))
    for head, expected in ((1e308, scale + 1.0), (-1e308, scale - 1.0)):
        op = full_op(lower, SymbolSpec.explicit([head]))
        got = _runs(op, 1, log=True)[0][0][0]
        assert got == pytest.approx(math.log(1e308) + math.log(expected), rel=1e-12)


def test_symbol_invariant_both_heads_nonzero():
    with pytest.raises(InvariantError):
        Symbol(lower=SymbolSpec.explicit([0.0, 1.0]), upper=DELTA)
    with pytest.raises(InvariantError):
        Symbol()
    huge = SymbolSpec.exp_of_exponent(1e5, ALPHA_N)  # e^{1e5} overflows a float
    assert Symbol(lower=huge, upper=DELTA).lower is huge


def test_dense_full_is_sum_of_parts_exactly():
    rng = np.random.default_rng(3)
    for _ in range(20):
        lower = SymbolSpec.explicit(rng.normal(size=8).tolist()).with_head(1.0)
        upper = SymbolSpec.explicit(rng.normal(size=8).tolist()).with_head(0.5)
        sym = Symbol(lower=lower, upper=upper)
        op = ToeplitzOperator(sym, Variant.FULL, L1_N, L1_N)
        dense = _dense_matrix(op, 16)
        parts = (_dense_matrix(lower_op(lower), 16)
                 + _dense_matrix(upper_op(upper), 16))
        assert np.array_equal(dense, parts)


def test_dense_toeplitz_structure():
    op = full_op(SymbolSpec.geometric(0.4), SymbolSpec.geometric(-0.3))
    mat = _dense_matrix(op, 12)
    assert np.array_equal(mat[:-1, :-1], mat[1:, 1:])


# -- columns -------------------------------------------------------------------


def test_column_lower_delta():
    assert column(lower_op(DELTA), 5, 8) == [(5, 1.0)]


def test_column_upper_reads_up():
    spec = SymbolSpec.explicit([1.0, 2.0, 3.0])
    assert column(upper_op(spec), 3, 8) == [(1, 3.0), (2, 2.0), (3, 1.0)]


def test_column_full_sums_diagonal():
    sym = decompose(SymbolSpec.explicit([2.0, 5.0, 6.0]),
                    SymbolSpec.explicit([2.0, 7.0]), (1.0, 1.0))
    op = ToeplitzOperator(sym, Variant.FULL, L1_N, L1_N)
    assert column(op, 1, 3) == [(1, 2.0), (2, 5.0), (3, 6.0)]
    assert column(op, 2, 3) == [(1, 7.0), (2, 2.0), (3, 5.0)]


def test_column_bounds():
    with pytest.raises(WindowError):
        column(lower_op(DELTA), 0, 4)
    with pytest.raises(WindowError):
        column(lower_op(DELTA), 5, 4)


# -- column norms --------------------------------------------------------------


def test_column_norm_delta_is_weight():
    op = lower_op(DELTA, codomain=L1_N2)
    assert column_norm(op, 4, 2, 16) == -16.0 / 2
    assert column_norm(upper_op(DELTA), 4, 1, 16, NormKind.SUP) == -4.0


def test_column_norm_geometric_closed_form():
    op = lower_op(SymbolSpec.geometric(0.5))
    got = column_norm(op, 1, 1, 512)
    expected = math.exp(-1.0) / (1.0 - 0.5 * math.exp(-1.0))
    assert got == pytest.approx(math.log(expected), abs=1e-12)


def scatter(col, n_max):
    x = np.zeros(n_max)
    for j, v in col:
        x[j - 1] = v
    return x


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(st.floats(-5, 5).filter(lambda v: v == 0 or abs(v) > 1e-6),
                    min_size=1, max_size=12),
    n=st.integers(1, 24),
    k=st.integers(1, 4),
)
# math.log and np.log round log(1.0986067474382475) one ulp apart
@example(values=[1.0986067474382475], n=1, k=1)
def test_column_norm_equals_seminorm_of_column(values, n, k):
    # explicit symbols share the exact same log pipeline as raw coefficients
    spec = SymbolSpec.explicit(values)
    for op in (lower_op(spec, codomain=L1_N2), upper_op(spec, codomain=L1_N2)):
        col = scatter(column(op, n, 24), 24)
        assert column_norm(op, n, k, 24) == seminorm_sum(L1_N2, col, k, 24)
        assert (column_norm(op, n, k, 24, NormKind.SUP)
                == seminorm_sup(L1_N2, col, k, 24))


@pytest.mark.parametrize("kind", [NormKind.SUM, NormKind.SUP])
@pytest.mark.parametrize("make", [
    lambda: lower_op(SymbolSpec.geometric(0.5), codomain=L1_N2),
    lambda: upper_op(SymbolSpec.geometric(0.7), domain=LINF_N, codomain=L1_N),
    lambda: full_op(SymbolSpec.geometric(0.4), SymbolSpec.geometric(0.2)),
    lambda: lower_op(SymbolSpec.geometric(0.5), domain=LINF_N, codomain=LINF_N),
])
def test_profile_matches_single_column_norms(kind, make):
    op = make()
    n_trunc = 96
    profile = column_norm_profile(op, 2, n_trunc, kind)
    for n in (1, 2, 7, 48, 96):
        single = column_norm(op, n, 2, n_trunc, kind)
        if single == LOG_ZERO:
            assert profile[n - 1] == LOG_ZERO
        else:
            assert profile[n - 1] == pytest.approx(single, abs=1e-9)


# -- application ---------------------------------------------------------------


def test_apply_identity_and_shift():
    x = np.array([1.0, 2.0, 3.0, 0.0])
    assert np.array_equal(apply_dense(lower_op(DELTA), x), x)
    shift = lower_op(SymbolSpec.explicit([0.0, 1.0]))
    e1 = np.zeros(6)
    e1[0] = 1.0
    expected = np.zeros(6)
    expected[1] = 1.0
    assert np.array_equal(apply_dense(shift, e1), expected)
    assert np.allclose(apply_fast(shift, e1), expected, atol=1e-12)


def test_apply_fast_first_column_closed_form():
    op = lower_op(SymbolSpec.geometric(0.5))
    e1 = np.zeros(32)
    e1[0] = 1.0
    got = apply_fast(op, e1)
    assert np.allclose(got, 0.5 ** np.arange(32), atol=1e-13)


@settings(max_examples=30, deadline=None)
@given(
    r1=st.floats(-0.9, 0.9),
    r2=st.floats(-0.9, 0.9),
    seed=st.integers(0, 2**31),
)
def test_apply_fast_matches_dense(r1, r2, seed):
    sym = Symbol(lower=SymbolSpec.geometric(r1) if r1 else DELTA,
                 upper=SymbolSpec.geometric(r2) if r2 else DELTA)
    op = ToeplitzOperator(sym, Variant.FULL, L1_N, L1_N)
    x = np.random.default_rng(seed).uniform(-1, 1, 256)
    dense = apply_dense(op, x)
    fast = apply_fast(op, x)
    scale = np.max(np.abs(dense)) or 1.0
    assert np.max(np.abs(dense - fast)) / scale < 1e-10


def test_apply_fast_matches_dense_at_full_cap():
    op = full_op(SymbolSpec.geometric(0.6), SymbolSpec.geometric(-0.4))
    x = np.random.default_rng(17).uniform(-1, 1, 4096)
    dense = apply_dense(op, x)
    fast = apply_fast(op, x)
    scale = max(np.max(np.abs(dense)), 1e-30)
    assert np.max(np.abs(dense - fast)) / scale < 1e-10


def test_apply_linearity():
    op = full_op(SymbolSpec.geometric(0.3), SymbolSpec.geometric(0.2))
    rng = np.random.default_rng(11)
    x, y = rng.uniform(-1, 1, 64), rng.uniform(-1, 1, 64)
    lhs = apply_dense(op, 2.0 * x + 0.5 * y)
    rhs = 2.0 * apply_dense(op, x) + 0.5 * apply_dense(op, y)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))


def test_apply_overflow_flagged():
    op = lower_op(SymbolSpec.geometric(4.0))
    x = np.full(600, 1e300)
    with pytest.warns(RuntimeWarning):
        y = apply_dense(op, x)
    assert not np.isfinite(y).all()


def test_apply_support_validation():
    with pytest.raises(InvariantError):
        apply_dense(lower_op(DELTA), np.ones(8), 4)


# -- memberships ----------------------------------------------------------------


def test_membership_ones_in_finite_type():
    assert membership_in_space(SymbolSpec.polynomial(0), L1_N).outcome \
        is Outcome.HOLDS


def test_membership_ones_in_infinite_type_fails():
    verdict = membership_in_space(SymbolSpec.polynomial(0), LINF_N)
    assert verdict.outcome is Outcome.FAILS_ON_WINDOW
    assert verdict.witness is not None


@pytest.mark.parametrize("space", [L1_N, L1_N2, LINF_N,
                                   SpaceDescriptor.general([[0.5, 0.7]] * 64)])
def test_membership_delta_everywhere(space):
    assert membership_in_space(DELTA, space).outcome is Outcome.HOLDS


def test_dual_membership_definitional_bound():
    spec = SymbolSpec.exp_of_exponent(1.0, ALPHA_N)
    verdict = membership_in_dual(spec, LINF_N)
    assert verdict.outcome is Outcome.HOLDS
    assert verdict.certificate.m == 1
    assert verdict.certificate.log_c == pytest.approx(0.0, abs=1e-12)


def test_dual_membership_delta():
    verdict = membership_in_dual(DELTA, L1_N)
    assert verdict.outcome is Outcome.HOLDS
    assert verdict.certificate.m == 1


def test_dual_membership_sqrt_growth_fails():
    spec = SymbolSpec.exp_of_exponent(1.0, ExponentSequence.power(0.5))
    verdict = membership_in_dual(spec, L1_N)
    assert verdict.outcome is Outcome.FAILS_ON_WINDOW


def test_dual_membership_of_infinite_logs_against_infinite_bounds_is_quiet():
    # log|theta_j| and log a(n, m) are both +inf from the top entries and
    # m = 2 on: the gap reads through log_ratio, which warns of nothing; the
    # verdict stays inconclusive
    table = ExponentSequence.table([1.0, 2.0] + [1e308] * 14)
    spec = SymbolSpec.exp_of_exponent(2.0, table)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = membership_in_dual(spec, SpaceDescriptor.power_series_infinite(table),
                                     Window().with_n_max(16))
    assert verdict.outcome is Outcome.INCONCLUSIVE


def test_dual_membership_needs_power_series():
    gen = SpaceDescriptor.general([[0.5, 0.7]] * 8)
    with pytest.raises(UnsupportedCombinationError):
        membership_in_dual(DELTA, gen)


def test_membership_scaling_invariance():
    # scaling the symbol shifts constants, never the outcome
    base = SymbolSpec.explicit([0.5**j for j in range(200)])
    scaled = SymbolSpec.explicit([1e6 * 0.5**j for j in range(200)])
    win = Window(n_max=512, k_max=4, m_max=8)
    assert (membership_in_space(base, L1_N, win).outcome
            is membership_in_space(scaled, L1_N, win).outcome)
    b1 = membership_in_dual(base, L1_N, win)
    b2 = membership_in_dual(scaled, L1_N, win)
    assert b1.outcome is b2.outcome
    assert b2.certificate.m == b1.certificate.m
    assert b2.certificate.log_c == pytest.approx(
        b1.certificate.log_c + math.log(1e6), rel=1e-9)


def test_operator_variant_requirements():
    with pytest.raises(InvariantError):
        ToeplitzOperator(Symbol(lower=DELTA), Variant.UPPER, L1_N, L1_N)
    with pytest.raises(InvariantError):
        ToeplitzOperator(Symbol(upper=DELTA), Variant.FULL, L1_N, L1_N)


def test_operator_json_roundtrip():
    op = full_op(SymbolSpec.geometric(0.4), SymbolSpec.explicit([1.0, 0.2]),
                 domain=LINF_N, codomain=L1_N2)
    assert ToeplitzOperator.from_json(op.to_json()) == op
