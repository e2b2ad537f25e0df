"""The certifier's, the tameness check's and the oracle's sup-pair providers.

A scan keeps each row it fetched for its later pairs; these tests hold the
providers bit for bit against the per-pair references in
``reference_kernels``, hold that no numpy warning escapes a provider or a
scan, and pin how the oracle looks its profiles up.
"""

import contextlib
import math
import warnings
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from koethe import criteria, spaces
from koethe import operators as operators_module
from koethe.cli import _dumps
from koethe.criteria import (
    NStart,
    QuantifierCondition,
    Shape,
    SMap,
    _gap_pairs,
    _sample_tameness,
    certify,
)
from koethe.operators import (
    NormKind,
    Symbol,
    SymbolSpec,
    ToeplitzOperator,
    Variant,
    column_norm_profile,
)
from koethe.oracle import _ratio_sups, oracle_compactness, ratio_curve
from koethe.spaces import ExponentSequence, SpaceDescriptor, weight_array
from koethe.verdicts import Outcome, Scan, Window


def hexed(pair):
    """A pair as float.hex strings, so -0.0, +-inf and NaN are told apart."""
    return None if pair is None else tuple(float(v).hex() for v in pair)


def exponents(top: float):
    tables = st.lists(st.floats(0.0, top), min_size=4, max_size=40).map(
        lambda vals: ExponentSequence.table(sorted(vals)))
    return st.one_of(
        st.just(ExponentSequence.logarithmic()),
        st.floats(0.25, 3.0).map(ExponentSequence.power),
        st.builds(ExponentSequence.affine, st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
        tables,
    )


def power_series(top: float):
    return st.one_of(exponents(top).map(SpaceDescriptor.power_series_finite),
                     exponents(top).map(SpaceDescriptor.power_series_infinite))


def _row(values):
    row = sorted(values)
    return row if row[-1] > 0 else row[:-1] + [1.0]


# zero weights put -inf into the rows, on either side of a condition
general_spaces = st.integers(1, 6).flatmap(lambda cols: st.lists(
    st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0, 1e5]),
             min_size=cols, max_size=cols).map(_row),
    min_size=4, max_size=24)).map(SpaceDescriptor.general)

# alpha = 0 gives -0.0 weights in a finite type; alpha = inf gives +inf
# weights in an infinite type and zero weights in a finite one, so a gap can
# read inf - inf = NaN; the rows that hold them are the wild ones
special_tables = st.lists(
    st.sampled_from([-0.0, 0.0, 0.0, 0.5, 2.0, 1e308, math.inf]), min_size=4,
    max_size=40).map(lambda vals: ExponentSequence.table(sorted(vals)))
special_spaces = st.one_of(special_tables.map(SpaceDescriptor.power_series_finite),
                           special_tables.map(SpaceDescriptor.power_series_infinite))

# table exponents up to 1e308 overflow infinite-type weights to inf too
condition_spaces = st.one_of(power_series(1e308), general_spaces, special_spaces)

ZERO_TABLE = ExponentSequence.table([0.0] * 8)
INF_TABLE = ExponentSequence.table([0.0, 1.0] + [math.inf] * 6)
HUGE_TABLE = ExponentSequence.table([0.0, 1.0] + [1e308] * 6)


@contextlib.contextmanager
def raising():
    """Any warning inside is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield

symbol_parts = st.one_of(
    st.just(SymbolSpec.delta()),
    st.floats(0.05, 0.95).map(SymbolSpec.geometric),
    st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=12).map(SymbolSpec.explicit),
)


def operator(variant, lower, upper, domain, codomain):
    if variant is Variant.FULL:
        # a full symbol splits its diagonal into two nonzero halves
        lower = lower if lower.values_array(1)[0] != 0.0 else lower.with_head(1.0)
        upper = upper if upper.values_array(1)[0] != 0.0 else upper.with_head(1.0)
        symbol = Symbol(lower=lower, upper=upper)
    elif variant is Variant.LOWER:
        symbol = Symbol(lower=lower)
    else:
        symbol = Symbol(upper=upper)
    return ToeplitzOperator(symbol, variant, domain, codomain)


def n_within(n: int, *spaces) -> int:
    return min([n] + [s.n_limit for s in spaces if s.n_limit is not None])


@settings(max_examples=150, deadline=None)
@given(lhs=condition_spaces, rhs=condition_spaces,
       n_start=st.sampled_from(list(NStart)), n=st.integers(4, 64))
# -0.0 weights on the lhs against +0.0 ones, from n = k on
@example(lhs=SpaceDescriptor.power_series_finite(ZERO_TABLE),
         rhs=SpaceDescriptor.power_series_infinite(ZERO_TABLE), n_start=NStart.K, n=8)
# +inf against +inf weights: NaN gaps past n = 2
@example(lhs=SpaceDescriptor.power_series_infinite(INF_TABLE),
         rhs=SpaceDescriptor.power_series_infinite(INF_TABLE), n_start=NStart.ONE, n=8)
# finite weights whose difference overflows: 1e308 - (-1e308) at k = m = 1
@example(lhs=SpaceDescriptor.power_series_infinite(HUGE_TABLE),
         rhs=SpaceDescriptor.power_series_finite(HUGE_TABLE), n_start=NStart.ONE, n=8)
# zero lhs weights against zero rhs weights
@example(lhs=SpaceDescriptor.power_series_finite(INF_TABLE),
         rhs=SpaceDescriptor.power_series_finite(INF_TABLE), n_start=NStart.K, n=8)
def test_gap_pairs_match_the_per_pair_reference(lhs, rhs, n_start, n):
    n_max = n_within(n, lhs, rhs)
    cond = QuantifierCondition(lhs, rhs, Shape.FORALL_K_EXISTS_M, n_start)
    new, old = _gap_pairs(cond, n_max), ref._gap_pairs(cond, n_max)
    # gradings up to 6 put n0 = k past half the window when n_max is small
    window = [(k, m) for k in range(1, min(6, lhs.k_limit or 6) + 1)
              for m in range(1, min(6, rhs.k_limit or 6) + 1)]
    # twice over, so the second pass reads the rows the first one kept
    for k, m in window + window[::-1]:
        with np.errstate(over="ignore"):  # the reference lets overflow warn
            expected = hexed(old(k, m))
        with raising():  # no warning escapes the provider
            assert hexed(new(k, m)) == expected, (k, m)


def quiet_reference_pairs(cond, n_max):
    pairs = ref._gap_pairs(cond, n_max)

    def sup_pair(k, m):
        with np.errstate(over="ignore"):  # the reference lets overflow warn
            return pairs(k, m)
    return sup_pair


@settings(max_examples=100, deadline=None)
@given(lhs=condition_spaces, rhs=condition_spaces, shape=st.sampled_from(list(Shape)),
       n_start=st.sampled_from(list(NStart)), n=st.integers(4, 64))
def test_certify_equals_a_search_over_the_reference_pairs(lhs, rhs, shape, n_start, n):
    # S(k) = 1 stays inside a tabulated rhs with a single grading
    s_map = SMap.table([1] * 4) if shape is Shape.FIXED_MAP else None
    cond = QuantifierCondition(lhs, rhs, shape, n_start, s_map)
    win = Window(k_max=4, m_max=6, n_max=n_within(n, lhs, rhs))
    spaces._exponent_values.cache_clear()
    with raising():  # no warning escapes the scan
        verdict = certify(cond, win)
    spaces._exponent_values.cache_clear()
    with mock.patch.object(criteria, "_gap_pairs", quiet_reference_pairs):
        expected = _dumps(certify(cond, win).to_json())
    assert _dumps(verdict.to_json()) == expected


operators = st.builds(operator, st.sampled_from(list(Variant)), symbol_parts,
                      symbol_parts, power_series(1e3), power_series(1e3))


@settings(max_examples=80, deadline=None)
@given(op=operators, kind=st.sampled_from(list(NormKind)), n=st.integers(4, 64),
       data=st.data())
def test_profile_pairs_match_the_per_pair_reference(op, kind, n, data):
    full = n_within(n, op.domain, op.codomain)
    pts = (data.draw(st.integers(1, full - 1)), full)
    new, old = _ratio_sups(op, kind, pts), ref._profile_pairs(op, kind, pts)
    window = [(k, m) for k in range(1, 5) for m in range(1, 5)]
    for k, m in window + window[::-1]:
        assert hexed(new(k, m)) == hexed(old(k, m)), (k, m)


# tabulated codomains put zero weights and few gradings under the columns
curve_operators = st.builds(operator, st.sampled_from(list(Variant)), symbol_parts,
                            symbol_parts, power_series(1e3),
                            power_series(1e3) | general_spaces)


@settings(max_examples=80, deadline=None)
@given(op=curve_operators, kind=st.sampled_from(list(NormKind)),
       n=st.integers(4, 600), data=st.data())
def test_upper_pairs_and_curves_match_the_per_checkpoint_reference(op, kind, n, data):
    # an upper profile at a smaller checkpoint is sliced from the largest
    # one, in either norm; the references call the kernel at every
    # checkpoint.  Every variant's curve and scan pairs come from the one
    # provider
    full = n_within(n, op.domain, op.codomain)
    pts = sorted(set(data.draw(st.lists(st.integers(1, full - 1), min_size=1,
                                        max_size=4)))) + [full]
    win = Window(n_max=full, checkpoints=tuple(pts))
    new, old = _ratio_sups(op, kind, pts[-2:]), ref._profile_pairs(op, kind, pts)
    window = [(k, m) for k in range(1, min(4, op.codomain.k_limit or 4) + 1)
              for m in range(1, 5)]
    for k, m in window + window[::-1]:
        assert hexed(new(k, m)) == hexed(old(k, m)), (k, m)
        curve = ratio_curve(op, k, m, kind, win)
        assert ([(c, hexed([v])) for c, v in curve.points]
                == [(c, hexed([v])) for c, v in ref._curve_points(op, kind, k, m, pts)])


# wild domain weights: zero, infinite and NaN gaps against the profiles
tameness_operators = st.builds(operator, st.sampled_from(list(Variant)), symbol_parts,
                               symbol_parts, power_series(1e3) | special_spaces,
                               power_series(1e3))


@settings(max_examples=80, deadline=None)
@given(op=tameness_operators, kind=st.sampled_from(list(NormKind)),
       n=st.integers(2, 64))
def test_tameness_sup_pair_matches_the_reference(op, kind, n):
    # the provider that _sample_tameness hands its lock-step scans, for op
    # alone
    n_max = n_within(n, op.domain, op.codomain)
    providers = []

    def capture(win, sup_pairs, count, k_max, s_map):
        providers.append(sup_pairs)
        return [Scan(Outcome.INCONCLUSIVE)] * count

    with mock.patch.object(criteria, "scan_fixed_lockstep", capture):
        _sample_tameness([op], SMap.identity(), Window(), kind, 6, n_max)
    [pairs] = providers

    def new(k, m):
        [pair] = pairs(k, m, [0])
        return pair
    for k in range(1, 7):
        for m in range(1, 7):
            profile = column_norm_profile(op, k, n_max, kind)
            weights = weight_array(op.domain, m, n_max)
            with np.errstate(invalid="ignore", over="ignore"):
                expected = hexed(ref._sup_pair(profile - weights, 1, n_max))
            with raising():  # no warning escapes the provider
                assert hexed(new(k, m)) == expected, (k, m)


def test_oracle_looks_each_profile_up_once_through_its_module_global():
    # the benchmark's tracer rebinds module globals; a profile lookup bound
    # at import time or as a default argument would escape the wrapper.  The
    # oracle reads its profiles through operators.column_norm_profiles, which
    # looks column_norm_profile up as a global of operators
    geo = SymbolSpec.geometric(0.5)
    space = SpaceDescriptor.power_series_finite(ExponentSequence.affine(1.0))
    other = SpaceDescriptor.power_series_infinite(ExponentSequence.power(2.0))
    lower = ToeplitzOperator(Symbol(lower=geo), Variant.LOWER, space, space)
    upper = ToeplitzOperator(Symbol(upper=geo), Variant.UPPER, space, space)
    # the profile memo is keyed on what the kernel reads, which is not the
    # domain, so a domain twin of lower finds every profile already there
    twin = ToeplitzOperator(Symbol(lower=geo), Variant.LOWER, other, space)
    original = operators_module.column_norm_profile
    # an upper operator's sup profile at the half checkpoint is sliced from
    # the full one
    # the oracle reads an upper operator's sup profiles, its default norm
    for op, truncations in [(lower, {128, 256}), (upper, {256}), (twin, {128, 256})]:
        seen = []

        def wrapper(op, k, n_trunc, norm_kind):
            seen.append((k, n_trunc))
            return original(op, k, n_trunc, norm_kind)

        before = original.cache_info()
        with mock.patch.object(operators_module, "column_norm_profile", wrapper):
            oracle_compactness(op, Window(n_max=256, k_max=4, m_max=8))
        after = original.cache_info()
        lookups = (after.hits - before.hits) + (after.misses - before.misses)
        assert seen and len(seen) == lookups
        assert len(set(seen)) == len(seen)
        assert {n for _, n in seen} == truncations
        if op is twin:
            assert after.misses == before.misses
