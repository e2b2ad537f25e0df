"""The certifier's and the oracle's sup-pair providers.

A scan keeps each row it fetched for its later pairs; these tests hold the
providers bit for bit against the per-pair references in
``reference_kernels`` and pin how the oracle looks its profiles up.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from koethe import oracle
from koethe.criteria import NStart, QuantifierCondition, Shape, _gap_pairs, _sup_pair
from koethe.operators import (
    NormKind,
    Symbol,
    SymbolSpec,
    ToeplitzOperator,
    Variant,
    column_norm_profile,
)
from koethe.oracle import _profile_pairs, oracle_compactness
from koethe.spaces import ExponentSequence, SpaceDescriptor, weight_array
from koethe.verdicts import Window


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

# table exponents up to 1e308 overflow infinite-type weights to inf, so a
# gap can read inf - inf = NaN
condition_spaces = st.one_of(power_series(1e308), general_spaces)

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
        assert hexed(new(k, m)) == expected, (k, m)


operators = st.builds(operator, st.sampled_from(list(Variant)), symbol_parts,
                      symbol_parts, power_series(1e3), power_series(1e3))


@settings(max_examples=80, deadline=None)
@given(op=operators, kind=st.sampled_from(list(NormKind)), n=st.integers(4, 64),
       data=st.data())
def test_profile_pairs_match_the_per_pair_reference(op, kind, n, data):
    full = n_within(n, op.domain, op.codomain)
    pts = (data.draw(st.integers(1, full - 1)), full)
    new, old = _profile_pairs(op, kind, pts), ref._profile_pairs(op, kind, pts)
    window = [(k, m) for k in range(1, 5) for m in range(1, 5)]
    for k, m in window + window[::-1]:
        assert hexed(new(k, m)) == hexed(old(k, m)), (k, m)


@settings(max_examples=80, deadline=None)
@given(op=operators, kind=st.sampled_from(list(NormKind)), n=st.integers(2, 64),
       k=st.integers(1, 6), m=st.integers(1, 6))
def test_tameness_sup_pair_matches_the_reference(op, kind, n, k, m):
    n_max = n_within(n, op.domain, op.codomain)
    profile = column_norm_profile(op, k, n_max, kind)
    weights = weight_array(op.domain, m, n_max)
    assert (hexed(_sup_pair(profile, None, weights, 1, n_max))
            == hexed(ref._sup_pair(profile - weights, 1, n_max)))


def test_oracle_looks_each_profile_up_once_through_its_module_global():
    # the benchmark's tracer rebinds module globals; a profile lookup bound
    # at import time or as a default argument would escape the wrapper
    geo = SymbolSpec.geometric(0.5)
    space = SpaceDescriptor.power_series_finite(ExponentSequence.affine(1.0))
    op = ToeplitzOperator(Symbol(lower=geo), Variant.LOWER, space, space)
    original = oracle.column_norm_profile
    seen = []

    def wrapper(op, k, n_trunc, norm_kind):
        seen.append((k, n_trunc))
        return original(op, k, n_trunc, norm_kind)

    before = original.cache_info()
    with mock.patch.object(oracle, "column_norm_profile", wrapper):
        oracle_compactness(op, Window(n_max=256, k_max=4, m_max=8))
    after = original.cache_info()
    lookups = (after.hits - before.hits) + (after.misses - before.misses)
    assert seen and len(seen) == lookups
    assert len(set(seen)) == len(seen)
    assert {n for _, n in seen} == {128, 256}
