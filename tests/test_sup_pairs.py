"""The sup-pair providers: the one provider of the certifier and the
oracle (``criteria._gap_sups``, behind ``criteria._gap_pairs`` and
``oracle._ratio_sups``), and the tameness check's.

A scan keeps each row it fetched for its later pairs; these tests hold the
providers bit for bit against the per-pair references in
``reference_kernels``, hold that no numpy warning escapes a provider or a
scan, and pin how the certifier and the oracle look their rows up.

Run as a script, a seeded sweep of 1,000 random conditions, 1,000 random
operators and the 144 grid operators holds the provider's pairs and the
rows of its runs bit for bit against the references, and the exists scan
over the grid operators' runs against the per-pair reference scan, and the
script exits 1 on any difference:

    python tests/test_sup_pairs.py
"""

import contextlib
import math
import sys
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
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
    _gap_sups,
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
from koethe.verdicts import Outcome, Scan, Sups, Window, scan_exists


def hexed(pair):
    """A pair as float.hex strings, so -0.0, +-inf and NaN are told apart."""
    return None if pair is None else tuple(float(v).hex() for v in pair)


def hexed_run(rows, ks):
    """A run's rows as the hexed pairs of its gradings ``ks``: one float row
    per grading up to the last with evidence, and None (no row) past it."""
    assert isinstance(rows, np.ndarray) and rows.dtype == np.float64
    assert rows.ndim == 2 and len(rows) <= len(ks)
    return [hexed(row) for row in rows] + [None] * (len(ks) - len(rows))


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
    expected = {}
    for k, m in window + window[::-1]:
        with np.errstate(over="ignore"):  # the reference lets overflow warn
            expected[k, m] = hexed(old(k, m))
        with raising():  # no warning escapes the provider
            assert hexed(new.pair(k, m)) == expected[k, m], (k, m)
    # a run gives its gradings' pairs in one call, a row each, bit for bit
    k_top = max(k for k, _ in window)
    for m in range(1, max(m for _, m in window) + 1):
        for ks in (range(1, k_top + 1), range(2, k_top + 1)):
            with raising():
                rows = new.run(ks, m)
            assert hexed_run(rows, ks) == [expected[k, m] for k in ks], (ks, m)


def quiet_reference_pairs(cond, n_max):
    pairs = ref._gap_pairs(cond, n_max)

    def sup_pair(k, m):
        with np.errstate(over="ignore"):  # the reference lets overflow warn
            return pairs(k, m)
    def sup_run(ks, m):
        pairs = [sup_pair(k, m) for k in ks]
        live = pairs[:pairs.index(None)] if None in pairs else pairs
        return np.array(live, dtype=float).reshape(-1, 2)
    return Sups(sup_pair, sup_run)


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
        assert hexed(new.pair(k, m)) == hexed(old(k, m)), (k, m)
    for m in range(1, 5):
        assert (hexed_run(new.run(range(1, 5), m), range(1, 5))
                == [hexed(old(k, m)) for k in range(1, 5)])


GRID_SPACES = [make(alpha) for alpha in (ExponentSequence.affine(1.0),
                                          ExponentSequence.power(2.0),
                                          ExponentSequence.power(0.5))
               for make in (SpaceDescriptor.power_series_finite,
                            SpaceDescriptor.power_series_infinite)]
GRID_OPERATORS = [ToeplitzOperator(Symbol(**{variant.value: spec}), variant, dom, cod)
                  for variant in (Variant.LOWER, Variant.UPPER)
                  for dom in GRID_SPACES for cod in GRID_SPACES
                  for spec in (SymbolSpec.delta(), SymbolSpec.geometric(0.5))]
#: a zero weight under every row's first grading: wild weight rows
ZERO_WEIGHTS = SpaceDescriptor.general([[0, 1, 2]] * 64)


def assert_runs_are_pairs(sups, gradings, witnesses):
    for m in witnesses:
        with raising():
            pairs = [hexed(sups.pair(k, m)) for k in gradings]
            for lo in (gradings[0], gradings[0] + 2):
                ks = range(lo, gradings[-1] + 1)
                expected = pairs[lo - gradings[0]:]
                assert hexed_run(sups.run(ks, m), ks) == expected, (ks, m)


def test_oracle_runs_equal_its_pairs_on_the_grid_and_on_wild_weights():
    assert len(GRID_OPERATORS) == 144
    wild = ToeplitzOperator(Symbol(lower=SymbolSpec.explicit([0, 1])), Variant.LOWER,
                            ZERO_WEIGHTS, GRID_SPACES[0])
    for op in GRID_OPERATORS + [wild]:
        sups = _ratio_sups(op, criteria.default_norm_kind(op), (32, 64))
        assert_runs_are_pairs(sups, range(1, 7), (1, 3))


#: a compactness scan whose candidates probe gradings up to 2 m_max + 1 = 17
EXISTS_WINDOW = Window(n_max=256, k_max=4, m_max=8)


def hexed_scan(scan):
    """A scan's fields with its floats hexed, so NaN compares."""
    growth = [] if scan.growth is None else [scan.growth]
    return (scan.outcome, scan.m, scan.k, hexed(growth), list(scan.entries),
            hexed(scan.entries.values()))


def exists_differs(op) -> bool:
    """Does the exists scan over the oracle's runs and pairs at the last two
    checkpoints differ from the per-pair reference scan?"""
    kind = criteria.default_norm_kind(op)
    bounds = EXISTS_WINDOW.k_max, EXISTS_WINDOW.m_max
    with raising():
        scan = scan_exists(EXISTS_WINDOW, _ratio_sups(op, kind, (128, 256)), *bounds)
    with np.errstate(over="ignore"):  # the reference lets overflow warn
        expected = ref.scan_exists(EXISTS_WINDOW, ref._profile_pairs(op, kind, (128, 256)),
                                   *bounds)
    return hexed_scan(scan) != hexed_scan(expected)


def test_exists_scans_over_oracle_runs_are_the_per_pair_scans():
    # every twelfth grid operator: lower and upper, delta and geometric
    assert not [op for op in GRID_OPERATORS[::12] if exists_differs(op)]


def test_certifier_runs_equal_its_pairs_on_the_grid_and_on_wild_rows():
    # 1.5e308 is wild, and overflows against -4e307, which is not
    wild = [SpaceDescriptor.power_series_infinite(INF_TABLE),
            SpaceDescriptor.power_series_finite(INF_TABLE), ZERO_WEIGHTS,
            SpaceDescriptor.power_series_infinite(
                ExponentSequence.table([0.0, 1.0] + [1.5e308] * 6)),
            SpaceDescriptor.power_series_finite(
                ExponentSequence.table([0.0, 1.0] + [4e307] * 6))]
    for lhs in GRID_SPACES + wild:
        for rhs in GRID_SPACES + wild:
            for n_start in NStart:
                cond = QuantifierCondition(lhs, rhs, Shape.EXISTS_M_FORALL_K, n_start)
                k_top = min(6, lhs.k_limit or 6)
                # from n0 = k, gradings past n_max // 2 = 4 have no evidence
                assert_runs_are_pairs(_gap_pairs(cond, n_within(8, lhs, rhs)),
                                      range(1, k_top + 1), (1, min(3, rhs.k_limit or 3)))


# -- the one provider on hand-made rows ------------------------------------------

#: mostly zeros of both signs, so that segment maxima tie between them
TAME_VALUES = np.array([-0.0, 0.0] * 4 + [-1.0, 2.5])
#: with NaN, +-inf and huge entries, which make a row wild
WILD_VALUES = np.concatenate([TAME_VALUES, [math.nan, math.inf, -math.inf, 1e308, -1e308]])


def hand_made(rng, widths, tame):
    """Parts of ``widths`` and their wild flag: set where an entry is
    infinite, NaN or huge, as ``criteria._row`` sets it, and on one tame row
    in five too.  Unless ``tame``, one row in three draws wild entries."""
    values = TAME_VALUES if tame or rng.random() < 2 / 3 else WILD_VALUES
    parts = [rng.choice(values, size=w) for w in widths]
    top = max(np.abs(part).max() for part in parts)
    return parts, bool(not top < 2.0 ** 1022 or rng.random() < 0.2)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), from_k=st.booleans(),
       widths=st.lists(st.integers(1, 12), min_size=1, max_size=3),
       n=st.integers(2, 24), gradings=st.integers(1, 20), evidence=st.integers(1, 21),
       tame=st.booleans(), data=st.data())
def test_the_one_provider_gives_each_run_its_pairs(seed, from_k, widths, n, gradings,
                                                   evidence, tame, data):
    # common starts, as the oracle's checkpoints, or the certifier's own
    # start n0 = k per grading; no evidence from grading ``evidence`` on, or
    # past half the window from n0 = k
    rng = np.random.default_rng(seed)
    if from_k:
        # the certifier's fold, by Python's max
        widths = [n]
        def fold(sups):
            pairs = [(half, max(half, rest)) for half, rest in sups.reshape(-1, 2).tolist()]
            return np.array(pairs).reshape(sups.shape)
        def at(k):
            return (k - 1, n // 2) if k <= n // 2 else None
    else:
        # as a tuple, or as one array that every grading shares, as the
        # oracle's checkpoint starts are
        fold = np.copy
        common = tuple(sorted(data.draw(st.sets(st.integers(0, sum(widths) - 1),
                                                min_size=1, max_size=3))))
        common = np.array(common) if data.draw(st.booleans()) else common
        def at(k):
            return common
    lhs_rows = {k: hand_made(rng, widths, tame) for k in range(1, gradings + 1)}
    rhs_rows = {m: hand_made(rng, [max(widths)], tame) for m in range(1, 5)}
    rhs_rows = {m: (parts[0], wild) for m, (parts, wild) in rhs_rows.items()}

    def provider():
        fetched = Counter()

        def lhs(k):
            fetched["k", k] += 1
            return lhs_rows[k]

        def rhs(m):
            fetched["m", m] += 1
            return rhs_rows[m]
        return _gap_sups(lhs, rhs, widths, lambda k: None if k >= evidence else at(k),
                         fold), fetched

    reference, fetched_by_pairs = provider()
    with raising():
        expected = {(k, m): hexed(reference.pair(k, m))
                    for k in range(1, gradings + 1) for m in rhs_rows}
    sups, fetched = provider()
    # a run past grading 1 into an empty matrix, a run below it, all
    # gradings past the matrix's doublings, the top half, and drawn runs
    runs = [(3, 5), (1, 3), (1, gradings + 1), (gradings // 2 + 1, gradings + 1)]
    runs += data.draw(st.lists(st.tuples(st.integers(1, gradings), st.integers(1, gradings))
                               .map(lambda lh: (min(lh), max(lh) + 1)), max_size=4))
    for lo, hi in runs:
        for m in data.draw(st.permutations(list(rhs_rows)))[:2]:
            ks = range(lo, min(hi, gradings + 1))
            with raising():  # no warning escapes a run
                got = hexed_run(sups.run(ks, m), ks)
                again = hexed(sups.pair(lo, m)) if lo <= gradings else None
            assert got == [expected[k, m] for k in ks], (ks, m)
            assert again == expected.get((lo, m)), (lo, m)
    for counts in (fetched, fetched_by_pairs):
        assert set(counts.values()) <= {1}
        assert all(k < evidence and at(k) is not None
                   for side, k in counts if side == "k")


@pytest.mark.parametrize("shape", list(Shape), ids=lambda shape: shape.name)
@pytest.mark.parametrize("n_start", list(NStart), ids=lambda n_start: n_start.name)
def test_certify_reads_each_weight_row_once_through_criteria_row(shape, n_start):
    # the twin of test_oracle_looks_each_profile_up_once_through_its_module_global:
    # one search reads each (space, grading) row through criteria._row once,
    # in the order in which the per-pair reference, which reads both rows of
    # every pair, first reads it
    s_map = SMap.identity() if shape is Shape.FIXED_MAP else None
    win = Window(n_max=256, k_max=4, m_max=8)
    original = criteria._row
    for lhs in GRID_SPACES + [ZERO_WEIGHTS]:
        for rhs in GRID_SPACES:
            cond = QuantifierCondition(lhs, rhs, shape, n_start, s_map)
            seen, first_read = [], []

            def read(space, k, n_max):
                seen.append((space, k))
                return original(space, k, n_max)

            def reference_read(space, k, n_max):
                if (space, k) not in first_read:
                    first_read.append((space, k))
                return weight_array(space, k, n_max)

            spaces._exponent_values.cache_clear()  # certify's memo
            with mock.patch.object(criteria, "_row", read):
                certify(cond, win)
            spaces._exponent_values.cache_clear()
            with mock.patch.object(criteria, "_gap_pairs", quiet_reference_pairs), \
                    mock.patch.object(ref, "weight_array", reference_read):
                certify(cond, win)
            assert seen and seen == first_read, (lhs, rhs)


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
        assert hexed(new.pair(k, m)) == hexed(old(k, m)), (k, m)
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
            with np.errstate(over="ignore"):
                expected = hexed(ref._sup_pair(ref._gap(profile, weights), 1, n_max))
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


# -- the seeded sweep ----------------------------------------------------------


def random_alpha(rng, top, special):
    """An exponent sequence as :func:`exponents` draws it, or where
    ``special`` also as ``special_tables`` does."""
    form = rng.integers(5 if special else 4)
    if form == 0:
        return ExponentSequence.logarithmic()
    if form == 1:
        return ExponentSequence.power(rng.uniform(0.25, 3.0))
    if form == 2:
        return ExponentSequence.affine(rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0))
    size = rng.integers(4, 41)
    if form == 3:
        return ExponentSequence.table(np.sort(rng.uniform(0.0, top, size)))
    return ExponentSequence.table(np.sort(rng.choice(
        [-0.0, 0.0, 0.0, 0.5, 2.0, 1e308, math.inf], size)))


def random_space(rng, top, general=True, special=False):
    """A power series space over :func:`random_alpha`, or where ``general``
    in three cases of ten a general space as ``general_spaces`` draws it."""
    if general and rng.random() < 0.3:
        cols = rng.integers(1, 7)
        return SpaceDescriptor.general(
            [_row(rng.choice([0.0, 0.0, 0.5, 1.0, 3.0, 1e5], cols).tolist())
             for _ in range(rng.integers(4, 25))])
    make = (SpaceDescriptor.power_series_finite, SpaceDescriptor.power_series_infinite)
    return make[rng.integers(2)](random_alpha(rng, top, special))


def random_part(rng):
    form = rng.integers(3)
    if form == 0:
        return SymbolSpec.delta()
    if form == 1:
        return SymbolSpec.geometric(rng.uniform(0.05, 0.95))
    return SymbolSpec.explicit(rng.uniform(-4.0, 4.0, rng.integers(1, 13)))


def runs_are_pairs(sups, pairs, gradings, witnesses) -> bool:
    """Do the runs from gradings 1 and 2 on give ``pairs``, hexed by
    (k, m), and does the pair call give them too, with no warning?"""
    with raising():
        return all(hexed(sups.pair(k, m)) == pairs[k, m]
                   and hexed_run(sups.run(range(lo, gradings + 1), m),
                                 range(lo, gradings + 1))
                   == [pairs[k, m] for k in range(lo, gradings + 1)]
                   for m in witnesses for lo in (1, 2) for k in range(1, gradings + 1))


def condition_differs(cond, n_max) -> bool:
    old = ref._gap_pairs(cond, n_max)
    k_top, m_top = min(6, cond.lhs.k_limit or 6), min(6, cond.rhs.k_limit or 6)
    with np.errstate(over="ignore"):  # the reference lets overflow warn
        pairs = {(k, m): hexed(old(k, m))
                 for k in range(1, k_top + 1) for m in range(1, m_top + 1)}
    return not runs_are_pairs(_gap_pairs(cond, n_max), pairs, k_top, range(1, m_top + 1))


def operator_differs(op, kind, pts) -> bool:
    """The scan pairs at the last two checkpoints, and the curves at all of
    them, against the per-checkpoint references."""
    old = ref._profile_pairs(op, kind, pts)
    k_top = min(4, op.codomain.k_limit or 4)
    pairs = {(k, m): hexed(old(k, m)) for k in range(1, k_top + 1) for m in range(1, 5)}
    curves = _ratio_sups(op, kind, pts)
    with raising():
        curves_differ = any(
            hexed(curves.pair(k, m))
            != hexed([v for _, v in ref._curve_points(op, kind, k, m, pts)])
            for k in range(1, k_top + 1) for m in range(1, 5))
    return curves_differ or not runs_are_pairs(_ratio_sups(op, kind, pts[-2:]), pairs,
                                               k_top, range(1, 5))


def sweep(count: int = 1000) -> tuple[int, list[str]]:
    """(cases, the cases whose pairs, runs, curves or exists scans differ
    from the reference's) over ``count`` seeded random conditions, ``count``
    random operators, and the grid operators."""
    rng = np.random.default_rng(36)
    cases, bad = 0, []
    for i in range(count):
        lhs, rhs = (random_space(rng, 1e308, special=True) for _ in range(2))
        cond = QuantifierCondition(lhs, rhs, Shape.FORALL_K_EXISTS_M,
                                   list(NStart)[rng.integers(2)])
        cases += 1
        if condition_differs(cond, n_within(int(rng.integers(4, 65)), lhs, rhs)):
            bad.append(f"condition {i}: {cond}")
    for i in range(count):
        variant = list(Variant)[rng.integers(3)]
        op = operator(variant, random_part(rng), random_part(rng),
                      random_space(rng, 1e3, general=False), random_space(rng, 1e3))
        kind = list(NormKind)[rng.integers(2)]
        full = n_within(int(rng.integers(4, 257)), op.domain, op.codomain)
        pts = sorted(set(rng.integers(1, full, rng.integers(1, 4)).tolist())) + [full]
        cases += 1
        if operator_differs(op, kind, pts):
            bad.append(f"operator {i}: {op}, {kind}, {pts}")
    for op in GRID_OPERATORS:
        cases += 1
        if operator_differs(op, criteria.default_norm_kind(op), (128, 256)):
            bad.append(f"grid operator: {op}")
        if exists_differs(op):
            bad.append(f"grid exists scan: {op}")
    return cases, bad


if __name__ == "__main__":
    cases, bad = sweep()
    print(f"{cases} conditions and operators ({len(GRID_OPERATORS)} grid operators, "
          f"each with its exists scan): {len(bad)} differ")
    for case in bad[:10]:
        print(case)
    sys.exit(1 if bad else 0)
