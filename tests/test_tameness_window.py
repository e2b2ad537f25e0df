"""Tameness sup pairs run the kernel only on the columns that can attain them.

``criteria._sample_tameness`` chooses the column range whose gaps can reach
the sup pair from a few scalars of the member and weight facts that the
family shares (``criteria._range_facts``), and walks the kernel on it;
where the weights or the symbol are not tame, it walks every column of the
same set-up.  These tests hold the pairs bit for bit, and the reports byte
for byte, against ``reference_kernels._sample_tameness``, which reads the
full profile for every pair; the ranges against those of the per-pair
bounds in ``reference_kernels.sup_columns``; and every range against the
columns where the full profile's gap attains the pair.

Run as a script, the report check of every family in ``POOLS`` runs at
the default window (n_max=4096) and exits 1 on a report that differs:

    python tests/test_tameness_window.py
"""

import sys
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from koethe import criteria, operators, spaces
from koethe.cli import _dumps
from koethe.criteria import FamilySpec, OperatorTemplate, SMap, _sample_tameness
from koethe.operators import (
    NormKind,
    Symbol,
    SymbolSpec,
    ToeplitzOperator,
    Variant,
    column_norm_profiles,
)
from koethe.spaces import ExponentSequence, SpaceDescriptor, weight_array
from koethe.verdicts import Outcome, Scan, Window

ALPHA = ExponentSequence.affine(1.0)
#: the template and the 16 seeds of the benchmark's tameness_family pool
POOL_TEMPLATE = OperatorTemplate(Variant.LOWER,
                                 SpaceDescriptor.power_series_infinite(ALPHA),
                                 SpaceDescriptor.power_series_finite(ALPHA))
POOL_SEEDS = range(16)
#: Λ∞ of a table past 2^1022 from its third entry on: wild at every witness
WILD = SpaceDescriptor.power_series_infinite(
    ExponentSequence.table([1.0, 2.0] + [1e308] * 4094))
#: template -> seeds of the checked families: the pool's (sum norm, one
#: downward run), an upper one (sup norm, one upward run on the reversed
#: weights) and a full one (sum norm, two runs merged), every sup pair of
#: which walks a proper column range; and a lower one from the wild domain,
#: every sup pair of which walks all columns
POOLS = {
    "lower": (POOL_TEMPLATE, POOL_SEEDS),
    "upper": (OperatorTemplate(Variant.UPPER, POOL_TEMPLATE.domain,
                               POOL_TEMPLATE.codomain), range(2)),
    "full": (OperatorTemplate(Variant.FULL, POOL_TEMPLATE.domain,
                              POOL_TEMPLATE.codomain), range(2)),
    "wild": (OperatorTemplate(Variant.LOWER, WILD, POOL_TEMPLATE.codomain), range(1)),
}


def pool_family(seed: int, count: int = 50) -> FamilySpec:
    return FamilySpec(count=count, seed=seed, r_min=0.05, r_max=0.9)


def pool_mismatches(window: Window) -> list[tuple[str, int]]:
    """(template, seed) of the checked families whose tameness report
    differs from the full-profile reference's."""
    out = []
    for name, (template, seeds) in POOLS.items():
        for seed in seeds:
            def report():
                return _dumps(criteria.tameness_check(
                    pool_family(seed), SMap.identity(), template, window).to_json())
            pruned = report()
            with ref.full_profile_tameness():
                full = report()
            if pruned != full:
                out.append((name, seed))
    return out


def test_pool_family_reports_match_the_full_profiles():
    assert pool_mismatches(Window().with_n_max(512)) == []


def profile_ranges(run):
    """The column range of every set-up walk that ``run()`` makes, in order:
    one per sup pair."""
    seen = []
    profile = operators._Setup.profile

    def spy(setup, norm_kind, cols=None):
        seen.append(cols)
        return profile(setup, norm_kind, cols)

    with mock.patch.object(operators._Setup, "profile", spy):
        run()
    return seen


def pair_ranges(template, seed: int, window: Window):
    """The column range that each sup pair of a pool family's tameness
    check walks, and the one the reference bounds give it, in order."""
    expected = []
    sample, scan = criteria._sample_tameness, criteria.scan_fixed

    def member(op, s_map, win, kind, k_max, n_max):
        def scan_pairs(win, sup_pair, k_max, s_map):
            def pair(k, m):
                expected.append(ref.sup_columns(op, k, m, n_max, kind))
                return sup_pair(k, m)
            return scan(win, pair, k_max, s_map)
        with mock.patch.object(criteria, "scan_fixed", scan_pairs):
            return sample(op, s_map, win, kind, k_max, n_max)

    with mock.patch.object(criteria, "_sample_tameness", member):
        walked = profile_ranges(lambda: criteria.tameness_check(
            pool_family(seed), SMap.identity(), template, window))
    return walked, expected


def test_pool_families_walk_the_reference_bounds_ranges():
    # the ranges from the family's facts are those of the per-pair bounds;
    # the wild domain walks all columns at every pair, the other families
    # at none
    for name, (template, seeds) in POOLS.items():
        for seed in seeds:
            walked, expected = pair_ranges(template, seed, Window().with_n_max(512))
            assert walked and walked == expected, (name, seed)
            assert (None in walked) == (name == "wild") == (set(walked) == {None})


def hexed(pair):
    return tuple(float(v).hex() for v in pair)


def providers(sample, op, kind, n_max):
    """The sup-pair provider that ``sample`` hands its fixed-map scan."""
    out = []

    def capture(win, sup_pair, k_max, s_map):
        out.append(sup_pair)
        return Scan(Outcome.INCONCLUSIVE)

    with mock.patch.object(sys.modules[sample.__module__], "scan_fixed", capture):
        sample(op, SMap.identity(), Window(), kind, 6, n_max)
    return out


@st.composite
def general_spaces(draw, rows: int):
    """A tabulated space of ``rows`` rows, log weights rising in k, with
    some zero weights in the first of two or more gradings."""
    cols = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logs = (rng.uniform(-30.0, 30.0, size=(rows, 1))
            + np.cumsum(rng.uniform(0.0, 2.0, size=(rows, cols)), axis=1))
    weights = np.exp(logs)
    if cols > 1:
        weights[rng.random(rows) < 0.1, 0] = 0.0
    return SpaceDescriptor.general(weights.tolist())


exponents = st.sampled_from([ExponentSequence.logarithmic(), ExponentSequence.power(0.5),
                             ALPHA, ExponentSequence.power(2.0)])
power_series = st.one_of(exponents.map(SpaceDescriptor.power_series_finite),
                         exponents.map(SpaceDescriptor.power_series_infinite))
parts = st.one_of(
    st.just(SymbolSpec.delta()),
    st.floats(-0.99, 0.99).map(SymbolSpec.geometric),
    st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=40).map(SymbolSpec.explicit),
    st.integers(-3, 3).map(SymbolSpec.polynomial),
    st.builds(SymbolSpec.exp_of_exponent, st.floats(-3.0, 3.0), exponents),
).flatmap(lambda spec: st.sampled_from([None, 0.5, -2.0]).map(
    lambda h: spec if h is None else spec.with_head(h)))


@settings(max_examples=60, deadline=None)
@given(variant=st.sampled_from(list(Variant)), lower=parts, upper=parts,
       kind=st.sampled_from(list(NormKind)), n=st.integers(2, 1100), data=st.data())
def test_pruned_sup_pairs_match_the_full_profiles(variant, lower, upper, kind, n, data):
    # finite-type codomains give most columns a gap far below the sup, and
    # zero domain weights send a pair to the full profile
    domain = data.draw(power_series | general_spaces(n), label="domain")
    codomain = data.draw(power_series | general_spaces(n), label="codomain")
    if variant is Variant.FULL:
        lower = lower if lower.values_array(1)[0] != 0.0 else lower.with_head(1.0)
        upper = upper if upper.values_array(1)[0] != 0.0 else upper.with_head(1.0)
    symbol = Symbol(lower=None if variant is Variant.UPPER else lower,
                    upper=None if variant is Variant.LOWER else upper)
    op = ToeplitzOperator(symbol, variant, domain, codomain)
    n_max = min([n] + [s.n_limit for s in (domain, codomain) if s.n_limit is not None])
    if n_max < 2:
        return
    [new] = providers(_sample_tameness, op, kind, n_max)
    [old] = providers(ref._sample_tameness, op, kind, n_max)
    top = min(6, codomain.k_limit or 6, domain.k_limit or 6)
    for k in range(1, top + 1):
        for m in (1, top):
            assert hexed(new(k, m)) == hexed(old(k, m)), (k, m)


@st.composite
def zero_weight_spaces(draw, rows: int):
    """A tabulated space of ``rows`` rows with a zero weight in its first
    grading, in a row of the half window or of the rest."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logs = rng.uniform(-30.0, 30.0, size=rows)[:, None] + np.array([0.0, 1.0, 2.0])
    weights = np.exp(logs)
    weights[draw(st.integers(0, rows - 1)), 0] = 0.0
    return SpaceDescriptor.general(weights.tolist())


@st.composite
def near_the_gate(draw, rows: int):
    """A power series space of a table whose entries from some row on lie
    at or just past 2^40 / k, so that grading k's log weights straddle the
    2^40 up to which a pair chooses its columns."""
    k = draw(st.integers(1, 6))
    scale = draw(st.sampled_from([1.0 - 2.0**-20, 1.0 - 2.0**-52, 1.0, 1.0 + 2.0**-20]))
    start = draw(st.integers(1, rows))
    table = ExponentSequence.table([float(j) for j in range(1, start)]
                                   + [2.0**40 / k * scale] * (rows - start + 1))
    kind = draw(st.sampled_from([SpaceDescriptor.power_series_finite,
                                 SpaceDescriptor.power_series_infinite]))
    return kind(table)


@settings(max_examples=60, deadline=None)
@given(variant=st.sampled_from(list(Variant)), lower=parts, upper=parts,
       kind=st.sampled_from(list(NormKind)), n=st.integers(2, 1100), data=st.data())
def test_a_pair_range_holds_every_column_that_attains_the_pair(variant, lower, upper,
                                                               kind, n, data):
    # a full operator's upper run has a log-zero head; zero domain weights
    # and weights past 2^40 send a pair to all columns
    domain = data.draw(power_series | general_spaces(n) | zero_weight_spaces(n)
                       | near_the_gate(n), label="domain")
    codomain = data.draw(power_series | general_spaces(n) | near_the_gate(n),
                         label="codomain")
    if variant is Variant.FULL:
        lower = lower if lower.values_array(1)[0] != 0.0 else lower.with_head(1.0)
        upper = upper if upper.values_array(1)[0] != 0.0 else upper.with_head(1.0)
    symbol = Symbol(lower=None if variant is Variant.UPPER else lower,
                    upper=None if variant is Variant.LOWER else upper)
    op = ToeplitzOperator(symbol, variant, domain, codomain)
    n_max = min([n] + [s.n_limit for s in (domain, codomain) if s.n_limit is not None])
    if n_max < 2:
        return
    [pair] = providers(_sample_tameness, op, kind, n_max)
    half = n_max // 2
    top = min(6, codomain.k_limit or 6, domain.k_limit or 6)
    for k in range(1, top + 1):
        for m in (1, top):
            [cols] = profile_ranges(lambda: pair(k, m))
            if cols is None:
                continue
            [profile] = column_norm_profiles(op, k, (n_max,), kind)
            gap = profile - weight_array(domain, m, n_max)
            attain = np.flatnonzero(np.concatenate([gap[:half] == gap[:half].max(),
                                                    gap[half:] == gap.max()]))
            assert cols[0] <= attain.min() and attain.max() < cols[1], (k, m)


def test_a_zero_domain_weight_walks_all_columns():
    # a log-zero domain weight would make v - w +inf in the range facts, and
    # inf - inf NaN: the family has none for that witness, and its pairs
    # walk every column, with the full profiles' bits
    domain = SpaceDescriptor.general([[1.0, 2.0]] * 40 + [[0.0, 1.0]] + [[1.0, 2.0]] * 23)
    op = ToeplitzOperator(Symbol(lower=SymbolSpec.geometric(0.5)), Variant.LOWER,
                          domain, POOL_TEMPLATE.codomain)
    for kind in NormKind:
        [new] = providers(_sample_tameness, op, kind, 64)
        [old] = providers(ref._sample_tameness, op, kind, 64)
        for k in range(1, 5):
            for m in (1, 2):
                pair = []
                [cols] = profile_ranges(lambda: pair.append(new(k, m)))
                assert (cols is None) == (m == 1), (k, m)
                assert hexed(pair[0]) == hexed(old(k, m)), (k, m)


def walked_ranges(run):
    """The column ranges that ``run()`` walks the kernel on, in order."""
    seen = []
    original = operators._walk

    def spy(*args):
        seen.append(args[4] if len(args) > 4 else None)
        return original(*args)

    with mock.patch.object(operators, "_walk", spy):
        run()
    return seen


def test_a_pool_member_walks_a_few_columns():
    # into Λ₀(n) every gap of the pool's template falls with n, so each
    # sup pair walks a short range from the first column on
    op = POOL_TEMPLATE.build(SymbolSpec.geometric(0.5))
    seen = walked_ranges(lambda: _sample_tameness(op, SMap.identity(), Window(),
                                                  NormKind.SUM, 12, 4096))
    assert len(seen) == 12
    assert all(cols is not None and cols[0] == 0 and cols[1] <= 8 for cols in seen)


def test_an_infinite_weight_walks_all_columns_of_the_members_set_up():
    # log weights past float range are +inf from row 3 on for k >= 2, where
    # the kernel's terms may be NaN: those gradings have no range facts,
    # so their sup pairs walk every column, never reach the profile memo,
    # and have the full profiles' bits
    codomain = SpaceDescriptor.power_series_infinite(
        ExponentSequence.table([1.0, 2.0] + [1e308] * 30))
    op = ToeplitzOperator(Symbol(lower=SymbolSpec.explicit([1.0, 0.0, 1.0])),
                          Variant.LOWER, POOL_TEMPLATE.codomain, codomain)
    memo = operators.column_norm_profile
    for kind in NormKind:
        [new] = providers(_sample_tameness, op, kind, 32)
        [old] = providers(ref._sample_tameness, op, kind, 32)
        for k in range(1, 5):
            for m in (1, 4):
                pair, before = [], memo.cache_info()
                seen = walked_ranges(lambda: pair.append(new(k, m)))
                assert memo.cache_info() == before
                assert k == 1 or seen == [None]
                assert hexed(pair[0]) == hexed(old(k, m)), (k, m)


def test_set_up_is_built_once_per_member_and_per_grading():
    # the symbol side once per member; the weight side once per grading
    # and direction of the family, the upward one only for an upper part;
    # the range facts once per grading, witness and direction of the family
    window = Window().with_n_max(512)
    for name, directions in [("lower", [1]), ("upper", [-1]), ("full", [1, -1])]:
        template = POOLS[name][0]
        spaces._exponent_values.cache_clear()
        members, weights, facts = [], [], []
        symbol_side, weight_run = criteria._symbol_side, operators._weight_run
        memo = criteria._memo

        def count_members(op, n_trunc):
            members.append(op)
            return symbol_side(op, n_trunc)

        def count_weights(v, direction, n_trunc, reach):
            weights.append(direction)
            return weight_run(v, direction, n_trunc, reach)

        def count_facts(seq, n_max, key, compute):
            def build():
                facts.append(key)
                return compute()
            return memo(seq, n_max, key, build)

        with mock.patch.object(criteria, "_symbol_side", count_members), \
                mock.patch.object(operators, "_weight_run", count_weights), \
                mock.patch.object(criteria, "_memo", count_facts):
            report = criteria.tameness_check(pool_family(0, 5), SMap.identity(),
                                             template, window)
        assert len(members) == len(report.samples) == 5
        assert sorted(weights) == sorted(directions * window.k_max)
        # with identity S the witness of grading k is k
        assert sorted(facts) == sorted(
            ("range facts", template.domain.kind, k, template.codomain, k, direction)
            for k in range(1, window.k_max + 1) for direction in directions)


if __name__ == "__main__":
    mismatched = pool_mismatches(Window())
    print(f"families whose pruned tameness report differs: {mismatched}")
    sys.exit(1 if mismatched else 0)
