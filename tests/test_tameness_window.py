"""Tameness sup pairs run the kernel only on the columns that can attain them,
and a family's members walk it in lock-step.

The scans of up to ``criteria._GROUP`` members run in lock-step.  At each
grading ``criteria._sample_tameness`` chooses one column range for the
live members whose symbol logs are tame, from their stacked runs and
weight facts that the family shares (``criteria._range_facts``), walks the
kernel on it in stacks no wider than one member's all-columns walk and
reduces each stack's gaps in one pass; where the weights are not tame,
and for a member whose symbol is not, each member walks every column
alone.  These tests hold the pairs bit for bit,
and the reports byte for byte, against ``reference_kernels._sample_tameness``,
which reads the full profile for every pair; the lock-step pairs against
each member's walk alone; each grading's range against the ranges that
the per-pair bounds in ``reference_kernels.sup_columns`` give its members;
and every range against the columns where the full profile's gap attains
the pair.

Run as a script, the report check of every family in ``POOLS`` runs at
the default window (n_max=4096) and exits 1 on a report that differs:

    python tests/test_tameness_window.py
"""

import math
import sys
import tracemalloc
from collections import Counter
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
    _profiles,
    _stack,
    _symbol_side,
    _weight_side,
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
    """The column range of every ``_profiles`` walk that ``run()`` makes, in
    order: one per sup pair."""
    seen = []
    profiles = criteria._profiles

    def spy(runs, weights, n_trunc, norm_kind, cols=None):
        seen.append(cols)
        return profiles(runs, weights, n_trunc, norm_kind, cols)

    with mock.patch.object(criteria, "_profiles", spy):
        run()
    return seen


def graded_pairs(run):
    """Run ``run()`` and return, for each grading of each lock-step scan,
    (ops, kind, n_max, k, m, live, ranges, pairs): the scan's operators,
    its live members, the column ranges that ``criteria._pair_columns``
    chose (one, for the group, or none where every live member walks
    alone; None in it is all columns) and the sup pairs."""
    out, chosen = [], []
    sample, lockstep, choose = (criteria._sample_tameness, criteria.scan_fixed_lockstep,
                                criteria._pair_columns)

    def pair_columns(*args):
        chosen.append(choose(*args))
        return chosen[-1]

    def group(ops, s_map, win, kind, k_max, n_max):
        def scans(win, sup_pairs, count, k_max, s_map):
            def pairs(k, m, live):
                chosen.clear()
                got = sup_pairs(k, m, live)
                out.append((ops, kind, n_max, k, m, list(live), list(chosen), got))
                return got
            return lockstep(win, pairs, count, k_max, s_map)
        with mock.patch.object(criteria, "scan_fixed_lockstep", scans):
            return sample(ops, s_map, win, kind, k_max, n_max)

    with mock.patch.object(criteria, "_sample_tameness", group), \
            mock.patch.object(criteria, "_pair_columns", pair_columns):
        run()
    return out


def union(ranges):
    """The least column range that holds each of ``ranges``; None, all
    columns, where one of them is None."""
    if None in ranges:
        return None
    starts, ends = zip(*ranges)
    return min(starts), max(ends)


def test_pool_families_walk_the_reference_bounds_ranges():
    # each grading's one range is the union of the ranges that the per-pair
    # bounds give its live members; the wild domain chooses none, and its
    # members walk all columns
    for name, (template, seeds) in POOLS.items():
        for seed in seeds:
            records = graded_pairs(lambda: criteria.tameness_check(
                pool_family(seed), SMap.identity(), template, Window().with_n_max(512)))
            assert records, (name, seed)
            for ops, kind, n_max, k, m, live, ranges, _ in records:
                expected = union([ref.sup_columns(ops[i], k, m, n_max, kind)
                                  for i in live])
                assert (ranges or [None]) == [expected], (name, seed, k)
                assert (ranges == []) == (name == "wild") == (expected is None)


def hexed(pair):
    return tuple(float(v).hex() for v in pair)


def provider(op, kind, n_max):
    """The sup-pair provider of ``op`` alone: the one-member case of the
    provider that ``criteria._sample_tameness`` hands its lock-step scans."""
    out = []

    def capture(win, sup_pairs, count, k_max, s_map):
        out.append(sup_pairs)
        return [Scan(Outcome.INCONCLUSIVE)] * count

    with mock.patch.object(criteria, "scan_fixed_lockstep", capture):
        _sample_tameness([op], SMap.identity(), Window(), kind, 6, n_max)
    [sup_pairs] = out
    return lambda k, m: sup_pairs(k, m, [0])[0]


def reference_provider(op, kind, n_max):
    """The sup-pair provider that ``reference_kernels._sample_tameness``
    hands its fixed-map scan."""
    out = []

    def capture(win, sup_pair, k_max, s_map):
        out.append(sup_pair)
        return Scan(Outcome.INCONCLUSIVE)

    with mock.patch.object(ref, "scan_fixed", capture):
        ref._sample_tameness(op, SMap.identity(), Window(), kind, 6, n_max)
    [sup_pair] = out
    return sup_pair


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
    new = provider(op, kind, n_max)
    old = reference_provider(op, kind, n_max)
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
    pair = provider(op, kind, n_max)
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
        new = provider(op, kind, 64)
        old = reference_provider(op, kind, 64)
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
    seen = walked_ranges(lambda: _sample_tameness([op], SMap.identity(), Window(),
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
        new = provider(op, kind, 32)
        old = reference_provider(op, kind, 32)
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
        members, built = Counter(), Counter()
        symbol_side, memo = criteria._symbol_side, spaces._memo

        def count_members(op, n_trunc):
            members[op] += 1
            return symbol_side(op, n_trunc)

        def count_builds(seq, n_max, key, compute):
            def build():
                built[key] += 1
                return compute()
            return memo(seq, n_max, key, build)

        with mock.patch.object(criteria, "_symbol_side", count_members), \
                mock.patch.object(operators, "_memo", count_builds), \
                mock.patch.object(criteria, "_memo", count_builds):
            report = criteria.tameness_check(pool_family(0, 5), SMap.identity(),
                                             template, window)
        assert len(report.samples) == 5 and list(members.values()) == [1] * 5
        grid = [(k, d) for k in range(1, window.k_max + 1) for d in directions]
        assert Counter(key for key in built.elements() if key[0] == "kernel weights") \
            == Counter(("kernel weights", template.codomain.kind, k, d) for k, d in grid)
        # with identity S the witness of grading k is k
        assert Counter(key for key in built.elements() if key[0] == "range facts") \
            == Counter(("range facts", template.domain.kind, k, template.codomain, k, d)
                       for k, d in grid)


def requested_pairs(run, group: int):
    """Run ``run()`` with at most ``group`` members per lock-step scan, and
    return its result and every sup pair the scans requested, in float.hex,
    as (member, k, m, pair) with the members numbered in family order."""
    pairs, first = [], [0]
    lockstep = criteria.scan_fixed_lockstep

    def scans(win, sup_pairs, count, k_max, s_map):
        base = first[0]
        first[0] += count

        def record(k, m, live):
            out = sup_pairs(k, m, live)
            pairs.extend((base + i, k, m, hexed(pair)) for i, pair in zip(live, out))
            return out
        return lockstep(win, record, count, k_max, s_map)

    with mock.patch.object(criteria, "_GROUP", group), \
            mock.patch.object(criteria, "scan_fixed_lockstep", scans):
        result = run()
    return result, sorted(pairs)


def hexed_samples(report):
    return [(s.status, s.k0, None if s.log_c is None else s.log_c.hex())
            for s in report.samples]


#: Λ∞ of a table past 2^1022 from its third entry on, long enough for the
#: drawn windows
SHORT_WILD = SpaceDescriptor.power_series_infinite(
    ExponentSequence.table([1.0, 2.0] + [1e308] * 598))
#: (domain, codomain): from Λ₀(n) into itself the upper parts of ratio r
#: stop near k = 1 / log(1/r), so the members' scans stop apart
space_pairs = st.one_of(
    st.just((POOL_TEMPLATE.codomain, POOL_TEMPLATE.codomain)),
    st.tuples(power_series, power_series),
    st.tuples(st.just(SHORT_WILD), power_series),
)
#: family members: i_top = 1, wide geometric supports, a finite support,
#: and symbol logs past 2^40, which walk alone
member_parts = st.one_of(
    st.just(SymbolSpec.geometric(0.0)),
    st.floats(-0.97, 0.97).map(SymbolSpec.geometric),
    st.just(SymbolSpec.explicit([1.0, -0.5, 0.25])),
    st.just(SymbolSpec.polynomial(-(2**40))),
)


@settings(max_examples=60, deadline=None)
@given(variant=st.sampled_from(list(Variant)), count=st.integers(1, 40),
       spaces_=space_pairs, n=st.integers(4, 600), k_max=st.integers(1, 8),
       data=st.data())
def test_lockstep_scans_match_one_member_walks(variant, count, spaces_, n, k_max, data):
    # every member's pairs, status, k0 and log_c are those of its walks
    # alone, and the scans request the pairs that they request alone; the
    # families of more than _GROUP members run in several groups
    parts = [data.draw(st.lists(member_parts, min_size=count, max_size=count), label=part)
             for part in ("lower", "upper")]
    template = OperatorTemplate(variant, *spaces_)
    drawn = {Variant.LOWER: parts[0], Variant.UPPER: parts[1]}

    def family(family, part, *_):
        return drawn[part]

    window = Window(k_max=k_max).with_n_max(n)
    with mock.patch.object(criteria, "_sample_family", family):
        reports = [requested_pairs(lambda: criteria.tameness_check(
            FamilySpec(count=count), SMap.identity(), template, window), group)
            for group in (criteria._GROUP, 1)]
    (together, pairs), (alone, pairs_alone) = reports
    assert pairs == pairs_alone
    assert hexed_samples(together) == hexed_samples(alone)
    assert _dumps(together.to_json()) == _dumps(alone.to_json())


@settings(max_examples=40, deadline=None)
@given(variant=st.sampled_from(list(Variant)), count=st.integers(1, 20),
       spaces_=space_pairs, n=st.integers(4, 600), k_max=st.integers(1, 6),
       data=st.data())
def test_a_group_range_holds_each_members_reference_range(variant, count, spaces_, n,
                                                          k_max, data):
    # mixed families of signed ratios, finite supports and wild members: at
    # every grading the group's one range holds the range that the per-pair
    # bounds give each of its members, and every member's pair, in the group
    # or alone, has the full profile's bits
    parts = [data.draw(st.lists(member_parts, min_size=count, max_size=count), label=part)
             for part in ("lower", "upper")]
    template = OperatorTemplate(variant, *spaces_)
    drawn = {Variant.LOWER: parts[0], Variant.UPPER: parts[1]}

    def family(family, part, *_):
        return drawn[part]

    window = Window(k_max=k_max).with_n_max(n)
    with mock.patch.object(criteria, "_sample_family", family):
        records = graded_pairs(lambda: criteria.tameness_check(
            FamilySpec(count=count), SMap.identity(), template, window))
    providers = {}
    for ops, kind, n_max, k, m, live, ranges, pairs in records:
        # a grading chooses one range where it has tame members and range
        # facts, and none otherwise
        sides = [_symbol_side(ops[i], n_max) for i in live]
        tame = [i for i, side in zip(live, sides)
                if all(criteria._tame(run.u) for run in side)]
        facts = [criteria._range_facts(ops[0].domain, ops[0].codomain, k, m,
                                       run.direction, n_max) for run in sides[0]]
        assert len(ranges) == (1 if tame and None not in facts else 0), (k, m)
        c0, c1 = (ranges[0] if ranges else None) or (0, n_max)
        for i in tame if ranges else ():
            r0, r1 = ref.sup_columns(ops[i], k, m, n_max, kind) or (0, n_max)
            assert c0 <= r0 and r1 <= c1, (i, k, m)
        for i, pair in zip(live, pairs):
            if ops[i] not in providers:
                providers[ops[i]] = reference_provider(ops[i], kind, n_max)
            assert hexed(pair) == hexed(providers[ops[i]](k, m)), (i, k, m)


def test_lockstep_scans_stop_at_each_members_own_grading():
    # an upper family from Λ₀(n) into Λ₀(n) whose scans stop at k = 3, 12,
    # 1, 12, 2 and 2: each member asks for its own gradings, from 12 down
    # to its stop, in one lock-step group, as it does alone
    finite = SpaceDescriptor.power_series_finite(ALPHA)
    template = OperatorTemplate(Variant.UPPER, finite, finite)
    family = FamilySpec(count=6, seed=1, r_min=0.5, r_max=0.95)
    window = Window().with_n_max(512)
    runs = [requested_pairs(lambda: criteria.tameness_check(
        family, SMap.identity(), template, window), group)
        for group in (criteria._GROUP, 1)]
    (report, pairs), (alone, pairs_alone) = runs
    assert [s.k0 for s in report.samples] == [4, None, 2, None, 3, 3]
    stops = [3, 12, 1, 12, 2, 2]
    assert [(i, k, m) for i, k, m, _ in pairs] == sorted(
        (i, k, k) for i, stop in enumerate(stops) for k in range(stop, 13))
    assert pairs == pairs_alone and hexed_samples(report) == hexed_samples(alone)


def test_members_with_wide_ranges_walk_bounded_stacks_on_the_group_range():
    # from Λ∞(√n) into Λ∞(log n) the group's range reaches 56 to 153 of 256
    # columns: the 16 members walk it in stacks no wider than one member's
    # all-columns walk (4, 4, 3 and 1 members), each with its own bits
    template = OperatorTemplate(Variant.LOWER,
                                SpaceDescriptor.power_series_infinite(
                                    ExponentSequence.power(0.5)),
                                SpaceDescriptor.power_series_infinite(
                                    ExponentSequence.logarithmic()))
    family, window = pool_family(1, 16), Window(k_max=4).with_n_max(256)
    walks = []
    original = operators._walk

    def spy(*args):
        walks.append((len(args[0].u), args[4] if len(args) > 4 else None))
        return original(*args)

    with mock.patch.object(operators, "_walk", spy):
        report, pairs = requested_pairs(lambda: criteria.tameness_check(
            family, SMap.identity(), template, window), criteria._GROUP)
    alone, pairs_alone = requested_pairs(lambda: criteria.tameness_check(
        family, SMap.identity(), template, window), 1)
    assert all(cols is not None and size * (cols[1] - cols[0]) <= 256
               for size, cols in walks)
    sizes = {cols: Counter(size for size, c in walks if c == cols) for _, cols in walks}
    assert sizes == {(0, 56): {4: 4}, (0, 64): {4: 4}, (0, 83): {3: 5, 1: 1},
                     (0, 153): {1: 16}}
    assert pairs == pairs_alone and hexed_samples(report) == hexed_samples(alone)


def test_a_group_walked_one_member_at_a_time_is_stacked_once():
    # from Λ₀(n) into itself the group's range spans every column, so each
    # member walks alone, on its own symbol side: the group's stack, which
    # chooses the range, is built once and kept across gradings
    finite = SpaceDescriptor.power_series_finite(ALPHA)
    template = OperatorTemplate(Variant.LOWER, finite, finite)
    family, window = FamilySpec(count=16, seed=1), Window().with_n_max(256)
    stacks = []

    def counted(sides):
        stacks.append(len(sides))
        return _stack(sides)

    with mock.patch.object(criteria, "_stack", counted):
        report, pairs = requested_pairs(lambda: criteria.tameness_check(
            family, SMap.identity(), template, window), criteria._GROUP)
    alone, pairs_alone = requested_pairs(lambda: criteria.tameness_check(
        family, SMap.identity(), template, window), 1)
    assert stacks == [16]
    assert pairs == pairs_alone and hexed_samples(report) == hexed_samples(alone)


def test_a_stack_of_one_column_ranges_has_each_members_bits():
    # each member on the one-column range of column 1, at n = 4096 and
    # k >= 10, where the walk reaches a second offset block: the stack's
    # (offset, member) blocks must be summed row by row, as each member's
    # own (offset, column) block is; an offset-fastest layout would sum
    # them pairwise and move the last bit
    ops = [POOL_TEMPLATE.build(SymbolSpec.geometric(r))
           for r in np.linspace(0.93, 0.97, 16)]
    sides = [_symbol_side(op, 4096) for op in ops]

    class Blocks:
        """numpy as the kernel sees it, counting the blocks whose terms it
        writes (each by one ``np.add(..., out=)``)."""

        def __getattr__(self, name):
            return getattr(np, name)

        def add(self, *args, out=None, **kwargs):
            self.count += out is not None
            return np.add(*args, out=out, **kwargs)

    for k in (10, 11, 12):
        weights = [_weight_side(POOL_TEMPLATE.codomain, k, 4096, 1)]
        blocks = Blocks()
        blocks.count = 0
        with mock.patch.object(operators, "np", blocks):
            stack = _profiles(_stack(sides), weights, 4096, NormKind.SUM, (0, 1))
        assert blocks.count >= 2
        for side, row in zip(sides, stack):
            [alone] = _profiles(side, weights, 4096, NormKind.SUM, (0, 1))
            assert row.tobytes() == alone.tobytes(), k


def test_a_stack_keeps_the_bits_of_members_with_far_apart_bounds():
    # a stack skips and cuts by the loosest of its members' bounds: member
    # 0's first two terms lie 200 above member 1's and its running scale
    # about 100 above, so bounds taken from member 0 would cut member 1's
    # rows from offset 2 on and skip its second block
    n = 300
    codomain = SpaceDescriptor.general([[1.0]] * n)
    specs = [SymbolSpec.explicit([1.0, 1.0]),
             SymbolSpec.explicit([math.exp(-200.0)] * 2 + [math.exp(-100.0)] * (n - 2))]
    sides = [_symbol_side(ToeplitzOperator(Symbol(lower=spec), Variant.LOWER,
                                           codomain, codomain), n) for spec in specs]
    weights = [_weight_side(codomain, 1, n, 1)]
    for norm in NormKind:
        stack = _profiles(_stack(sides), weights, n, norm)
        for side, row in zip(sides, stack):
            [alone] = _profiles(side, weights, n, norm)
            assert row.tobytes() == alone.tobytes(), norm


def test_a_pool_family_stays_within_its_memory_bound():
    # at most _GROUP members are in flight, each with its symbol side: once
    # the process has run a family, one pool family at the default window
    # on fresh sequence facts allocates at most 5 MiB at its peak (2.5 MiB
    # with one member in flight, 3.6 MiB with 16, 6.2 MiB with all 50)
    def family():
        spaces._exponent_values.cache_clear()
        criteria.tameness_check(pool_family(0), SMap.identity(), POOL_TEMPLATE, Window())

    family()
    tracemalloc.start()
    try:
        family()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2**20


if __name__ == "__main__":
    mismatched = pool_mismatches(Window())
    print(f"families whose pruned tameness report differs: {mismatched}")
    sys.exit(1 if mismatched else 0)
