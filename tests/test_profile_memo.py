"""The column-norm profile memo is keyed on what the kernel reads.

The kernel reads an operator's symbol, variant and codomain, never its
domain, so ``column_norm_profiles`` looks every operator up with its domain
replaced by its codomain: operators that differ only in their domain share
one memo entry.  These tests hold that sharing to one miss, to the bits of
an uncached reference run, and to byte-identical reports.  Tameness sup
pairs walk the kernel on their member's set-up and leave the memo alone.

A profile's symbol side depends on neither the grading nor the codomain's
kind, so it is built once per (sequence, truncation, symbol, variant) and
kept, read-only, among the sequence's facts; these tests hold it to one
build, to a cold build's bits, and to the warnings a cold read gives.
"""

import dataclasses
import math
import warnings
from unittest import mock

import numpy as np
import pytest

import reference_kernels as ref
from koethe import spaces
from koethe import operators as operators_module
from koethe.cli import _dumps
from koethe.criteria import (
    COMPACTNESS,
    CONTINUITY,
    FamilySpec,
    OperatorTemplate,
    SMap,
    tameness_check,
)
from koethe.operators import (
    NormKind,
    Symbol,
    SymbolSpec,
    ToeplitzOperator,
    Variant,
    column_norm_profiles,
)
from koethe.oracle import cross_validate
from koethe.spaces import ExponentSequence, SpaceDescriptor
from koethe.verdicts import Window

EXPONENTS = (ExponentSequence.affine(1.0), ExponentSequence.power(2.0),
             ExponentSequence.power(0.5))
SPACES = [make(alpha) for alpha in EXPONENTS
          for make in (SpaceDescriptor.power_series_finite,
                       SpaceDescriptor.power_series_infinite)]


def _cold() -> None:
    operators_module.column_norm_profile.cache_clear()
    spaces.weight_array.cache_clear()
    spaces._exponent_values.cache_clear()


def _misses() -> int:
    return operators_module.column_norm_profile.cache_info().misses


def _backing(profile):
    """The memoised array a profile is, or is a slice of."""
    return profile if profile.base is None else profile.base


@pytest.mark.parametrize("kind", list(NormKind))
@pytest.mark.parametrize("variant", list(Variant))
def test_operators_differing_only_in_domain_share_one_profile(variant, kind):
    # a symbol no other test uses, so the first lookup is a miss
    symbol = Symbol(lower=SymbolSpec.geometric(0.4375),
                    upper=SymbolSpec.geometric(-0.3125))
    codomain = SPACES[3]
    ops = [ToeplitzOperator(symbol, variant, domain, codomain)
           for domain in (SPACES[0], SPACES[5])]
    before = _misses()
    first, second = (column_norm_profiles(op, 3, (200,), kind)[0] for op in ops)
    assert _misses() - before == 1
    assert _backing(first) is _backing(second)
    with ref.gather_kernel():
        reference = ref.uncached_profile(ops[1], 3, 200, kind)
    assert first.tobytes() == second.tobytes() == reference.tobytes()


def _family_report(template, window):
    family = FamilySpec(count=3, seed=5, r_min=0.05, r_max=0.9)
    return _dumps(tameness_check(family, SMap.identity(), template, window).to_json())


def test_a_bounded_family_leaves_the_profile_memo_alone():
    # bounded sup pairs walk the kernel on their members' set-ups, on a
    # column range (Λ∞(n) into Λ₀(n), the members in one stack) or on all
    # columns (Λ∞(n^0.5) into itself, each member alone), so the profile
    # memo is neither read nor filled
    window = Window(k_max=4).with_n_max(128)
    original = operators_module._walk
    for domain, codomain, ranged in [(SPACES[1], SPACES[0], True),
                                     (SPACES[5], SPACES[5], False)]:
        template = OperatorTemplate(Variant.LOWER, domain, codomain)
        walked = []

        def spy(*args):
            # one entry per member of the stack walked
            walked.extend([args[4] is not None] * len(args[0].u))
            return original(*args)

        before = operators_module.column_norm_profile.cache_info()
        with mock.patch.object(operators_module, "_walk", spy):
            _family_report(template, window)
        assert operators_module.column_norm_profile.cache_info() == before
        assert len(walked) == 3 * 4 and set(walked) == {ranged}


def test_a_wild_domain_family_walks_all_columns_of_its_set_ups():
    # a domain weight of 2^1022 or more is wild at every witness, so every
    # sup pair walks all columns of its member's set-up, leaves the profile
    # memo alone, and reports what the full profiles give
    wild = SpaceDescriptor.power_series_infinite(
        ExponentSequence.table([1.0, 2.0] + [1e308] * 126))
    template = OperatorTemplate(Variant.LOWER, wild, SPACES[0])
    window = Window(k_max=4).with_n_max(128)
    original = operators_module._walk
    walked = []

    def spy(*args):
        walked.append(args[4] if len(args) > 4 else None)
        return original(*args)

    before = operators_module.column_norm_profile.cache_info()
    with mock.patch.object(operators_module, "_walk", spy):
        report = _family_report(template, window)
    assert operators_module.column_norm_profile.cache_info() == before
    assert walked == [None] * (3 * 4)
    with ref.full_profile_tameness():
        assert _family_report(template, window) == report


def _grid_reports(cold: bool) -> list[bytes]:
    """``cross_validate`` reports of lower and upper delta and geometric(0.5)
    operators over the six spaces squared, both properties, at n_max=64;
    the domain varies fastest, so in sequence each profile is shared."""
    window = Window().with_n_max(64)
    out = []
    for variant in (Variant.LOWER, Variant.UPPER):
        for spec in (SymbolSpec.delta(), SymbolSpec.geometric(0.5)):
            symbol = (Symbol(lower=spec) if variant is Variant.LOWER
                      else Symbol(upper=spec))
            for codomain in SPACES:
                for domain in SPACES:
                    op = ToeplitzOperator(symbol, variant, domain, codomain)
                    for prop in (CONTINUITY, COMPACTNESS):
                        if cold:
                            _cold()
                        report = cross_validate(op, window, prop)
                        out.append(_dumps(report.to_json()).encode())
    return out


def test_shared_profiles_leave_every_report_byte_unchanged():
    _cold()
    in_sequence = _grid_reports(cold=False)
    assert len(in_sequence) == 2 * 2 * 6 * 6 * 2
    assert _grid_reports(cold=True) == in_sequence


def test_memoised_profiles_keep_no_weight_side():
    # a memoised profile builds its own weight sides and keeps none of
    # them; only the tameness check keeps a grading's weight side among
    # the facts of its codomain's sequence, for its family
    window = Window().with_n_max(64)
    codomain = SPACES[1]

    def kept():
        return [key for n in range(1, 65)
                for key in spaces._exponent_values(codomain.alpha, n).facts
                if key[:1] == ("kernel weights",)]

    _cold()
    for symbol in (Symbol(lower=SymbolSpec.geometric(0.5)),
                   Symbol(upper=SymbolSpec.geometric(0.5))):
        variant = Variant.LOWER if symbol.upper is None else Variant.UPPER
        op = ToeplitzOperator(symbol, variant, SPACES[0], codomain)
        for prop in (CONTINUITY, COMPACTNESS):
            cross_validate(op, window, prop)
    assert _misses() > 0 and kept() == []
    operators_module._weight_side(codomain, 1, 64, -1)
    assert kept() == [("kernel weights", codomain.kind, 1, -1)]


#: one symbol of each kernel path: a one-term column, and a walk
SYMBOLS = (SymbolSpec.delta(), SymbolSpec.geometric(0.5))


def _operator(variant, spec, codomain):
    if variant is Variant.FULL:
        symbol = Symbol(lower=spec, upper=SymbolSpec.geometric(-0.25).with_head(1.0))
    else:
        symbol = Symbol(**{variant.value: spec})
    return ToeplitzOperator(symbol, variant, SPACES[0], codomain)


def _counting_builds():
    """Rebind operators._symbol_side to count its builds."""
    builds = []
    original = operators_module._symbol_side

    def counted(op, n_trunc):
        builds.append((op.symbol, op.variant, n_trunc))
        return original(op, n_trunc)
    return builds, mock.patch.object(operators_module, "_symbol_side", counted)


@pytest.mark.parametrize("variant", list(Variant))
def test_one_symbol_side_per_sequence_truncation_symbol_and_variant(variant):
    # every grading, both norms and both kinds over one sequence read one
    # side; each call built its own before the side was memoised (12 builds
    # per operator and norm over these gradings)
    _cold()
    builds, counting = _counting_builds()
    with counting:
        for spec in SYMBOLS:
            for codomain in SPACES[:2]:
                op = _operator(variant, spec, codomain)
                for kind in NormKind:
                    for k in range(1, 13):
                        operators_module.column_norm_profile(op, k, 200, kind)
    assert sorted(builds, key=repr) == sorted(
        {(_operator(variant, spec, SPACES[0]).symbol, variant, 200) for spec in SYMBOLS},
        key=repr)


def test_memoised_symbol_sides_are_read_only():
    _cold()
    op = _operator(Variant.FULL, SymbolSpec.geometric(0.5), SPACES[3])
    operators_module.column_norm_profile(op, 2, 200)
    runs = spaces._memo(SPACES[3].alpha, 200, ("symbol side", op.symbol, op.variant),
                        lambda: pytest.fail("the symbol side was not memoised"))
    assert len(runs) == 2
    for run in runs:
        for arr in (run.u, run.u_sufmax):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[..., 0] = 0.0


#: +inf exponents: +inf log weights from the third row on
INF_TABLE = SpaceDescriptor.power_series_infinite(
    ExponentSequence.table([0.0, 1.0] + [math.inf] * 198))
GENERAL = SpaceDescriptor.general(
    [[0.0, 1.0, 2.0]] * 3 + [[float(n), n + 1.0, n * n + 2.0] for n in range(3, 200)])


@pytest.mark.parametrize("codomain", [SPACES[0], SPACES[1], GENERAL, INF_TABLE],
                         ids=["finite", "infinite", "general", "inf-table"])
def test_profiles_on_a_memoised_side_have_a_cold_builds_bits(codomain):
    # each profile is read after every other grading has read the side,
    # and against the profile of a build with every cache cleared; a
    # general Köthe codomain has no sequence, so it builds on each call
    gradings = range(1, (codomain.k_limit or 4) + 1)
    # a two-part symbol under the lower or upper variant reads one part, on
    # a side of its own
    full = [_operator(Variant.FULL, spec, codomain) for spec in SYMBOLS]
    ops = [_operator(variant, spec, codomain) for variant in (Variant.LOWER, Variant.UPPER)
           for spec in SYMBOLS] + full + [dataclasses.replace(op, variant=variant)
                                          for op in full
                                          for variant in (Variant.LOWER, Variant.UPPER)]
    cases = [(op, kind) for op in ops for kind in NormKind]
    cold = {}
    for op, kind in cases:
        for k in gradings:
            _cold()
            cold[op, kind, k] = operators_module.column_norm_profile(op, k, 200, kind)
    _cold()
    builds, counting = _counting_builds()
    with counting:
        for op, kind in cases:
            for k in [*gradings[1:], gradings[0]]:
                profile = operators_module.column_norm_profile(op, k, 200, kind)
                assert profile.tobytes() == cold[op, kind, k].tobytes(), (op, kind, k)
    calls = len(cases) * len(gradings)
    expected = calls if codomain is GENERAL else len(cases) // len(NormKind)
    assert len(builds) == expected


def test_a_read_past_float_range_warns_as_a_cold_read_does():
    # the weights are evaluated before the side is looked up: a finite
    # type's read of n^2000 overflows and warns, and an infinite type's read
    # after it evaluates the sequence with overflow silenced, as it does cold
    alpha = ExponentSequence.power(2000.0)
    delta = _operator(Variant.LOWER, SymbolSpec.delta(), SPACES[0])
    finite, infinite = (dataclasses.replace(delta, codomain=make(alpha))
                        for make in (SpaceDescriptor.power_series_finite,
                                     SpaceDescriptor.power_series_infinite))
    _cold()
    with np.errstate(over="ignore"):
        cold = operators_module.column_norm_profile(infinite, 2, 64)
    _cold()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="overflow encountered in power"):
            operators_module.column_norm_profile(finite, 2, 64)
        profile = operators_module.column_norm_profile(infinite, 2, 64)
    assert profile.tobytes() == cold.tobytes()
    assert profile[0] == 2.0
