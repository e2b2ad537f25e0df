"""The column-norm profile memo is keyed on what the kernel reads.

The kernel reads an operator's symbol, variant and codomain, never its
domain, so ``column_norm_profiles`` looks every operator up with its domain
replaced by its codomain: operators that differ only in their domain share
one memo entry.  These tests hold that sharing to one miss, to the bits of
an uncached reference run, and to byte-identical reports.  Tameness sup
pairs walk the kernel on their member's set-up and leave the memo alone.
"""

from unittest import mock

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
