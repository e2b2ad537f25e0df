"""The column-norm profile memo is keyed on what the kernel reads.

The kernel reads an operator's symbol, variant and codomain, never its
domain, so ``column_norm_profiles`` looks every operator up with its domain
replaced by its codomain: operators that differ only in their domain share
one memo entry.  These tests hold that sharing to one miss, to the bits of
an uncached reference run, and to byte-identical reports.
"""

from unittest import mock

import pytest

import reference_kernels as ref
from koethe import spaces
from koethe import operators as operators_module
from koethe.cli import _dumps
from koethe.criteria import COMPACTNESS, CONTINUITY, SMap, _sample_tameness
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


def test_tameness_samples_read_the_shared_profiles():
    # _sample_tameness looks its profiles up through column_norm_profiles,
    # on the codomain twin, so a domain twin of an operator the oracle
    # already read shares its key.  A sup pair may read a column range of
    # the profile instead (into Λ₀(n) it does), a key of its own, so the
    # memo is held to a repeat sample of the same member
    spec = SymbolSpec.geometric(0.1875)
    original = operators_module.column_norm_profile
    for codomain, ranged in [(SPACES[1], False), (SPACES[0], True)]:
        ops = [ToeplitzOperator(Symbol(lower=spec), Variant.LOWER, domain, codomain)
               for domain in (SPACES[2], SPACES[4])]
        for k in range(1, 5):
            column_norm_profiles(ops[0], k, (128,), NormKind.SUM)
        seen = []

        def wrapper(op, k, n_trunc, norm_kind, *cols):
            seen.append((op.domain, cols))
            return original(op, k, n_trunc, norm_kind, *cols)

        with mock.patch.object(operators_module, "column_norm_profile", wrapper):
            sample = _sample_tameness(ops[1], SMap.identity(), Window(k_max=4),
                                      NormKind.SUM, 4, 128)
            before = original.cache_info().misses
            again = _sample_tameness(ops[1], SMap.identity(), Window(k_max=4),
                                     NormKind.SUM, 4, 128)
            assert seen and original.cache_info().misses == before
        assert again == sample
        assert {domain for domain, _ in seen} == {codomain}
        assert any(cols for _, cols in seen) == ranged


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
