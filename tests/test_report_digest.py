"""Report bytes of the certifier and of cross-validation, pinned by digest.

The benchmark's correctness gate fingerprints outcomes and indices but not
``reason`` or ``tags``, so a reworded reason or a lost tag passes it.  These
digests cover every byte that ``koethe`` writes for:

- ``certify`` over the 6 power series spaces of the cross-validation grid
  squared x 3 quantifier shapes x 2 starting indices, at n_max = 512;
- ``cross_validate`` over the 144 grid operators x 2 properties, at
  n_max = 256.

They are recorded on one numpy build; another build may round exp or log
differently, and the test skips there.
"""

import hashlib

import pytest

from koethe import Shape
from koethe.cli import _dumps
from koethe.criteria import (
    COMPACTNESS,
    CONTINUITY,
    NStart,
    SMap,
    certify,
    weight_domination,
)
from koethe.operators import Symbol, SymbolSpec, ToeplitzOperator, Variant
from koethe.oracle import cross_validate
from koethe.spaces import ExponentSequence, SpaceDescriptor
from koethe.verdicts import Window
from reference_kernels import same_exp_log_build

#: recorded before the certifier and the oracle shared one scan-to-verdict path
CERTIFY_DIGEST = "379496e9f5fd0658700b5611d0964391e1ea02c63e712e1395e5e31ebb200805"
CROSS_DIGEST = "79888b0d93a56e558082785e1687d703464730a04c5c47d4b072ef194362bc99"

pytestmark = pytest.mark.skipif(not same_exp_log_build(),
                                reason="this numpy build rounds exp or log differently")


def grid_spaces() -> list[SpaceDescriptor]:
    alphas = [ExponentSequence.affine(1.0), ExponentSequence.power(2.0),
              ExponentSequence.power(0.5)]
    return [make(alpha) for alpha in alphas
            for make in (SpaceDescriptor.power_series_finite,
                         SpaceDescriptor.power_series_infinite)]


def certify_digest() -> str:
    win = Window().with_n_max(512)
    digest = hashlib.sha256()
    for domain in grid_spaces():
        for codomain in grid_spaces():
            for shape in Shape:
                s_map = SMap.identity() if shape is Shape.FIXED_MAP else None
                for n_start in NStart:
                    cond = weight_domination(domain, codomain, shape, n_start, s_map)
                    digest.update(_dumps(certify(cond, win).to_json()).encode())
    return digest.hexdigest()


def cross_digest() -> str:
    win = Window().with_n_max(256)
    digest = hashlib.sha256()
    for variant in (Variant.LOWER, Variant.UPPER):
        for domain in grid_spaces():
            for codomain in grid_spaces():
                for spec in (SymbolSpec.delta(), SymbolSpec.geometric(0.5)):
                    sym = (Symbol(lower=spec) if variant is Variant.LOWER
                           else Symbol(upper=spec))
                    op = ToeplitzOperator(sym, variant, domain, codomain)
                    for prop in (CONTINUITY, COMPACTNESS):
                        report = cross_validate(op, win, prop)
                        digest.update(_dumps(report.to_json()).encode())
    return digest.hexdigest()


def test_certify_reports_match_the_recorded_digest():
    assert certify_digest() == CERTIFY_DIGEST


def test_cross_validation_reports_match_the_recorded_digest():
    assert cross_digest() == CROSS_DIGEST
