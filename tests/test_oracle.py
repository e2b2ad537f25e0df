"""Ratio-curve oracles, cross-validation, dense truncations."""

import math

import numpy as np
import pytest

from koethe.criteria import COMPACTNESS, CONTINUITY
from koethe.errors import ConfigurationError, WindowError
from koethe.operators import (
    NormKind,
    Symbol,
    SymbolSpec,
    ToeplitzOperator,
    Variant,
    _dense_matrix,
)
from koethe.oracle import (
    Agreement,
    CSV_HEADER,
    cross_validate,
    dense_truncation,
    oracle_compactness,
    oracle_continuity,
    ratio_curve,
)
from koethe.spaces import ExponentSequence, SpaceDescriptor
from koethe.verdicts import Outcome, Window

ALPHA_N = ExponentSequence.affine(1.0)
ALPHA_N2 = ExponentSequence.power(2.0)
L1_N = SpaceDescriptor.power_series_finite(ALPHA_N)
L1_N2 = SpaceDescriptor.power_series_finite(ALPHA_N2)
LINF_N = SpaceDescriptor.power_series_infinite(ALPHA_N)
LINF_N2 = SpaceDescriptor.power_series_infinite(ALPHA_N2)

WIN = Window()
DELTA = SymbolSpec.delta()
EXP_DECAY = SymbolSpec.geometric(math.exp(-1.0))

IDENTITY = ToeplitzOperator(Symbol(lower=DELTA), Variant.LOWER, L1_N, L1_N)
DECAY_OP = ToeplitzOperator(Symbol(lower=EXP_DECAY), Variant.LOWER, L1_N, L1_N2)


def test_identity_curve_is_flat_zero():
    curve = ratio_curve(IDENTITY, 3, 3, window=WIN)
    assert all(v == 0.0 for _, v in curve.points)


def test_identity_curve_mismatched_gradings_grows_linearly():
    curve = ratio_curve(IDENTITY, 2, 1, window=WIN)
    for n_c, v in curve.points:
        assert v == pytest.approx(n_c / 2.0)


def test_curve_plateaus_fast_for_decaying_symbol():
    curve = ratio_curve(DECAY_OP, 12, 1, window=WIN)
    values = [v for _, v in curve.points]
    assert values[-1] - values[0] <= 1e-9


def test_curve_monotone_in_truncation():
    for op in (IDENTITY, DECAY_OP):
        for k, m in ((1, 1), (3, 2), (2, 5)):
            pts = [v for _, v in ratio_curve(op, k, m, window=WIN).points]
            assert all(a <= b + 1e-12 for a, b in zip(pts, pts[1:]))


def test_curve_nonincreasing_in_witness_index():
    for m in range(1, 6):
        a = ratio_curve(DECAY_OP, 4, m, window=WIN).points[-1][1]
        b = ratio_curve(DECAY_OP, 4, m + 1, window=WIN).points[-1][1]
        assert b <= a + 1e-12


def test_curve_reads_its_checkpoints_from_its_window():
    win = Window(n_max=512, checkpoints=(8, 64, 256, 512))
    assert [n for n, _ in ratio_curve(DECAY_OP, 2, 1, window=win).points] == [
        8, 64, 256, 512]
    # cut at the truncation of a tabulated domain, as the oracle cuts it
    table = SpaceDescriptor.general([[1.0, 2.0, 3.0]] * 100)
    op = ToeplitzOperator(DECAY_OP.symbol, Variant.LOWER, table, L1_N)
    assert [n for n, _ in ratio_curve(op, 2, 1, window=win).points] == [8, 64, 100]


# a ratio curve's schedule is its window's, checked where the window is built
@pytest.mark.parametrize("checkpoints", [(256, 128, 512), (256, 256, 512)])
def test_window_checkpoints_must_ascend(checkpoints):
    with pytest.raises(ConfigurationError, match="strictly ascending"):
        Window(n_max=512, checkpoints=checkpoints)


@pytest.mark.parametrize("checkpoints", [(0, 4), (-8, 4)])
def test_window_checkpoints_below_one_are_rejected(checkpoints):
    with pytest.raises(ConfigurationError, match="checkpoints must be >= 1"):
        Window(n_max=4, checkpoints=checkpoints)


def test_curve_csv_rows():
    curve = ratio_curve(IDENTITY, 1, 1, window=Window(n_max=512, checkpoints=(256, 512)))
    assert CSV_HEADER == "N,k,m,log_ratio"
    assert curve.to_csv_rows() == ["256,1,1,0.0", "512,1,1,0.0"]


def test_oracle_continuity_identity_same_space():
    verdict = oracle_continuity(IDENTITY, WIN)
    assert verdict.outcome is Outcome.HOLDS
    for k, (m, log_c) in verdict.certificate.entries.items():
        assert m == k and log_c == pytest.approx(0.0, abs=1e-12)


def test_oracle_continuity_identity_growing_exponents_fails():
    op = ToeplitzOperator(Symbol(lower=DELTA), Variant.LOWER, LINF_N, LINF_N2)
    verdict = oracle_continuity(op, WIN)
    assert verdict.outcome is Outcome.FAILS_ON_WINDOW


def test_oracle_continuity_decay_agrees_with_route():
    assert oracle_continuity(DECAY_OP, WIN).outcome is Outcome.HOLDS


def test_oracle_compactness_decay_with_unit_witness():
    verdict = oracle_compactness(DECAY_OP, WIN)
    assert verdict.outcome is Outcome.HOLDS
    assert verdict.certificate.m == 1
    assert "nuclearity:holds" in verdict.tags


def test_oracle_compactness_identity_fails():
    verdict = oracle_compactness(IDENTITY, WIN)
    assert verdict.outcome is Outcome.FAILS_ON_WINDOW


def test_oracle_detects_divergent_columns():
    # the membership obstruction: columns themselves blow up with truncation
    op = ToeplitzOperator(Symbol(lower=SymbolSpec.geometric(0.5)),
                          Variant.LOWER, LINF_N, LINF_N)
    assert oracle_continuity(op, WIN).outcome is Outcome.FAILS_ON_WINDOW


def test_oracle_compactness_implies_continuity():
    ops = [
        DECAY_OP,
        ToeplitzOperator(Symbol(lower=DELTA), Variant.LOWER, LINF_N, L1_N),
        ToeplitzOperator(Symbol(upper=DELTA), Variant.UPPER, LINF_N2, LINF_N),
    ]
    for op in ops:
        if oracle_compactness(op, WIN).outcome is Outcome.HOLDS:
            assert oracle_continuity(op, WIN).outcome is Outcome.HOLDS


def test_oracle_inconclusive_on_short_tabulated_window():
    tab = ExponentSequence.table([math.log(i + 1) for i in range(1, 25)])
    space = SpaceDescriptor.power_series_finite(tab)
    op = ToeplitzOperator(Symbol(lower=DELTA), Variant.LOWER, space, space)
    win = Window(n_max=4096, k_max=2, m_max=1)
    verdict = oracle_continuity(op, win)
    assert verdict.outcome is Outcome.INCONCLUSIVE
    assert "finite-window" in verdict.tags


#: tabulated spaces with 3 and 2 gradings, fewer than the window's k_max
#: and m_max, at the window's n_max = 64
GENERAL3 = SpaceDescriptor.general([[math.exp(-n / k) for k in (1, 2, 3)]
                                    for n in range(1, 65)])
GENERAL2 = SpaceDescriptor.general([[math.exp(-n / k) for k in (1, 2)]
                                    for n in range(1, 65)])
GEO = SymbolSpec.geometric(0.5)
INTO_GENERAL = ToeplitzOperator(Symbol(upper=GEO), Variant.UPPER, LINF_N, GENERAL3)
FROM_GENERAL = ToeplitzOperator(Symbol(lower=GEO), Variant.LOWER, GENERAL2, L1_N)


@pytest.mark.parametrize("op", [INTO_GENERAL, FROM_GENERAL])
@pytest.mark.parametrize("prop", [CONTINUITY, COMPACTNESS])
def test_cross_validate_clips_k_and_m_to_tabulated_spaces(op, prop):
    # the oracle once cut only n_max and asked for gradings past the table
    report = cross_validate(op, Window().with_n_max(64), prop)
    assert "finite-window" in report.oracle_verdict.tags
    assert report.agreement is not Agreement.CONFLICT


def test_oracle_compactness_holds_on_a_short_codomain():
    # with k_max cut to the 3 gradings a uniform witness can cover them all
    report = cross_validate(INTO_GENERAL, Window().with_n_max(64), COMPACTNESS)
    assert report.oracle_verdict.outcome is Outcome.HOLDS
    assert report.theorem_report.outcome is Outcome.INCONCLUSIVE
    assert report.agreement is Agreement.THEOREM_INCONCLUSIVE
    assert set(report.oracle_verdict.certificate.log_c) == {1, 2, 3}


def test_cross_validate_agreement_cases():
    report = cross_validate(DECAY_OP, WIN, COMPACTNESS)
    assert report.agreement is Agreement.AGREE
    assert report.theorem_report.outcome is Outcome.HOLDS

    report = cross_validate(IDENTITY, WIN, COMPACTNESS)
    assert report.agreement is Agreement.AGREE
    assert report.theorem_report.outcome is Outcome.FAILS_ON_WINDOW

    report = cross_validate(IDENTITY, WIN, CONTINUITY)
    assert report.agreement is Agreement.AGREE
    assert report.theorem_report.outcome is Outcome.HOLDS


def test_cross_validate_unknown_property():
    with pytest.raises(ConfigurationError):
        cross_validate(IDENTITY, WIN, "boundedness")


def test_cross_validate_oracle_inconclusive_side():
    tab = ExponentSequence.table([math.log(i + 1) for i in range(1, 25)])
    space = SpaceDescriptor.power_series_finite(tab)
    op = ToeplitzOperator(Symbol(lower=DELTA), Variant.LOWER, space, space)
    win = Window(n_max=4096, k_max=2, m_max=1)
    report = cross_validate(op, win, CONTINUITY)
    assert report.agreement in (Agreement.AGREE, Agreement.ORACLE_INCONCLUSIVE,
                                Agreement.THEOREM_INCONCLUSIVE)
    assert report.agreement is not Agreement.CONFLICT


def test_dense_truncation_identity():
    assert np.array_equal(dense_truncation(IDENTITY, 5), np.eye(5))


def test_dense_truncation_superdiagonal():
    op = ToeplitzOperator(Symbol(upper=SymbolSpec.explicit([0.0, 1.0])),
                          Variant.UPPER, L1_N, L1_N)
    expected = np.diag(np.ones(3), k=1)
    assert np.array_equal(dense_truncation(op, 4), expected)


def test_dense_truncation_full_sums_parts():
    rng = np.random.default_rng(7)
    lower = SymbolSpec.explicit(rng.normal(size=6).tolist()).with_head(1.0)
    upper = SymbolSpec.explicit(rng.normal(size=6).tolist()).with_head(2.0)
    full = ToeplitzOperator(Symbol(lower=lower, upper=upper), Variant.FULL,
                            L1_N, L1_N)
    low = ToeplitzOperator(Symbol(lower=lower), Variant.LOWER, L1_N, L1_N)
    up = ToeplitzOperator(Symbol(upper=upper), Variant.UPPER, L1_N, L1_N)
    assert np.array_equal(dense_truncation(full, 12),
                          dense_truncation(low, 12) + dense_truncation(up, 12))


def test_dense_truncation_cap():
    with pytest.raises(WindowError):
        dense_truncation(IDENTITY, 5000)
    with pytest.raises(WindowError):
        dense_truncation(IDENTITY, 0)
