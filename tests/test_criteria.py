"""Certificate search, theorem routing, tameness."""

import dataclasses
import math

import numpy as np
import pytest

from koethe.criteria import (
    COMPACTNESS,
    CONTINUITY,
    FamilySpec,
    NStart,
    OperatorTemplate,
    Shape,
    SMap,
    certify,
    compactness_verdict,
    continuity_verdict,
    replay_certificate,
    tame_condition_certify,
    tameness_check,
    weight_domination,
)
from koethe.errors import (
    ConfigurationError,
    NotWellDefinedError,
    UnsupportedCombinationError,
)
from koethe.operators import Symbol, SymbolSpec, ToeplitzOperator, Variant
from koethe.spaces import ExponentSequence, SpaceDescriptor, weight_array
from koethe.verdicts import Outcome, TameCertificate, Window

ALPHA_N = ExponentSequence.affine(1.0)
ALPHA_N2 = ExponentSequence.power(2.0)
ALPHA_SQRT = ExponentSequence.power(0.5)

L1_N = SpaceDescriptor.power_series_finite(ALPHA_N)
L1_N2 = SpaceDescriptor.power_series_finite(ALPHA_N2)
L1_SQRT = SpaceDescriptor.power_series_finite(ALPHA_SQRT)
LINF_N = SpaceDescriptor.power_series_infinite(ALPHA_N)
LINF_N2 = SpaceDescriptor.power_series_infinite(ALPHA_N2)
GENERAL = SpaceDescriptor.general([[0.5, 0.7]] * 64)

WIN = Window()
DELTA = SymbolSpec.delta()
EXP_DECAY = SymbolSpec.geometric(math.exp(-1.0))


def brute_sup(lhs_space, rhs_space, k, m, n_max, n0=1):
    lhs = weight_array(lhs_space, k, n_max)
    rhs = weight_array(rhs_space, m, n_max)
    return float(np.max(lhs[n0 - 1 :] - rhs[n0 - 1 :]))


# -- certify -----------------------------------------------------------------


def test_certify_compactness_type_squares_over_linear():
    # finite-type weights e^{-n^2/k} dominated by e^{-n/m} at m=1
    cond = weight_domination(L1_N, L1_N2, Shape.EXISTS_M_FORALL_K)
    verdict = certify(cond, WIN)
    assert verdict.outcome is Outcome.HOLDS
    cert = verdict.certificate
    assert cert.m == 1
    for k in range(1, WIN.k_max + 1):
        assert cert.log_c[k] == pytest.approx(
            brute_sup(L1_N2, L1_N, k, 1, WIN.n_max), abs=1e-12)
    # integer-argument maximum of n - n^2/k
    assert cert.log_c[4] == pytest.approx(1.0)
    assert cert.log_c[12] == pytest.approx(3.0)
    assert cert.log_c[3] == pytest.approx((9 - 1) / 12)


def test_certify_exponential_domination_with_unit_constant():
    # e^{k n} <= e^{m n^2} for n >= k already at m = 1 with C = 1
    cond = weight_domination(LINF_N2, LINF_N, Shape.EXISTS_M_FORALL_K, NStart.K)
    verdict = certify(cond, WIN)
    assert verdict.outcome is Outcome.HOLDS
    assert verdict.certificate.m == 1
    assert all(c == pytest.approx(0.0, abs=1e-12)
               for c in verdict.certificate.log_c.values())


def test_certify_reversed_exponents_fails_for_every_m():
    cond = weight_domination(LINF_N, LINF_N2, Shape.FORALL_K_EXISTS_M, NStart.K)
    verdict = certify(cond, WIN)
    assert verdict.outcome is Outcome.FAILS_ON_WINDOW
    assert verdict.witness.best_m == WIN.m_max
    assert verdict.witness.growth_log >= WIN.growth_tol


def test_certify_identity_weights_minimal_witness():
    # same space both sides: each grading needs exactly itself
    cond = weight_domination(LINF_N, LINF_N, Shape.FORALL_K_EXISTS_M)
    verdict = certify(cond, WIN)
    assert verdict.outcome is Outcome.HOLDS
    for k, (m, log_c) in verdict.certificate.entries.items():
        assert m == k
        assert log_c == pytest.approx(0.0, abs=1e-12)


def test_certify_identity_weights_compactness_type_fails():
    cond = weight_domination(L1_N, L1_N, Shape.EXISTS_M_FORALL_K)
    verdict = certify(cond, WIN)
    assert verdict.outcome is Outcome.FAILS_ON_WINDOW


def test_certify_fails_persist_when_window_doubles():
    cond = weight_domination(LINF_N, LINF_N2, Shape.FORALL_K_EXISTS_M, NStart.K)
    small = Window(n_max=1024, k_max=4, m_max=12)
    big = small.with_n_max(2048)
    assert certify(cond, small).outcome is Outcome.FAILS_ON_WINDOW
    assert certify(cond, big).outcome is Outcome.FAILS_ON_WINDOW


@pytest.mark.parametrize("shape", [Shape.FORALL_K_EXISTS_M,
                                   Shape.EXISTS_M_FORALL_K])
def test_certificate_replay_never_violates(shape):
    for dom, cod, n_start in [
        (L1_N, L1_N2, NStart.ONE),
        (LINF_N2, LINF_N, NStart.K),
        (LINF_N, L1_N, NStart.ONE),
        (L1_SQRT, L1_N2, NStart.ONE),
    ]:
        cond = weight_domination(dom, cod, shape, n_start)
        verdict = certify(cond, WIN)
        if verdict.outcome is Outcome.HOLDS:
            assert replay_certificate(cond, verdict, WIN) <= 1e-9


def test_fixed_map_certificate_replays_against_raw_weights():
    cond = weight_domination(L1_N, L1_N, Shape.FIXED_MAP, s_map=SMap.identity())
    win = Window().with_n_max(256)
    verdict = certify(cond, win)
    cert = verdict.certificate
    assert isinstance(cert, TameCertificate)
    assert replay_certificate(cond, verdict, win) == 0.0
    lowered = {**cert.log_c, 3: cert.log_c[3] - 0.5}
    forged = dataclasses.replace(
        verdict, certificate=dataclasses.replace(cert, log_c=lowered))
    assert replay_certificate(cond, forged, win) == 0.5


def test_certify_fixed_map_needs_map():
    with pytest.raises(ConfigurationError):
        weight_domination(L1_N, L1_N2, Shape.FIXED_MAP)


def test_certify_fixed_map_exceeding_witness_window():
    cond = weight_domination(L1_N, L1_N2, Shape.FIXED_MAP,
                             s_map=SMap.linear(100))
    with pytest.raises(ConfigurationError):
        certify(cond, WIN)


# -- index maps ----------------------------------------------------------------


def test_smap_forms():
    assert SMap.identity()(7) == 7
    assert SMap.linear(2)(3) == 6
    assert SMap.table([1, 1, 4])(3) == 4
    with pytest.raises(ConfigurationError):
        SMap.table([3, 2])
    with pytest.raises(ConfigurationError):
        SMap.table([1, 2])(5)
    for smap in (SMap.identity(), SMap.linear(2), SMap.table([1, 2, 2])):
        assert SMap.from_json(smap.to_json()) == smap


# -- tame conditions -------------------------------------------------------------


def test_tame_condition_finite_codomain_unit_constant():
    report = tame_condition_certify(SMap.identity(), L1_N, L1_N2,
                                    Variant.LOWER, WIN)
    assert report.verdict.outcome is Outcome.HOLDS
    assert report.implied.factor == "S"
    assert max(report.verdict.certificate.log_c.values()) == pytest.approx(0.0)
    assert report.verdict.certificate.k0 == 1


def test_tame_condition_same_infinite_weights():
    report = tame_condition_certify(SMap.identity(), LINF_N, LINF_N,
                                    Variant.UPPER, WIN)
    assert report.verdict.outcome is Outcome.HOLDS
    assert report.implied.factor == "2S"
    assert max(report.verdict.certificate.log_c.values()) == pytest.approx(0.0)


def test_tame_condition_same_finite_weights():
    report = tame_condition_certify(SMap.identity(), L1_N, L1_N,
                                    Variant.UPPER, WIN)
    assert report.verdict.outcome is Outcome.HOLDS
    assert report.implied.factor == "M*S"
    assert report.implied.multiplier == 1
    assert report.subadditivity is not None


def test_tame_condition_infinite_codomain_reports_multiplier():
    report = tame_condition_certify(SMap.identity(), LINF_N2, LINF_N,
                                    Variant.LOWER, WIN)
    assert report.verdict.outcome is Outcome.HOLDS
    assert report.implied.factor == "M*S"
    assert report.implied.multiplier == 1


def test_tame_condition_rejects_full_direction():
    with pytest.raises(ConfigurationError):
        tame_condition_certify(SMap.identity(), L1_N, L1_N, Variant.FULL, WIN)


# -- operator verdicts ------------------------------------------------------------


def test_lower_exponential_decay_into_squares():
    op = ToeplitzOperator(Symbol(lower=EXP_DECAY), Variant.LOWER, L1_N, L1_N2)
    cont = continuity_verdict(op, WIN)
    assert cont.outcome is Outcome.HOLDS
    assert cont.route_id == "lower_to_finite"
    comp = compactness_verdict(op, WIN)
    assert comp.outcome is Outcome.HOLDS
    assert comp.verdict.certificate.m == 1
    assert comp.membership.outcome is Outcome.HOLDS
    assert "nuclearity:codomain" in comp.hypotheses


def test_upper_identity_on_infinite_type():
    op = ToeplitzOperator(Symbol(upper=DELTA), Variant.UPPER, LINF_N, LINF_N)
    report = continuity_verdict(op, WIN)
    assert report.outcome is Outcome.HOLDS
    assert report.route_id == "upper_from_infinite"
    for k, (m, log_c) in report.condition.certificate.entries.items():
        assert m == k and log_c == pytest.approx(0.0, abs=1e-12)


def test_lower_identity_not_compact_on_same_space():
    op = ToeplitzOperator(Symbol(lower=DELTA), Variant.LOWER, L1_N, L1_N)
    assert continuity_verdict(op, WIN).outcome is Outcome.HOLDS
    comp = compactness_verdict(op, WIN)
    assert comp.outcome is Outcome.FAILS_ON_WINDOW


def test_full_finite_to_infinite_not_well_defined():
    op = ToeplitzOperator(Symbol(lower=DELTA, upper=DELTA), Variant.FULL,
                          L1_N, LINF_N)
    with pytest.raises(NotWellDefinedError):
        continuity_verdict(op, WIN)
    with pytest.raises(NotWellDefinedError):
        compactness_verdict(op, WIN)


def test_unsupported_combinations_are_explicit():
    lower_general = ToeplitzOperator(Symbol(lower=DELTA), Variant.LOWER,
                                     L1_N, GENERAL)
    with pytest.raises(UnsupportedCombinationError):
        continuity_verdict(lower_general, WIN)
    upper_general = ToeplitzOperator(Symbol(upper=DELTA), Variant.UPPER,
                                     GENERAL, L1_N)
    with pytest.raises(UnsupportedCombinationError):
        compactness_verdict(upper_general, WIN)
    full_general = ToeplitzOperator(Symbol(lower=DELTA, upper=DELTA),
                                    Variant.FULL, GENERAL, L1_N)
    with pytest.raises(UnsupportedCombinationError):
        continuity_verdict(full_general, WIN)


def test_routing_totality_over_power_series_kinds():
    spaces = {"finite": L1_N, "infinite": LINF_N, "general": GENERAL}
    sym = Symbol(lower=DELTA, upper=DELTA)
    for variant in Variant:
        for dn, dom in spaces.items():
            for cn, cod in spaces.items():
                op = ToeplitzOperator(sym, variant, dom, cod)
                for check in (continuity_verdict, compactness_verdict):
                    try:
                        report = check(op, Window(n_max=256, k_max=3, m_max=6))
                        assert report.outcome in set(Outcome)
                    except (NotWellDefinedError, UnsupportedCombinationError):
                        pass  # an explicit refusal is a covered outcome


def test_full_variant_is_conjunction_of_parts():
    sym = Symbol(lower=EXP_DECAY, upper=SymbolSpec.geometric(0.5))
    op = ToeplitzOperator(sym, Variant.FULL, L1_N, L1_N2)
    report = continuity_verdict(op, WIN)
    assert set(report.parts) == {"lower", "upper"}
    expected = min(
        (report.parts["lower"].outcome, report.parts["upper"].outcome),
        key=(Outcome.FAILS_ON_WINDOW, Outcome.INCONCLUSIVE, Outcome.HOLDS).index,
    )
    assert report.outcome is expected
    assert report.route_id == "full:finite->finite"


def test_full_infinite_to_finite_membership_only():
    sym = Symbol(lower=EXP_DECAY, upper=SymbolSpec.geometric(0.5))
    op = ToeplitzOperator(sym, Variant.FULL, LINF_N, L1_N)
    cont = continuity_verdict(op, WIN)
    comp = compactness_verdict(op, WIN)
    assert cont.outcome is Outcome.HOLDS
    assert comp.outcome is Outcome.HOLDS
    assert comp.verdict.certificate.m == 1


def test_compactness_implies_continuity_spot_checks():
    cases = [
        ToeplitzOperator(Symbol(lower=EXP_DECAY), Variant.LOWER, L1_N, L1_N2),
        ToeplitzOperator(Symbol(upper=DELTA), Variant.UPPER, LINF_N2, LINF_N),
        ToeplitzOperator(Symbol(lower=DELTA), Variant.LOWER, LINF_N, L1_N),
    ]
    for op in cases:
        if compactness_verdict(op, WIN).outcome is Outcome.HOLDS:
            assert continuity_verdict(op, WIN).outcome is Outcome.HOLDS


def test_condition_scaling_invariance():
    # verdicts depend on the symbol only through membership; conditions are
    # raw-weight statements, so scaling the symbol leaves outcomes alone
    small = Symbol(lower=SymbolSpec.explicit([0.5**j for j in range(64)]))
    big = Symbol(lower=SymbolSpec.explicit([1e8 * 0.5**j for j in range(64)]))
    win = Window(n_max=512, k_max=4, m_max=8)
    for sym in (small, big):
        op = ToeplitzOperator(sym, Variant.LOWER, L1_N, L1_N2)
        assert compactness_verdict(op, win).outcome is Outcome.HOLDS


# -- tameness ----------------------------------------------------------------------


def test_tameness_single_identity_sample():
    family = FamilySpec(count=1, seed=5, r_min=0.0, r_max=0.0)
    template = OperatorTemplate(Variant.LOWER, L1_N, L1_N)
    win = Window(n_max=1024, k_max=6, m_max=12)
    report = tameness_check(family, SMap.identity(), template, win)
    assert report.outcome is Outcome.HOLDS
    sample = report.samples[0]
    assert sample.k0 == 1
    assert sample.log_c == pytest.approx(0.0, abs=1e-9)


def test_tameness_family_into_larger_exponents():
    family = FamilySpec(count=8, seed=42, r_min=0.05, r_max=0.9)
    template = OperatorTemplate(Variant.LOWER, L1_N, L1_N2)
    win = Window(n_max=1024, k_max=6, m_max=12)
    report = tameness_check(family, SMap.identity(), template, win)
    assert report.outcome is Outcome.HOLDS
    assert len(report.samples) == 8
    assert all(s.k0 is not None for s in report.samples)


def test_tameness_rejects_oversized_map():
    family = FamilySpec(count=1, seed=1)
    template = OperatorTemplate(Variant.LOWER, L1_N, L1_N2)
    with pytest.raises(ConfigurationError):
        tameness_check(family, SMap.linear(1000), template, WIN)


GENERAL3 = SpaceDescriptor.general([[math.exp(-n / k) for k in (1, 2, 3)]
                                    for n in range(1, 65)])
GENERAL2 = SpaceDescriptor.general([[math.exp(-n / k) for k in (1, 2)]
                                    for n in range(1, 65)])


def test_tameness_clips_to_a_short_codomain():
    template = OperatorTemplate(Variant.UPPER, LINF_N, GENERAL3)
    report = tameness_check(FamilySpec(count=3, seed=1), SMap.identity(), template,
                            Window().with_n_max(64))
    assert len(report.samples) == 3
    assert all(s.k0 is None or s.k0 <= 3 for s in report.samples)


def test_tameness_checks_the_map_against_a_short_domain():
    # S(3) = 3 overruns the 2 gradings of the domain: the certifier's error,
    # raised before any weight past the table is read
    template = OperatorTemplate(Variant.LOWER, GENERAL2, L1_N)
    with pytest.raises(ConfigurationError,
                       match=r"at k=3: S\(k\)=3 > m_max=2"):
        tameness_check(FamilySpec(count=3, seed=1), SMap.identity(), template,
                       Window().with_n_max(64))
    with pytest.raises(ConfigurationError,
                       match=r"at k=3: S\(k\)=3 > m_max=2"):
        certify(weight_domination(GENERAL2, L1_N, Shape.FIXED_MAP,
                                  s_map=SMap.identity()), Window().with_n_max(64))


def test_family_spec_validation():
    with pytest.raises(ConfigurationError):
        FamilySpec(count=0)
    with pytest.raises(ConfigurationError):
        FamilySpec(r_min=0.9, r_max=0.1)
    with pytest.raises(ConfigurationError):
        FamilySpec(sampler="cauchy")
    spec = FamilySpec(count=3, seed=9)
    assert FamilySpec.from_json(spec.to_json()) == spec
