"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line."""

import contextlib
import json
import math
import time

import numpy as np
import pytest

from koethe.cli import main
from koethe.criteria import (
    COMPACTNESS,
    CONTINUITY,
    FamilySpec,
    OperatorTemplate,
    SMap,
    compactness_verdict,
    tameness_check,
)
from koethe.errors import NotWellDefinedError
from koethe.operators import (
    NormKind,
    Symbol,
    SymbolSpec,
    ToeplitzOperator,
    Variant,
    apply_dense,
    apply_fast,
    column_norm_profile,
)
from koethe.oracle import (
    Agreement,
    cross_validate,
    dense_truncation,
    oracle_compactness,
    ratio_curve,
)
from koethe.criteria import continuity_verdict
from koethe.spaces import (
    ExponentSequence,
    SeriesClass,
    SpaceDescriptor,
    _exponent_values,
    gp_probe,
    nuclearity_verdict,
    subadditivity_constant,
    weight_array,
)
from koethe.verdicts import Outcome, Window

ALPHA_N = ExponentSequence.affine(1.0)
ALPHA_N2 = ExponentSequence.power(2.0)
ALPHA_SQRT = ExponentSequence.power(0.5)

L1_N = SpaceDescriptor.power_series_finite(ALPHA_N)
L1_N2 = SpaceDescriptor.power_series_finite(ALPHA_N2)
LINF_N = SpaceDescriptor.power_series_infinite(ALPHA_N)
LINF_N2 = SpaceDescriptor.power_series_infinite(ALPHA_N2)

WIN = Window()


def _clear_caches():
    column_norm_profile.cache_clear()
    weight_array.cache_clear()
    _exponent_values.cache_clear()


@contextlib.contextmanager
def criterion(cid: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {cid}: FAIL")
        raise
    print(f"ACCEPTANCE {cid}: PASS")


# -- 1: positive compactness into the finite type --------------------------------


def test_criterion_1_compactness_finite_type():
    with criterion("1 finite-type compactness"):
        _clear_caches()
        start = time.monotonic()
        op = ToeplitzOperator(Symbol(lower=SymbolSpec.geometric(math.exp(-1))),
                              Variant.LOWER, L1_N, L1_N2)
        report = compactness_verdict(op, WIN)
        assert report.outcome is Outcome.HOLDS
        assert report.verdict.certificate.m == 1
        oracle = oracle_compactness(op, WIN)
        assert oracle.outcome is Outcome.HOLDS
        cross = cross_validate(op, WIN, COMPACTNESS)
        assert cross.agreement is Agreement.AGREE
        for k in range(1, WIN.k_max + 1):
            points = dict(ratio_curve(op, k, 1, window=WIN).points)
            assert points[4096] - points[1024] <= 1e-6
        elapsed = time.monotonic() - start
        assert elapsed <= 5.0, f"took {elapsed:.2f}s"


# -- 2: positive compactness into the infinite type ------------------------------


def test_criterion_2_compactness_infinite_type():
    with criterion("2 infinite-type compactness"):
        _clear_caches()
        start = time.monotonic()
        symbol = Symbol(lower=SymbolSpec.exp_of_exponent(-1.0, ALPHA_N2),
                        upper=SymbolSpec.geometric(math.e))
        op = ToeplitzOperator(symbol, Variant.FULL, LINF_N2, LINF_N)
        report = compactness_verdict(op, WIN)
        assert report.outcome is Outcome.HOLDS
        assert report.verdict.certificate.m == 1
        oracle = oracle_compactness(op, WIN)
        assert oracle.outcome is Outcome.HOLDS
        assert oracle.certificate.m == 1
        assert cross_validate(op, WIN, COMPACTNESS).agreement is Agreement.AGREE
        for k in range(1, WIN.k_max + 1):
            points = dict(ratio_curve(op, k, 1, window=WIN).points)
            assert points[4096] - points[1024] <= 1e-6
        elapsed = time.monotonic() - start
        assert elapsed <= 10.0, f"took {elapsed:.2f}s"


# -- 3: the ill-defined direction --------------------------------------------------


def test_criterion_3_full_finite_to_infinite_ill_defined(tmp_path):
    with criterion("3 ill-defined direction"):
        symbol = Symbol(lower=SymbolSpec.delta(), upper=SymbolSpec.delta())
        op = ToeplitzOperator(symbol, Variant.FULL, L1_N, LINF_N)
        with pytest.raises(NotWellDefinedError, match="not well defined"):
            continuity_verdict(op, WIN)

        config = {
            "window": {"n_max": 256, "k_max": 3, "m_max": 6},
            "spaces": {
                "dom": L1_N.to_json(),
                "cod": LINF_N.to_json(),
            },
            "symbols": {"s": symbol.to_json()},
            "operators": {"F": {"variant": "full", "domain": "dom",
                                "codomain": "cod", "symbol": "s"}},
            "tasks": [{"command": "certify-continuity", "operator": "F"}],
            "output": {"dir": str(tmp_path / "out")},
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["run", "--config", str(cfg)]) >= 4

        # the raw oracle on the lower part alone keeps growing for every m
        lower = ToeplitzOperator(Symbol(lower=SymbolSpec.delta()),
                                 Variant.LOWER, L1_N, LINF_N)
        last = Window(n_max=2048, checkpoints=(1024, 2048))
        for m in range(1, 49):
            pts = dict(ratio_curve(lower, 1, m, window=last).points)
            assert pts[2048] - pts[1024] >= 1.0


# -- 4: fast apply equivalence and speed --------------------------------------------


def test_criterion_4_fast_apply():
    with criterion("4 fast apply"):
        rng = np.random.default_rng(2024)
        n = 1024
        for _ in range(100):
            r1 = rng.uniform(-0.9, 0.9)
            r2 = rng.uniform(-0.9, 0.9)
            op = ToeplitzOperator(
                Symbol(lower=SymbolSpec.geometric(r1),
                       upper=SymbolSpec.geometric(r2)),
                Variant.FULL, L1_N, L1_N,
            )
            x = rng.uniform(-1.0, 1.0, n)
            dense = apply_dense(op, x)
            fast = apply_fast(op, x)
            scale = max(np.max(np.abs(dense)), 1e-30)
            assert np.max(np.abs(dense - fast)) / scale <= 1e-10

        op = ToeplitzOperator(
            Symbol(lower=SymbolSpec.geometric(0.5),
                   upper=SymbolSpec.geometric(-0.25)),
            Variant.FULL, L1_N, L1_N,
        )
        n_small, n_big = 2048, 65536
        x_small = rng.uniform(-1, 1, n_small)
        x_big = rng.uniform(-1, 1, n_big)
        apply_dense(op, x_small)  # warm
        t_dense = min(_timed(apply_dense, op, x_small) for _ in range(3))
        apply_fast(op, x_big)  # warm
        t_fast = min(_timed(apply_fast, op, x_big) for _ in range(3))
        extrapolated = t_dense * (n_big / n_small) ** 2
        assert t_fast * 20 <= extrapolated, (
            f"fast {t_fast:.4f}s vs dense-extrapolated {extrapolated:.4f}s"
        )


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


# -- 5: decomposition identity --------------------------------------------------------


def test_criterion_5_decomposition_identity():
    with criterion("5 decomposition identity"):
        rng = np.random.default_rng(55)
        for trial in range(50):
            if trial % 2:
                lower = SymbolSpec.explicit(rng.normal(size=24).tolist())
                upper = SymbolSpec.explicit(rng.normal(size=24).tolist())
                lower = lower.with_head(float(rng.uniform(0.5, 2.0)))
                upper = upper.with_head(float(rng.uniform(0.5, 2.0)))
            else:
                lower = SymbolSpec.geometric(float(rng.uniform(0.1, 0.9)))
                upper = SymbolSpec.geometric(float(rng.uniform(-0.9, -0.1)))
            full = ToeplitzOperator(Symbol(lower=lower, upper=upper),
                                    Variant.FULL, L1_N, L1_N)
            low = ToeplitzOperator(Symbol(lower=lower), Variant.LOWER,
                                   L1_N, L1_N)
            up = ToeplitzOperator(Symbol(upper=upper), Variant.UPPER,
                                  L1_N, L1_N)
            total = dense_truncation(low, 256) + dense_truncation(up, 256)
            assert np.array_equal(dense_truncation(full, 256), total)


# -- 6: subadditive growth constants ----------------------------------------------------


def _brute_minimal_subadd(alpha: ExponentSequence, n_max: int) -> int | None:
    """Independent oracle: scan M upward against per-target minima."""
    vals = alpha.values_array(n_max)
    min_split = np.full(n_max, np.inf)  # index s-1: min over t of a_{s-t}+a_t
    for s in range(2, n_max + 1):
        t = vals[: s - 1]
        min_split[s - 1] = np.min(t + t[::-1])
    targets = vals[1:]
    splits = min_split[1:]
    for m in range(1, 65):
        if np.all(targets <= m * splits):
            return m
    return None


def test_criterion_6_subadditivity_suite():
    with criterion("6 subadditive growth constants"):
        assert subadditivity_constant(ALPHA_N, 10_000).m == 1
        assert subadditivity_constant(ALPHA_SQRT, 10_000).m == 1
        for p in (1 / 3, 1 / 4):
            report = subadditivity_constant(ExponentSequence.power(p), 4096)
            assert report.m is not None and report.m <= 2
        checker = subadditivity_constant(ALPHA_N2, 10_000)
        oracle = _brute_minimal_subadd(ALPHA_N2, 10_000)
        assert checker.m == oracle == 2


# -- 7: nuclearity probes -----------------------------------------------------------------


def test_criterion_7_nuclearity_probes():
    with criterion("7 nuclearity probes"):
        probe = gp_probe(LINF_N, 1, 2, 60)
        assert probe.classification is SeriesClass.CONVERGENT
        assert math.exp(probe.limit_log) == pytest.approx(
            1.0 / (math.e - 1.0), abs=1e-9)
        assert nuclearity_verdict(LINF_N, WIN).outcome is Outcome.HOLDS

        log_space = SpaceDescriptor.power_series_finite(
            ExponentSequence.logarithmic())
        verdict = nuclearity_verdict(log_space, WIN)
        assert verdict.outcome is Outcome.FAILS_ON_WINDOW
        assert verdict.witness is not None
        assert "diverge" in verdict.reason


# -- 8: family tameness ---------------------------------------------------------------------


def test_criterion_8_family_tameness():
    with criterion("8 family tameness"):
        family = FamilySpec(count=50, seed=7, r_min=0.05, r_max=0.9)
        template = OperatorTemplate(Variant.LOWER, LINF_N, L1_N)
        report = tameness_check(family, SMap.identity(), template, WIN)
        assert report.outcome is Outcome.HOLDS
        assert len(report.samples) == 50
        for sample in report.samples:
            assert sample.k0 is not None
            op = template.build(sample.spec)
            for k in range(sample.k0, WIN.k_max + 1):
                profile = column_norm_profile(op, k, WIN.n_max, NormKind.SUM)
                bound = sample.log_c + weight_array(LINF_N, k, WIN.n_max)
                violation = float(np.max(profile - bound))
                assert violation <= 1e-9


# -- 9 and 10: the cross-validation grid ------------------------------------------------------

GRID_WINDOW = Window().with_n_max(1024)


@pytest.fixture(scope="module")
def grid_results():
    _clear_caches()
    exponents = {"n": ALPHA_N, "n2": ALPHA_N2, "sqrt": ALPHA_SQRT}
    spaces = {}
    for name, alpha in exponents.items():
        spaces[f"finite({name})"] = SpaceDescriptor.power_series_finite(alpha)
        spaces[f"infinite({name})"] = SpaceDescriptor.power_series_infinite(alpha)
    symbols = {"delta": SymbolSpec.delta(), "geometric": SymbolSpec.geometric(0.5)}

    start = time.monotonic()
    rows = []
    for variant in (Variant.LOWER, Variant.UPPER):
        for dom_name, dom in spaces.items():
            for cod_name, cod in spaces.items():
                for sym_name, spec in symbols.items():
                    sym = (Symbol(lower=spec) if variant is Variant.LOWER
                           else Symbol(upper=spec))
                    op = ToeplitzOperator(sym, variant, dom, cod)
                    case = f"{variant.value} {sym_name}: {dom_name}->{cod_name}"
                    for prop in (CONTINUITY, COMPACTNESS):
                        report = cross_validate(op, GRID_WINDOW, prop)
                        rows.append((case, prop, report))
    elapsed = time.monotonic() - start
    return rows, elapsed


def test_criterion_9_grid_has_no_conflicts(grid_results):
    with criterion("9 cross-validation grid"):
        rows, elapsed = grid_results
        assert len(rows) == 2 * 6 * 6 * 2 * 2
        conflicts = [(case, prop) for case, prop, rep in rows
                     if rep.agreement is Agreement.CONFLICT]
        assert conflicts == []
        assert elapsed <= 120.0, f"grid took {elapsed:.1f}s"


def test_criterion_10_compactness_implies_continuity(grid_results):
    with criterion("10 compactness implies continuity"):
        rows, _ = grid_results
        by_case = {}
        for case, prop, rep in rows:
            by_case.setdefault(case, {})[prop] = rep
        assert len(by_case) == 144
        for case, pair in by_case.items():
            comp, cont = pair[COMPACTNESS], pair[CONTINUITY]
            if comp.theorem_report.outcome is Outcome.HOLDS:
                assert cont.theorem_report.outcome is Outcome.HOLDS, case
            if comp.oracle_verdict.outcome is Outcome.HOLDS:
                assert cont.oracle_verdict.outcome is Outcome.HOLDS, case
