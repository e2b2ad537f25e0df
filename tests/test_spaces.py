"""Spaces: weights, seminorms, series classification, growth conditions."""

import contextlib
import dataclasses
import json
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from koethe import spaces
from koethe.errors import ConfigurationError, InvariantError, WindowError
from koethe.logdomain import LOG_ZERO
from koethe.spaces import (
    ExponentSequence,
    SeriesClass,
    SpaceDescriptor,
    classify_series,
    gp_probe,
    nuclearity_verdict,
    seminorm_sum,
    seminorm_sup,
    stability_constant,
    subadditivity_constant,
    weight,
    weight_array,
    window_subadditivity,
)
from koethe.verdicts import Outcome, Window

ALPHA_N = ExponentSequence.affine(1.0)
ALPHA_N2 = ExponentSequence.power(2.0)
ALPHA_SQRT = ExponentSequence.power(0.5)
ALPHA_LOG = ExponentSequence.logarithmic()

L1_N = SpaceDescriptor.power_series_finite(ALPHA_N)
L1_N2 = SpaceDescriptor.power_series_finite(ALPHA_N2)
L1_LOG = SpaceDescriptor.power_series_finite(ALPHA_LOG)
LINF_N = SpaceDescriptor.power_series_infinite(ALPHA_N)
LINF_N2 = SpaceDescriptor.power_series_infinite(ALPHA_N2)


def space_strategy():
    seq = st.sampled_from([ALPHA_N, ALPHA_N2, ALPHA_SQRT, ALPHA_LOG])
    finite = seq.map(SpaceDescriptor.power_series_finite)
    infinite = seq.map(SpaceDescriptor.power_series_infinite)
    return st.one_of(finite, infinite)


# -- exponent sequences ----------------------------------------------------


def test_exponent_forms():
    assert ExponentSequence.power(0.5).values_array(4)[3] == 2.0
    assert ExponentSequence.logarithmic().values_array(1)[0] == math.log(2)
    assert ExponentSequence.affine(2.0, 1.0).values_array(3)[2] == 7.0
    assert ExponentSequence.table([0.0, 1.0, 5.0]).values_array(3)[2] == 5.0


def test_exponent_validation():
    with pytest.raises(InvariantError):
        ExponentSequence.power(-1.0)
    with pytest.raises(InvariantError):
        ExponentSequence.table([2.0, 1.0])  # decreasing
    with pytest.raises(InvariantError):
        ExponentSequence.table([-1.0])
    with pytest.raises(InvariantError):
        ExponentSequence.affine(-1.0, 0.0)


def test_table_window_error():
    tab = ExponentSequence.table([0.0, 1.0])
    with pytest.raises(WindowError):
        tab.values_array(3)
    with pytest.raises(WindowError):
        tab.values_array(10)


def test_exponent_json_roundtrip():
    for seq in (ALPHA_N, ALPHA_N2, ALPHA_LOG, ExponentSequence.table([1.0, 2.0])):
        assert ExponentSequence.from_json(seq.to_json()) == seq


# -- weights -----------------------------------------------------------------


class CountingTuple(tuple):
    """A tuple that counts the calls of its ``__hash__``."""

    hashes = 0

    def __hash__(self):
        type(self).hashes += 1
        return super().__hash__()


@pytest.mark.parametrize("build", [
    lambda table: SpaceDescriptor.power_series_finite(
        ExponentSequence(form="table", values=table)),
    lambda table: SpaceDescriptor(kind="general_koethe", weights=CountingTuple(
        (v + 1.0, v + 2.0) for v in table)),
], ids=["exponent table", "general weights"])
def test_a_table_is_hashed_once_however_often_it_is_looked_up(build):
    CountingTuple.hashes = 0
    space = build(CountingTuple([0.0, 1.0, 2.0, 3.0]))
    assert CountingTuple.hashes == 1
    for k in (1, 2, 1, 2):
        weight_array(space, k, 4)
        nuclearity_verdict(space, Window(n_max=4, k_max=1, l_slack=1))
    assert CountingTuple.hashes == 1
    # the dataclass hash of the fields
    assert hash(space) == hash((space.kind, space.alpha, space.weights))


def test_an_unpickled_space_hashes_as_one_built_in_its_process():
    # the hash of a str differs between processes: pickled in one process
    # and loaded in another, a record must not carry the first one's hash
    import subprocess
    code = ("import pickle, sys; from koethe.spaces import ExponentSequence as E, "
            "SpaceDescriptor as S; "
            "records = (E.table([1.0, 2.0]), S.general([[1.0, 2.0]] * 4)); "
            "sys.stdout.buffer.write(pickle.dumps(records)) if sys.argv[1] == 'dump' "
            "else print(list(map(hash, pickle.loads(sys.stdin.buffer.read())))"
            " == list(map(hash, records)))")
    env = {**__import__("os").environ, "PYTHONPATH": ":".join(sys.path)}
    dumped = subprocess.run([sys.executable, "-c", code, "dump"], capture_output=True,
                            check=True, env={**env, "PYTHONHASHSEED": "1"}).stdout
    loaded = subprocess.run([sys.executable, "-c", code, "load"], input=dumped,
                            capture_output=True, check=True,
                            env={**env, "PYTHONHASHSEED": "2"})
    assert loaded.stdout.strip() == b"True"


def test_weight_finite_type():
    assert weight(L1_N, 2, 2) == -1.0


def test_weight_infinite_type():
    assert weight(LINF_N, 3, 2) == 6.0


def test_weight_general_table():
    space = SpaceDescriptor.general([[0.5, 0.7], [0.1, 0.2]])
    assert weight(space, 1, 1) == math.log(0.5)
    with pytest.raises(WindowError):
        weight(space, 3, 1)
    with pytest.raises(WindowError):
        weight(space, 1, 3)


def test_general_table_koethe_axioms():
    with pytest.raises(InvariantError):
        SpaceDescriptor.general([[0.0, 0.0]])  # no positive entry in row
    with pytest.raises(InvariantError):
        SpaceDescriptor.general([[0.5, 0.2]])  # decreasing in k
    # zeros are fine while some grading is positive
    space = SpaceDescriptor.general([[0.0, 1.0]])
    assert weight(space, 1, 1) == LOG_ZERO


@pytest.mark.parametrize("build", [
    lambda: ExponentSequence.table([1.0, 3.0, math.nan, 4.0]),
    lambda: ExponentSequence.power(math.nan),
    lambda: ExponentSequence.affine(math.nan),
    lambda: ExponentSequence.affine(1.0, math.nan),
    lambda: SpaceDescriptor.general([[math.nan], [1.0]]),
], ids=["table", "power", "affine-a", "affine-b", "general"])
def test_nan_inputs_are_refused(build):
    # NaN fails every comparison, so each check asks for what must hold
    with pytest.raises(InvariantError):
        build()


@settings(max_examples=60)
@given(space=space_strategy(), n=st.integers(1, 200), k=st.integers(1, 10))
def test_weight_monotone_in_grading(space, n, k):
    assert weight(space, n, k) <= weight(space, n, k + 1)


_RNG = np.random.default_rng(7)
_PREFIX_EXPONENTS = {
    **{f"power-{p}": ExponentSequence.power(p)
       for p in (0.1, 0.5, 1.0, 1.5, 2.0, 3.3, 5.0, 7.7)},
    "log": ALPHA_LOG, "affine": ExponentSequence.affine(0.75, 2.0),
    "table": ExponentSequence.table(np.cumsum(_RNG.uniform(0.0, 3.0, 2000))),
}
#: exponent forms of both types, and a Köthe table with some zero weights
PREFIX_SPACES = {
    **{f"finite-{name}": SpaceDescriptor.power_series_finite(seq)
       for name, seq in _PREFIX_EXPONENTS.items()},
    **{f"infinite-{name}": SpaceDescriptor.power_series_infinite(seq)
       for name, seq in _PREFIX_EXPONENTS.items()},
    "general": SpaceDescriptor.general(np.sort(
        _RNG.uniform(-0.5, 50.0, (600, 4)).clip(0.0, None) + [0, 0, 0, 1], axis=1)),
}


@pytest.mark.parametrize("name", sorted(PREFIX_SPACES))
def test_weight_rows_are_prefix_stable(name):
    # the oracle reads a checkpoint's weights as a prefix of the top
    # checkpoint's row; a platform where an elementwise numpy function
    # depends on an entry's position would move oracle bits
    lengths = [*range(1, 70), 127, 128, 129, 255, 256, 257, 511, 512, 513]
    space = PREFIX_SPACES[name]
    for k in range(1, 5):
        top = weight_array(space, k, 600)
        for n in lengths:
            assert weight_array(space, k, n).tobytes() == top[:n].tobytes(), (k, n)


def test_space_json_roundtrip():
    for space in (L1_N, LINF_N, SpaceDescriptor.general([[0.5, 0.7]])):
        assert SpaceDescriptor.from_json(space.to_json()) == space


# -- seminorms ---------------------------------------------------------------


def test_seminorm_basis_vector():
    x = [1.0]
    assert seminorm_sum(L1_N, x, 3, 16) == weight(L1_N, 1, 3)
    assert seminorm_sup(L1_N, x, 3, 16) == weight(L1_N, 1, 3)


def test_seminorm_all_ones_geometric_series():
    # sum_{n<=64} e^{-n} agrees with the closed form 1/(e-1)
    val = seminorm_sum(L1_N, [1.0] * 64, 1, 64)
    assert val == pytest.approx(math.log(1.0 / (math.e - 1.0)), abs=1e-9)


def test_seminorm_zero_vector():
    assert seminorm_sum(L1_N, [0.0, 0.0], 1, 8) == LOG_ZERO
    assert seminorm_sup(L1_N, [], 1, 8) == LOG_ZERO


def test_seminorm_sup_examples():
    assert seminorm_sup(L1_N, [1.0] * 64, 1, 64) == -1.0
    assert seminorm_sup(LINF_N, [1.0, 2.0], 1, 8) == pytest.approx(
        math.log(2.0) + 2.0)


def test_seminorm_support_outside_truncation():
    with pytest.raises(InvariantError):
        seminorm_sum(L1_N, [1.0, 1.0, 1.0], 1, 2)
    # trailing zeros beyond the truncation are tolerated
    assert seminorm_sum(L1_N, [1.0, 0.0, 0.0], 1, 2) == weight(L1_N, 1, 1)


coefficients = st.lists(
    st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=64
)


@settings(max_examples=100, deadline=None)
@given(x=coefficients, k=st.integers(1, 8))
def test_seminorm_matches_linear_reference(x, k):
    # log-domain correctness on the benign band
    n_max = len(x)
    w = weight_array(L1_N, k, n_max)
    expected = math.fsum(abs(v) * math.exp(w[i]) for i, v in enumerate(x))
    got = seminorm_sum(L1_N, x, k, n_max)
    assert math.exp(got) == pytest.approx(expected, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(x=coefficients, k=st.integers(1, 6), space=space_strategy())
def test_seminorm_grading_monotone_and_sup_bound(x, k, space):
    n_max = len(x)
    assert seminorm_sum(space, x, k, n_max) <= seminorm_sum(space, x, k + 1, n_max)
    assert seminorm_sup(space, x, k, n_max) <= seminorm_sum(space, x, k, n_max)


# -- series classification ---------------------------------------------------


def test_classify_geometric_convergent():
    terms = -np.arange(1, 61, dtype=float)  # e^{-n}
    verdict = classify_series(terms)
    assert verdict.classification is SeriesClass.CONVERGENT
    assert math.exp(verdict.limit_log) == pytest.approx(1 / (math.e - 1), abs=1e-9)


def test_classify_divergent_growth():
    terms = np.arange(1, 129, dtype=float)  # e^{+n}
    assert classify_series(terms).classification is SeriesClass.DIVERGENT


@pytest.mark.parametrize("terms", [[0.0, math.inf, 1.0, 2.0], [0.0, 1.0, 2.0, math.inf]],
                         ids=["inf-early", "inf-last"])
def test_classify_a_series_with_an_infinite_term_as_divergent(terms):
    verdict = classify_series(np.array(terms))
    assert verdict.classification is SeriesClass.DIVERGENT
    assert verdict.partial_sums[-1][1] == math.inf


def test_classify_needs_terms():
    with pytest.raises(ConfigurationError):
        classify_series(np.array([1.0]))


def test_partial_sums_nondecreasing():
    terms = -0.5 * np.arange(1, 200, dtype=float)
    sums = [s for _, s in classify_series(terms).partial_sums]
    assert all(a <= b for a, b in zip(sums, sums[1:]))


# -- nuclearity probes --------------------------------------------------------


def test_gp_probe_requires_l_above_k():
    with pytest.raises(ConfigurationError):
        gp_probe(LINF_N, 2, 2, 64)


def test_gp_probe_infinite_type_geometric():
    verdict = gp_probe(LINF_N, 1, 2, 60)
    assert verdict.classification is SeriesClass.CONVERGENT
    assert math.exp(verdict.limit_log) == pytest.approx(1 / (math.e - 1), abs=1e-9)


def test_gp_probe_log_exponents_diverge():
    verdict = gp_probe(L1_LOG, 1, 2, 4096)
    assert verdict.classification is SeriesClass.DIVERGENT


def test_gp_probe_finite_type_geometric():
    verdict = gp_probe(L1_N, 1, 2, 4096)
    assert verdict.classification is SeriesClass.CONVERGENT
    assert math.exp(verdict.limit_log) == pytest.approx(
        1 / (math.exp(0.5) - 1), rel=1e-9)


@pytest.mark.parametrize("space,expected", [
    (LINF_N, Outcome.HOLDS),
    (L1_N, Outcome.HOLDS),
    (L1_LOG, Outcome.FAILS_ON_WINDOW),
])
def test_nuclearity_verdicts(space, expected):
    assert nuclearity_verdict(space, Window()).outcome is expected


def test_gp_classification_stable_under_doubling():
    for n_max in (512, 1024, 2048):
        assert gp_probe(L1_N, 1, 2, n_max).classification is SeriesClass.CONVERGENT
        assert gp_probe(L1_LOG, 1, 2, n_max).classification is SeriesClass.DIVERGENT


# -- growth conditions --------------------------------------------------------


def test_subadditivity_linear_is_exact():
    report = subadditivity_constant(ALPHA_N, 2000)
    assert report.m == 1
    assert report.max_ratio == pytest.approx(1.0)


def test_subadditivity_sqrt():
    assert subadditivity_constant(ALPHA_SQRT, 10_000).m == 1


@pytest.mark.parametrize("p", [1 / 3, 1 / 4])
def test_subadditivity_roots(p):
    report = subadditivity_constant(ExponentSequence.power(p), 4096)
    assert report.m is not None and report.m <= 2


def test_subadditivity_ratio_overflowing_to_inf_has_no_constant():
    report = subadditivity_constant(ExponentSequence.table([2.2250738585e-313, 1.0, 2.0]), 3)
    assert report.m is None and report.max_ratio == math.inf
    assert report.witness == (1, 2)


def test_subadditivity_squares():
    report = subadditivity_constant(ALPHA_N2, 10_000)
    assert report.m == 2
    assert report.note == "window certificate"


def test_subadditivity_m_max_exceeded():
    # alpha with a huge jump forces a large constant
    tab = ExponentSequence.table([0.0] + [1e-9] * 8 + [100.0])
    report = subadditivity_constant(tab, 10, m_max=4)
    assert report.m is None
    assert report.witness is not None


def test_subadditivity_independent_of_m_max_once_found():
    for m_max in (2, 8, 64):
        assert subadditivity_constant(ALPHA_N2, 512, m_max).m == 2


def test_stability_constants():
    assert stability_constant(ALPHA_N, 4096) == 2.0
    assert stability_constant(ALPHA_N2, 4096) == 4.0
    got = stability_constant(ALPHA_LOG, 10_000)
    assert got == pytest.approx(math.log(3) / math.log(2))
    assert 1.0 < got <= 2.0


@pytest.mark.parametrize("alpha", [ALPHA_N, ALPHA_N2, ALPHA_SQRT, ALPHA_LOG])
def test_subadditive_window_bound_implies_stability_bound(alpha):
    n_max = 2048
    report = subadditivity_constant(alpha, n_max)
    assert report.m is not None
    assert stability_constant(alpha, n_max) <= 2 * report.m


def test_subadditivity_short_table_range_error():
    tab = ExponentSequence.table([0.0, 1.0])
    with pytest.raises(WindowError):
        subadditivity_constant(tab, 100)


# -- per-sequence memo of window facts ------------------------------------------

SMALL = Window(n_max=256, k_max=4, m_max=8)


def _tables():
    steps = st.lists(st.floats(0.0, 4.0), min_size=2, max_size=80)
    return steps.map(lambda d: ExponentSequence.table(np.cumsum(d).tolist()))


def _text(report):
    return json.dumps(report.to_json(), sort_keys=True)


@settings(max_examples=40, deadline=None)
@given(seq=st.one_of(st.sampled_from([ALPHA_N, ALPHA_N2, ALPHA_SQRT, ALPHA_LOG]),
                     st.builds(ExponentSequence.power, st.floats(0.1, 3.0)),
                     st.builds(ExponentSequence.affine, st.floats(0.0, 5.0),
                               st.floats(0.0, 5.0)),
                     _tables()),
       n_max=st.sampled_from([4, 37, 128]), m_max=st.sampled_from([1, 2, 64]))
# a subnormal first exponent overflows the subadditivity ratio to inf
@example(seq=ExponentSequence.table([2.2250738585e-313, 1.0]), n_max=4, m_max=1)
def test_memoised_facts_equal_fresh_ones(seq, n_max, m_max):
    n_max = min(n_max, seq.max_index or n_max)
    win = dataclasses.replace(SMALL.with_n_max(max(n_max, 4)), subadd_m_max=m_max)
    space = SpaceDescriptor.power_series_infinite(seq)
    memo = [subadditivity_constant(seq, n_max, m_max), nuclearity_verdict(space, win)]
    again = [subadditivity_constant(seq, n_max, m_max), nuclearity_verdict(space, win)]
    assert all(a is b for a, b in zip(again, memo))
    spaces._exponent_values.cache_clear()
    fresh = [subadditivity_constant(seq, n_max, m_max), nuclearity_verdict(space, win)]
    assert list(map(_text, fresh)) == list(map(_text, memo))


@pytest.mark.parametrize("space, field, value", [
    (LINF_N, "l_slack", 0),
    (L1_LOG, "series_tail_rel", 0.9),
], ids=["l_slack", "series_tail_rel"])
def test_windows_differing_in_one_field_get_their_own_nuclearity(space, field,
                                                                 value):
    other = dataclasses.replace(SMALL, **{field: value})
    first, second = nuclearity_verdict(space, SMALL), nuclearity_verdict(space, other)
    assert first.window == SMALL and second.window == other
    assert first.outcome is not second.outcome
    assert nuclearity_verdict(space, SMALL) == first


@pytest.fixture
def classify_calls(monkeypatch):
    """Arguments of every classify_series call made through the module."""
    calls = []
    classify = spaces.classify_series

    def counted(*args):
        calls.append(args)
        return classify(*args)

    monkeypatch.setattr(spaces, "classify_series", counted)
    return calls


def test_clearing_the_exponent_cache_recomputes(classify_calls):
    spaces._exponent_values.cache_clear()
    nuclearity_verdict(L1_N2, SMALL)
    computed = len(classify_calls)
    assert computed > 0
    nuclearity_verdict(L1_N2, SMALL)
    assert len(classify_calls) == computed
    spaces._exponent_values.cache_clear()
    nuclearity_verdict(L1_N2, SMALL)
    assert len(classify_calls) == 2 * computed


def test_general_spaces_are_evaluated_on_every_call(classify_calls):
    table = SpaceDescriptor.general([[math.exp(-n / k) for k in range(1, 9)]
                                     for n in range(1, 65)])
    nuclearity_verdict(table, SMALL)
    computed = len(classify_calls)
    assert computed > 0
    nuclearity_verdict(table, SMALL)
    assert len(classify_calls) == 2 * computed


def test_mutating_a_returned_report_leaves_later_calls_unchanged():
    verdict = nuclearity_verdict(LINF_N, SMALL)
    report = window_subadditivity(L1_N2, SMALL)
    before = _text(verdict), _text(report)
    for mutate in (lambda: verdict.certificate.entries.clear(),
                   lambda: verdict.certificate.entries.update({1: (99, 0.0)}),
                   lambda: setattr(report, "m", 99)):
        with contextlib.suppress(AttributeError, TypeError):
            mutate()
    assert (_text(nuclearity_verdict(LINF_N, SMALL)),
            _text(window_subadditivity(L1_N2, SMALL))) == before


def test_concurrent_first_calls_agree():
    expected = [_text(nuclearity_verdict(LINF_N2, SMALL)),
                _text(window_subadditivity(L1_N2, SMALL))]
    spaces._exponent_values.cache_clear()
    results, start = [], threading.Barrier(8)

    def worker():
        start.wait(timeout=10)
        results.append([_text(nuclearity_verdict(LINF_N2, SMALL)),
                        _text(window_subadditivity(L1_N2, SMALL))])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * 8
