"""Log-domain arithmetic invariants."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koethe.logdomain import (
    LOG_ZERO,
    linear_or_none,
    log_add,
    log_from_linear,
    log_max,
    log_ratio,
    log_sub,
    log_sum,
)

finite_logs = st.floats(min_value=-50.0, max_value=50.0)


def test_log_from_linear_zero():
    assert log_from_linear(0.0) == LOG_ZERO
    assert log_from_linear(-2.0) == math.log(2.0)


def test_log_add_identity():
    assert log_add(LOG_ZERO, 3.5) == 3.5
    assert log_add(3.5, LOG_ZERO) == 3.5
    assert log_add(LOG_ZERO, LOG_ZERO) == LOG_ZERO


@given(a=finite_logs, b=finite_logs)
def test_log_add_matches_linear(a, b):
    assert log_add(a, b) == pytest.approx(math.log(math.exp(a) + math.exp(b)),
                                          rel=1e-12)


@given(a=finite_logs, b=finite_logs)
def test_log_add_commutes(a, b):
    assert log_add(a, b) == log_add(b, a)


@given(a=finite_logs, b=finite_logs, c=finite_logs)
def test_log_add_monotone(a, b, c):
    lo, hi = sorted((b, c))
    assert log_add(a, lo) <= log_add(a, hi)


def test_log_sub_edge_cases():
    assert log_sub(2.0, 2.0) == LOG_ZERO
    assert log_sub(2.0, LOG_ZERO) == 2.0
    with pytest.raises(ValueError):
        log_sub(1.0, 2.0)


@settings(max_examples=200)
@given(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=64))
def test_log_sum_matches_fsum(values):
    # benign magnitudes, short windows: plain summation is a usable reference
    result = log_sum([math.log(v) for v in values])
    assert result == pytest.approx(math.log(math.fsum(values)), rel=1e-12)


def test_log_sum_deterministic_order():
    terms = [0.3, -1.2, 4.0, 2.2, -0.5]
    assert log_sum(terms) == log_sum(list(terms))
    assert log_sum([]) == LOG_ZERO


def test_log_sum_handles_log_zero_padding():
    terms = [LOG_ZERO, 1.0, LOG_ZERO, 2.0]
    assert log_sum(terms) == pytest.approx(log_add(1.0, 2.0))


def test_log_max():
    assert log_max([LOG_ZERO, -1.0, 3.0]) == 3.0
    assert log_max([]) == LOG_ZERO


def test_linear_materialization_cutoff():
    assert linear_or_none(0.0) == 1.0
    assert linear_or_none(LOG_ZERO) == 0.0
    assert linear_or_none(800.0) is None
    assert linear_or_none(-800.0) is None
    assert linear_or_none(5.0) == pytest.approx(math.exp(5.0))


def test_log_ratio_of_a_zero_lhs_is_zero():
    # a zero magnitude meets every bound, a zero and an infinite one too
    rhs = np.array([3.5, -2.0, LOG_ZERO, math.inf])
    assert np.isneginf(log_ratio(np.full(4, LOG_ZERO), rhs)).all()


def test_log_ratio_of_a_nonzero_lhs_over_zero_is_infinite():
    lhs = np.array([0.0, -700.0, 1e308])
    assert np.isposinf(log_ratio(lhs, np.full(3, LOG_ZERO))).all()


def test_log_ratio_past_float_range_is_infinite_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = log_ratio(np.array([1.7e308, -1.7e308]), np.array([-1.7e308, 1.7e308]))
    assert out.tolist() == [math.inf, -math.inf]


@given(st.lists(st.tuples(st.floats(-1e307, 1e307), st.floats(-1e307, 1e307)),
                min_size=1, max_size=32))
def test_log_ratio_is_subtraction_on_finite_rows(pairs):
    lhs, rhs = np.array(pairs).T
    assert log_ratio(lhs, rhs).tobytes() == (lhs - rhs).tobytes()
