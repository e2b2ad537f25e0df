"""``certify`` keeps one verdict per (condition, window).

The verdict of a condition whose lhs is a power series space lives among
the facts of the lhs exponent sequence (``spaces._memo``), so clearing
``spaces._exponent_values`` drops it; a general Köthe lhs is searched on
every call.  A memoised verdict is shared by every caller and is read-only.
"""

import dataclasses
import math
import sys
import threading

import pytest

from koethe import criteria, spaces
from koethe.cli import _dumps
from koethe.criteria import NStart, SMap, certify, weight_domination
from koethe.spaces import ExponentSequence, SpaceDescriptor
from koethe.verdicts import Outcome, Shape, Window

WIN = Window(k_max=4, m_max=8, n_max=256)
ALPHAS = [ExponentSequence.affine(1.0), ExponentSequence.power(2.0),
          ExponentSequence.power(0.5), ExponentSequence.logarithmic()]
SPACES = [make(alpha) for alpha in ALPHAS
          for make in (SpaceDescriptor.power_series_finite,
                       SpaceDescriptor.power_series_infinite)]
GENERAL = SpaceDescriptor.general([[math.exp(-n / k) for k in range(1, 9)]
                                   for n in range(1, 65)])


def conditions():
    for domain in SPACES:
        for codomain in SPACES:
            for shape in Shape:
                s_map = SMap.identity() if shape is Shape.FIXED_MAP else None
                for n_start in NStart:
                    yield weight_domination(domain, codomain, shape, n_start, s_map)


def _bytes(verdict):
    return _dumps(verdict.to_json())


@pytest.fixture
def searches(monkeypatch):
    """The shape of every search ``certify`` runs, from a cold memo."""
    calls = []
    decide = criteria.decide

    def counted(shape, *args, **kwargs):
        calls.append(shape)
        return decide(shape, *args, **kwargs)

    monkeypatch.setattr(criteria, "decide", counted)
    spaces._exponent_values.cache_clear()
    return calls


def test_a_warm_certify_returns_the_cold_verdict(searches):
    conds = list(conditions())
    cold = [certify(cond, WIN) for cond in conds]
    assert len(searches) == len(conds)
    assert {v.outcome for v in cold} == set(Outcome)
    warm = [certify(cond, WIN) for cond in reversed(conds)][::-1]
    assert len(searches) == len(conds)
    assert all(a is b for a, b in zip(warm, cold))
    spaces._exponent_values.cache_clear()
    fresh = [certify(cond, WIN) for cond in reversed(conds)][::-1]
    assert len(searches) == 2 * len(conds)
    assert list(map(_bytes, fresh)) == list(map(_bytes, cold))


def test_clearing_the_exponent_cache_drops_memoised_verdicts(searches):
    cond = weight_domination(SPACES[0], SPACES[2], Shape.EXISTS_M_FORALL_K)
    first = certify(cond, WIN)
    assert certify(cond, WIN) is first and len(searches) == 1
    spaces._exponent_values.cache_clear()
    again = certify(cond, WIN)
    assert again is not first and len(searches) == 2
    assert _bytes(again) == _bytes(first)


@pytest.mark.parametrize("shape", list(Shape))
def test_a_general_lhs_is_searched_on_every_call(searches, shape):
    s_map = SMap.identity() if shape is Shape.FIXED_MAP else None
    cond = weight_domination(SPACES[1], GENERAL, shape, s_map=s_map)
    verdicts = [certify(cond, WIN) for _ in range(3)]
    assert searches == [shape] * 3
    assert len(set(map(_bytes, verdicts))) == 1


@pytest.mark.parametrize("change", [
    lambda c, w: (dataclasses.replace(c, rhs=SPACES[6]), w),
    lambda c, w: (dataclasses.replace(c, shape=Shape.FORALL_K_EXISTS_M), w),
    lambda c, w: (dataclasses.replace(c, n_start=NStart.K), w),
    lambda c, w: (dataclasses.replace(c, shape=Shape.FIXED_MAP,
                                      s_map=SMap.linear(2.0)), w),
    lambda c, w: (c, dataclasses.replace(w, m_max=2)),
    lambda c, w: (c, dataclasses.replace(w, plateau_tol=1e-3)),
], ids=["rhs", "shape", "n_start", "s_map", "m_max", "plateau_tol"])
def test_a_condition_differing_in_one_input_is_searched_anew(searches, change):
    cond = weight_domination(SPACES[0], SPACES[2], Shape.EXISTS_M_FORALL_K)
    certify(cond, WIN)
    other, win = change(cond, WIN)
    memo = certify(other, win)
    assert len(searches) == 2
    spaces._exponent_values.cache_clear()
    assert _bytes(certify(other, win)) == _bytes(memo)


@pytest.mark.parametrize("shape", list(Shape))
def test_a_memoised_certificate_cannot_be_mutated(searches, shape):
    s_map = SMap.identity() if shape is Shape.FIXED_MAP else None
    cond = weight_domination(SPACES[0], SPACES[2], shape, s_map=s_map)
    verdict = certify(cond, WIN)
    assert verdict.outcome is Outcome.HOLDS
    before = _bytes(verdict)
    cert = verdict.certificate
    mapping = cert.entries if shape is Shape.FORALL_K_EXISTS_M else cert.log_c
    with pytest.raises(TypeError):
        mapping[1] = (99, 0.0)
    with pytest.raises(AttributeError):
        mapping.clear()
    with pytest.raises(dataclasses.FrozenInstanceError):
        verdict.reason = "edited"
    with pytest.raises(dataclasses.FrozenInstanceError):
        cert.k0 = 99
    assert certify(cond, WIN) is verdict and _bytes(verdict) == before


def test_concurrent_first_searches_share_one_verdict():
    conds = [weight_domination(domain, SPACES[2], shape)
             for domain in SPACES[:4] for shape in (Shape.FORALL_K_EXISTS_M,
                                                    Shape.EXISTS_M_FORALL_K)]
    expected = [_bytes(certify(cond, WIN)) for cond in conds]
    spaces._exponent_values.cache_clear()
    results, start = [], threading.Barrier(8)

    def worker():
        start.wait(timeout=10)
        results.append([certify(cond, WIN) for cond in conds])

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
    assert [[_bytes(v) for v in verdicts] for verdicts in results] == [expected] * 8


def _zero_table_run(sign):
    """Weights of a table of signed zeros, and the certify bytes of a
    condition whose rhs is that table."""
    zeros = ExponentSequence.table([sign * 0.0] * 8)
    rhs = SpaceDescriptor.power_series_finite(zeros)
    lhs = SpaceDescriptor.power_series_infinite(ExponentSequence.table([0.0] * 8))
    cond = weight_domination(lhs, rhs, Shape.FORALL_K_EXISTS_M)
    verdict = certify(cond, Window(k_max=2, m_max=2, n_max=8))
    return spaces.weight_array(rhs, 1, 8).tobytes(), _bytes(verdict)


def test_a_negative_zero_exponent_reads_as_zero_from_any_cache_state():
    assert math.copysign(1.0, ExponentSequence.table([-0.0]).values[0]) == 1.0
    assert math.copysign(1.0, ExponentSequence.affine(-0.0, -0.0).b) == 1.0
    assert math.copysign(1.0, SpaceDescriptor.general([[-0.0, 1.0]]).weights[0][0]) == 1.0
    spaces._exponent_values.cache_clear()
    spaces.weight_array.cache_clear()
    cold = _zero_table_run(-1)
    spaces._exponent_values.cache_clear()
    spaces.weight_array.cache_clear()
    _zero_table_run(1)
    assert _zero_table_run(-1) == cold
