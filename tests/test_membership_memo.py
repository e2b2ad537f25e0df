"""Both symbol memberships keep one verdict per (symbol, space, window).

``membership_in_space`` and ``membership_in_dual`` keep the verdict on a
power series space among the facts of its exponent sequence at the clipped
n_max (``spaces._memo``), keyed by the kind of membership, the kind of
space, the symbol and the window, so clearing ``spaces._exponent_values``
drops it; a general Köthe space is checked on every call.  A memoised
verdict is shared by every caller and is read-only.
"""

import dataclasses
import math
import sys
import threading
import warnings

import pytest

from koethe import operators, spaces
from koethe.cli import _dumps
from koethe.errors import UnsupportedCombinationError
from koethe.operators import SymbolSpec, membership_in_dual, membership_in_space
from koethe.spaces import ExponentSequence, SpaceDescriptor
from koethe.verdicts import Outcome, Window

WIN = Window(k_max=4, m_max=8, n_max=256)
ALPHAS = [ExponentSequence.affine(1.0), ExponentSequence.power(2.0),
          ExponentSequence.power(0.5), ExponentSequence.logarithmic()]
SPACES = [make(alpha) for alpha in ALPHAS
          for make in (SpaceDescriptor.power_series_finite,
                       SpaceDescriptor.power_series_infinite)]
SYMBOLS = ([SymbolSpec.geometric(r) for r in (0.01, 0.5, 1.0, 2.0)]
           + [SymbolSpec.polynomial(d) for d in (-2, 0, 3)]
           + [SymbolSpec.exp_of_exponent(-1.0, ALPHAS[0]),
              SymbolSpec.explicit([1.0, 0.0, -2.5])])
GENERAL = SpaceDescriptor.general([[math.exp(-n / k) for k in range(1, 9)]
                                   for n in range(1, 65)])
#: the membership check and the private scan that a cold call runs
CHECKS = {"space": (membership_in_space, "_membership_scan"),
          "dual": (membership_in_dual, "_dual_scan")}


def _bytes(verdict):
    return _dumps(verdict.to_json())


@pytest.fixture
def scans(monkeypatch):
    """The membership kind of every scan either check runs, from a cold memo."""
    calls = []
    for kind, (_, name) in CHECKS.items():
        def counted(*args, _kind=kind, _scan=getattr(operators, name)):
            calls.append(_kind)
            return _scan(*args)
        monkeypatch.setattr(operators, name, counted)
    spaces._exponent_values.cache_clear()
    return calls


def test_a_warm_membership_returns_the_cold_verdict(scans):
    cases = [(kind, spec, space) for kind in CHECKS for spec in SYMBOLS
             for space in SPACES]
    cold = [CHECKS[kind][0](spec, space, WIN) for kind, spec, space in cases]
    assert scans == [kind for kind, _, _ in cases]
    assert {v.outcome for v in cold} == set(Outcome)
    warm = [CHECKS[kind][0](spec, space, WIN) for kind, spec, space in reversed(cases)]
    assert len(scans) == len(cases)
    assert all(a is b for a, b in zip(warm[::-1], cold))
    spaces._exponent_values.cache_clear()
    fresh = [CHECKS[kind][0](spec, space, WIN) for kind, spec, space in cases]
    assert len(scans) == 2 * len(cases)
    assert list(map(_bytes, fresh)) == list(map(_bytes, cold))


@pytest.mark.parametrize("kind", list(CHECKS))
def test_clearing_the_exponent_cache_drops_memoised_verdicts(scans, kind):
    check = CHECKS[kind][0]
    first = check(SYMBOLS[1], SPACES[1], WIN)
    assert check(SYMBOLS[1], SPACES[1], WIN) is first and scans == [kind]
    spaces._exponent_values.cache_clear()
    again = check(SYMBOLS[1], SPACES[1], WIN)
    assert again is not first and scans == [kind] * 2
    assert _bytes(again) == _bytes(first)


def test_a_general_space_is_checked_on_every_call(scans):
    verdicts = [membership_in_space(SYMBOLS[1], GENERAL, WIN) for _ in range(3)]
    assert scans == ["space"] * 3
    assert verdicts[0] is not verdicts[1]
    assert len(set(map(_bytes, verdicts))) == 1
    for _ in range(2):
        with pytest.raises(UnsupportedCombinationError):
            membership_in_dual(SYMBOLS[1], GENERAL, WIN)


@pytest.mark.parametrize("kind", list(CHECKS))
@pytest.mark.parametrize("change", [
    lambda s, sp, w: (SymbolSpec.geometric(0.3), sp, w),
    lambda s, sp, w: (s.with_head(2.0), sp, w),
    lambda s, sp, w: (s, SpaceDescriptor.power_series_infinite(sp.alpha), w),
    lambda s, sp, w: (s, sp, w.with_n_max(128)),
    lambda s, sp, w: (s, sp, dataclasses.replace(w, k_max=2)),
    lambda s, sp, w: (s, sp, dataclasses.replace(w, m_max=2)),
    lambda s, sp, w: (s, sp, dataclasses.replace(w, plateau_tol=1e-3)),
    lambda s, sp, w: (s, sp, dataclasses.replace(w, series_tail_rel=0.5)),
    lambda s, sp, w: (s, sp, dataclasses.replace(w, dense_cap=8)),
], ids=["spec", "head", "space-kind", "n_max", "k_max", "m_max", "plateau_tol",
        "series_tail_rel", "dense_cap"])
def test_a_membership_differing_in_one_input_is_checked_anew(scans, kind, change):
    check = CHECKS[kind][0]
    spec, space = SYMBOLS[1], SPACES[0]
    first = check(spec, space, WIN)
    other = change(spec, space, WIN)
    memo = check(*other)
    assert scans == [kind] * 2 and memo is not first
    assert check(*other) is memo
    spaces._exponent_values.cache_clear()
    assert _bytes(check(*other)) == _bytes(memo)


@pytest.mark.parametrize("kind, spec, outcome", [
    ("space", SymbolSpec.geometric(0.5), Outcome.HOLDS),
    ("space", SymbolSpec.geometric(2.0), Outcome.FAILS_ON_WINDOW),
    ("dual", SymbolSpec.geometric(0.5), Outcome.HOLDS),
    ("dual", SymbolSpec.polynomial(3), Outcome.FAILS_ON_WINDOW),
])
def test_a_memoised_membership_cannot_be_mutated(scans, kind, spec, outcome):
    check = CHECKS[kind][0]
    verdict = check(spec, SPACES[0], WIN)
    assert verdict.outcome is outcome
    before = _bytes(verdict)
    with pytest.raises(dataclasses.FrozenInstanceError):
        verdict.reason = "edited"
    with pytest.raises(dataclasses.FrozenInstanceError):
        verdict.tags = ("edited",)
    part = verdict.certificate or verdict.witness
    if part is not None:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(part, dataclasses.fields(part)[0].name, 99)
        assert not any(isinstance(v, (list, dict, set))
                       for v in vars(part).values())
    assert check(spec, SPACES[0], WIN) is verdict and _bytes(verdict) == before


def test_concurrent_first_memberships_share_one_verdict():
    cases = [(check, spec, space) for check, _ in CHECKS.values()
             for spec in SYMBOLS[:4] for space in SPACES[:4]]
    expected = [_bytes(check(spec, space, WIN)) for check, spec, space in cases]
    spaces._exponent_values.cache_clear()
    results, start = [], threading.Barrier(8)

    def worker():
        start.wait(timeout=10)
        results.append([check(spec, space, WIN) for check, spec, space in cases])

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
    # after the first calls every caller reads the one stored verdict
    warm = [check(spec, space, WIN) for check, spec, space in cases]
    assert all(check(spec, space, WIN) is verdict
               for (check, spec, space), verdict in zip(cases, warm))


#: n^200 passes float range at n = 35: an infinite type's weights are +inf
#: from there on, and a finite type's are -inf
HUGE = ExponentSequence.power(200.0)


@pytest.mark.parametrize("kind", list(CHECKS))
@pytest.mark.parametrize("space, spec", [
    (SpaceDescriptor.power_series_infinite(HUGE), SymbolSpec.geometric(1.0)),
    # the symbol evaluates the space's own sequence first, as its logs do
    (SpaceDescriptor.power_series_finite(HUGE), SymbolSpec.exp_of_exponent(-1.0, HUGE)),
], ids=["infinite", "finite-own-sequence"])
def test_a_cold_memo_lookup_warns_no_more_than_the_weights(kind, space, spec):
    # the memo reads the exponents only after the weights have evaluated
    # them, inside the weights' own errstate
    spaces._exponent_values.cache_clear()
    spaces.weight_array.cache_clear()
    win = Window(k_max=1).with_n_max(100)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        verdict = CHECKS[kind][0](spec, space, win)
    assert CHECKS[kind][0](spec, space, win) is verdict
