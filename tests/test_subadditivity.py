"""The subadditivity sweep against the row-by-row brute force it replaced.

``spaces._subadditivity_scan`` folds the half rows of every t into each
row's least denominator; ``reference_kernels.subadditivity_scan`` is the
scan over every pair (t, s) that came before.  Their reports must be equal,
and the sweep must warn ``overflow encountered in add`` exactly where the
reference does, since that warning decides the exit code under
``PYTHONWARNINGS=error::RuntimeWarning``; the reference's inf/inf
``invalid value encountered in divide`` is the one warning the sweep drops.

Run as a script, a seeded sweep of random tables up to n = 2,048 and the
named forms at 16,384 are compared with the reference, and the script
exits 1 on any difference:

    python tests/test_subadditivity.py
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import koethe
import reference_kernels as ref
from koethe.spaces import ExponentSequence, _subadditivity_scan, subadditivity_constant

INF_OVER_INF = "invalid value encountered in divide"
SUBNORMAL = 2.2250738585e-313
SCALES = (1.0, 1e-3, 1e300, 1e306, 2e307)
FORMS = {"n^0.5": ExponentSequence.power(0.5), "n": ExponentSequence.power(1.0),
         "n^2": ExponentSequence.power(2.0), "n^7.7": ExponentSequence.power(7.7),
         "log": ExponentSequence.logarithmic(),
         "affine": ExponentSequence.affine(0.5, 3.0)}


def table(steps, seed, scale, cap, zeros, subnormal, tail) -> np.ndarray:
    """A nonnegative nondecreasing table: the running sum of integer
    ``steps`` (a 0 step is a tie), times uniform fractions drawn from
    ``seed`` unless it is None, times ``scale`` and capped at ``cap``; then
    a zero prefix of ``zeros`` entries, a subnormal first positive entry,
    and ``tail`` entries of +inf."""
    a = np.asarray(steps, dtype=np.float64)
    n = len(a)
    if seed is not None:
        a *= np.random.default_rng(seed).random(n)
    with np.errstate(over="ignore"):
        a = np.minimum(np.cumsum(a) * scale, cap)
    a[:zeros] = 0.0
    if subnormal and zeros < n:
        a[zeros] = SUBNORMAL
    a[n - tail :] = np.inf
    return np.maximum.accumulate(a)


def outcome(scan, a, m_max=64):
    """The scan's report and the messages of the warnings it gave."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        report = scan(a, m_max)
    return report, {str(w.message) for w in seen}


def differs(got, want) -> bool:
    """Do the sweep's and the reference's outcomes differ, beyond the
    reference's inf/inf warning?"""
    return got[0] != want[0] or got[1] != want[1] - {INF_OVER_INF}


@st.composite
def tables(draw):
    n = draw(st.integers(2, 300))
    steps = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return table(steps,
                 draw(st.none() | st.integers(0, 2**32 - 1)),
                 draw(st.sampled_from(SCALES)),
                 draw(st.sampled_from([math.inf, 1e308])),
                 draw(st.integers(0, n)), draw(st.booleans()),
                 draw(st.integers(0, n)))


# -- the report equals the brute force's ---------------------------------------


@settings(max_examples=300, deadline=None)
@given(tables(), st.sampled_from([1, 2, 64]))
@example(table([1, 1, 1], None, 1.0, math.inf, 0, True, 0), 64)  # ratio overflows
@example(table([1] * 32, None, 1e308, 1e308, 0, False, 0), 64)  # pair sums overflow
@example(table([1] * 8, None, 1.0, math.inf, 0, False, 6), 64)  # +inf tail
@example(table([0] * 5, None, 1.0, math.inf, 5, False, 0), 64)  # all zero
@example(table([0, 0, 1, 1], None, 1.0, math.inf, 2, False, 0), 64)  # infeasible
@example(np.array([1.0, 1e308, 1e308, np.inf]), 64)  # +inf over +inf at t = 2 only
@example(np.array([1.0, 3.0, np.nan, 4.0]), 64)  # a NaN entry passes the table checks
def test_the_sweep_reports_as_the_brute_force(a, m_max):
    assert not differs(outcome(_subadditivity_scan, a, m_max),
                       outcome(ref.subadditivity_scan, a, m_max))


@pytest.mark.parametrize("n", [2, 3, 17, 1024, 4096])
@pytest.mark.parametrize("form", FORMS)
def test_named_forms_report_as_the_brute_force(form, n):
    a = FORMS[form].values_array(n)
    for m_max in (1, 64):
        assert subadditivity_constant(FORMS[form], n, m_max) == ref.subadditivity_scan(a, m_max)


def test_an_inf_row_over_an_inf_denominator_warns_no_more():
    # a_3 = inf over a_2 + a_1 = inf: the reference's NaN ratio warned
    a = np.array([1.0, np.inf, np.inf])
    want, want_warned = outcome(ref.subadditivity_scan, a)
    assert want_warned == {INF_OVER_INF}
    assert outcome(_subadditivity_scan, a) == (want, set())


# -- no exit code moves, under either warning filter ---------------------------

P2000 = {"kind": "power_series_finite", "alpha": {"form": "power", "p": 2000}}
HUGE = {"kind": "power_series_infinite",
        "alpha": {"form": "table", "values": [1, 2] + [1e308] * 30}}


def _koethe(argv, strict):
    env = dict(os.environ)
    env.pop("PYTHONWARNINGS", None)
    if strict:
        env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    src = str(Path(koethe.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "koethe.cli", *argv],
                          capture_output=True, env=env, timeout=120)


@pytest.mark.parametrize("strict", [False, True], ids=["default", "strict"])
def test_a_power_beyond_float_range_keeps_its_exit_code(strict):
    done = _koethe(["spaces", "check", "--n-max", "64", "--space", json.dumps(P2000)],
                   strict)
    if strict:
        assert done.returncode == 4 and done.stdout == b""
        assert b"overflow encountered in power" in done.stderr
    else:
        assert done.returncode == 1
        assert hashlib.sha256(done.stdout).hexdigest() == (
            "ccdad3fa262e2a7664fa9fe57550b8eb3ec0e6ac9669cafa37c93127be7fc064")


@pytest.mark.parametrize("strict", [False, True], ids=["default", "strict"])
def test_overflowing_pair_sums_keep_their_exit_code(strict):
    done = _koethe(["spaces", "check", "--checks", "subadditivity", "--n-max", "32",
                    "--space", json.dumps(HUGE)], strict)
    assert b"overflow encountered in add" in done.stderr
    if strict:
        assert done.returncode == 4 and done.stdout == b""
    else:
        assert done.returncode == 1
        sub = json.loads(done.stdout)["report"]["subadditivity"]
        assert sub["witness"] == [1, 3] and sub["max_ratio"] == 1e308 / 3


# -- the seeded sweep ----------------------------------------------------------


def random_table(rng: np.random.Generator) -> np.ndarray:
    """A table as :func:`tables` draws it, n log-uniform in [2, 2048]."""
    n = int(np.exp(rng.uniform(math.log(2), math.log(2049))))
    return table(rng.integers(0, 4, n), rng.integers(2**32) if rng.random() < 0.5 else None,
                 rng.choice(SCALES), rng.choice([math.inf, 1e308]),
                 int(rng.integers(0, n + 1)) if rng.random() < 0.3 else 0,
                 rng.random() < 0.2,
                 int(rng.integers(0, n + 1)) if rng.random() < 0.2 else 0)


def sweep():
    """(cases, differing cases, sweep seconds, reference seconds) over 2,000
    seeded random tables and the named forms at 16,384."""
    rng = np.random.default_rng(17)
    cases = [random_table(rng) for _ in range(2000)]
    cases += [seq.values_array(16384) for seq in FORMS.values()]
    spent, bad = [0.0, 0.0], 0
    for a in cases:
        reports = []
        for i, scan in enumerate((_subadditivity_scan, ref.subadditivity_scan)):
            start = time.perf_counter()
            reports.append(outcome(scan, a))
            spent[i] += time.perf_counter() - start
        bad += differs(*reports)
    return len(cases), bad, *spent


if __name__ == "__main__":
    cases, bad, sweep_s, ref_s = sweep()
    print(f"{cases} tables ({len(FORMS)} named forms at 16384): {bad} differ; "
          f"sweep {sweep_s:.2f} s, reference {ref_s:.2f} s")
    sys.exit(1 if bad else 0)
