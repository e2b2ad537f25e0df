"""Report bytes of the certifier and of cross-validation, pinned by digest.

The benchmark's correctness gate fingerprints outcomes and indices but not
``reason`` or ``tags``, so a reworded reason or a lost tag passes it.  These
digests cover every byte that ``koethe`` writes for:

- ``certify`` over the 6 power series spaces of the cross-validation grid
  squared x 3 quantifier shapes x 2 starting indices, at n_max = 512;
- ``cross_validate`` over the 144 grid operators x 2 properties, at
  n_max = 256;
- the ``tame``, ``tame-condition``, ``membership`` and ``space-check``
  tasks below, whose reports embed encoded input records (symbols, index
  maps, windows), at n_max = 64;
- the ``certify-continuity`` and ``certify-compactness`` tasks of full
  operators over the grid's space pairs, finite into infinite type left
  out, at n_max = 256: the routing of both triangular parts;
- the ``probe`` tasks below: ratio curves of lower, upper and full
  operators in both norms, at n_max = 64.

They are recorded on one numpy build; another build may round exp or log
differently, and the digest tests skip there.  The messages of the four
refused routes are pinned on every build.
"""

import hashlib
from pathlib import Path

import pytest

from koethe import Shape
from koethe.cli import ExperimentConfig, _dumps, _run_task
from koethe.criteria import (
    COMPACTNESS,
    CONTINUITY,
    NStart,
    SMap,
    certify,
    weight_domination,
)
from koethe.errors import NotWellDefinedError, UnsupportedCombinationError
from koethe.operators import Symbol, SymbolSpec, ToeplitzOperator, Variant
from koethe.oracle import cross_validate
from koethe.spaces import ExponentSequence, SpaceDescriptor
from koethe.verdicts import Window
from reference_kernels import same_exp_log_build

#: recorded before the certifier and the oracle shared one scan-to-verdict path
CERTIFY_DIGEST = "379496e9f5fd0658700b5611d0964391e1ea02c63e712e1395e5e31ebb200805"
CROSS_DIGEST = "79888b0d93a56e558082785e1687d703464730a04c5c47d4b072ef194362bc99"
#: recorded before the input records shared one JSON codec
TASK_DIGEST = "4c2ec6b94a27d059614c5246b1958fc125a5364ae99819860c3db9b5ad598960"
#: recorded before the paper's rules moved into one table
FULL_DIGEST = "1b92dac09824656f8672071b666af3349029a82507bf505f7fb0dad3e8555356"
#: recorded before the reports shared one encoder
PROBE_DIGEST = "e8c0a175aeb74c71d5a2789dba38eb09cea5a0cdbfa23641ef8c0286f74f0056"

same_build = pytest.mark.skipif(not same_exp_log_build(),
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


PSF_N = {"kind": "power_series_finite", "alpha": {"form": "power", "p": 1.0}}
PSF_LOG = {"kind": "power_series_finite", "alpha": {"form": "log"}}
PSI_N = {"kind": "power_series_infinite",
         "alpha": {"form": "affine", "a": 1.0, "b": 0.5}}
PSI_SQRT = {"kind": "power_series_infinite", "alpha": {"form": "power", "p": 0.5}}
PSF_TABLE = {"kind": "power_series_finite",
             "alpha": {"form": "table", "values": [i ** 1.5 for i in range(1, 101)]}}
# every weight is finite, so no series here meets an infinite term
GENERAL = {"kind": "general_koethe",
           "weights": [[k ** (i / 16) for k in range(1, 9)] for i in range(64)]}
S_MAPS = [{"form": "identity"}, {"form": "linear", "a": 1.5},
          {"form": "table", "values": [1, 2, 4, 5, 7]}]
MEMBERSHIP_SYMBOLS = [
    {"lower": {"form": "geometric", "r": 0.5}},
    {"upper": {"form": "explicit", "values": [1.0, -2.0, 0.5]}},
    {"lower": {"form": "polynomial", "d": 2, "head": 3.0},
     "upper": {"form": "exp_of_exponent", "c": -1.0,
               "alpha": {"form": "power", "p": 0.5}, "head": -1.0}},
]


def digest_tasks():
    for variant, domain, codomain in (("lower", PSI_N, PSF_N), ("upper", PSI_N, PSI_SQRT),
                                      ("full", PSF_LOG, PSF_TABLE),
                                      ("upper", PSF_N, PSF_LOG)):
        for s_map in S_MAPS:
            yield {"command": "tame", "variant": variant, "domain": domain,
                   "codomain": codomain, "s_map": s_map,
                   "family": {"count": 3, "seed": 11, "signed": True}}
    for direction in ("lower", "upper"):
        for domain, codomain in ((PSF_N, PSF_LOG), (PSI_SQRT, PSI_N), (PSF_N, PSI_N),
                                 (GENERAL, PSF_N)):
            for s_map in S_MAPS:
                yield {"command": "tame-condition", "direction": direction,
                       "domain": domain, "codomain": codomain, "s_map": s_map}
    spaces = [PSF_N, PSF_LOG, PSI_N, PSI_SQRT, PSF_TABLE, GENERAL]
    for symbol in MEMBERSHIP_SYMBOLS:
        for part in ("lower", "upper"):
            for space in spaces:
                for target in ("space", "dual"):
                    if part in symbol and not (target == "dual" and space is GENERAL):
                        yield {"command": "membership", "symbol": symbol, "part": part,
                               "space": space, "target": target}
    for space in spaces:
        yield {"command": "space-check", "space": space}


def _config(window: Window) -> ExperimentConfig:
    return ExperimentConfig(spaces={}, symbols={}, operators={}, tasks=[],
                            window=window, out_dir=Path("."), formats=())


def task_digest(tasks=digest_tasks, window=Window(n_max=64, k_max=5, m_max=8)) -> str:
    cfg = _config(window)
    digest = hashlib.sha256()
    for i, task in enumerate(tasks()):
        status, report, _ = _run_task(cfg, task, f"tasks[{i}]")
        digest.update(_dumps({"status": status, "report": report}).encode())
    return digest.hexdigest()


FULL_SYMBOLS = [
    {"lower": {"form": "explicit", "values": [1.0]},
     "upper": {"form": "explicit", "values": [1.0]}},
    {"lower": {"form": "geometric", "r": 0.5},
     "upper": {"form": "geometric", "r": -0.9, "head": 2.0}},
]


def full_tasks():
    for domain in grid_spaces():
        for codomain in grid_spaces():
            if (domain.kind, codomain.kind) == ("power_series_finite",
                                                "power_series_infinite"):
                continue  # not well defined
            for symbol in FULL_SYMBOLS:
                for prop in (CONTINUITY, COMPACTNESS):
                    yield {"command": f"certify-{prop}",
                           "operator": {"variant": "full", "symbol": symbol,
                                        "domain": domain.to_json(),
                                        "codomain": codomain.to_json()}}


# no space here has a zero weight, so no ratio is 0/0 (see CHANGES.md)
PROBE_OPERATORS = [
    ("lower", {"lower": {"form": "geometric", "r": 0.5}}, PSI_N, PSF_N),
    ("lower", {"lower": {"form": "polynomial", "d": 2, "head": 3.0}}, PSF_N, PSF_LOG),
    ("upper", {"upper": {"form": "explicit", "values": [1.0, -2.0, 0.5]}}, PSI_N, PSI_SQRT),
    ("upper", {"upper": {"form": "geometric", "r": -0.9}}, PSF_TABLE, PSF_N),
    ("full", MEMBERSHIP_SYMBOLS[2], PSF_LOG, PSF_TABLE),
    ("full", FULL_SYMBOLS[1], PSI_SQRT, PSI_N),
]


def probe_tasks():
    for variant, symbol, domain, codomain in PROBE_OPERATORS:
        for norm in ("sum", "sup"):
            yield {"command": "probe", "norm": norm, "k": [1, 2, 5], "m": [1, 3, 8],
                   "operator": {"variant": variant, "symbol": symbol,
                                "domain": domain, "codomain": codomain}}


@same_build
def test_certify_reports_match_the_recorded_digest():
    assert certify_digest() == CERTIFY_DIGEST


@same_build
def test_cross_validation_reports_match_the_recorded_digest():
    assert cross_digest() == CROSS_DIGEST


@same_build
def test_task_reports_match_the_recorded_digest():
    assert task_digest() == TASK_DIGEST


@same_build
def test_full_operator_reports_match_the_recorded_digest():
    assert task_digest(full_tasks, Window().with_n_max(256)) == FULL_DIGEST


@same_build
def test_probe_reports_match_the_recorded_digest():
    assert task_digest(probe_tasks) == PROBE_DIGEST


PSI_LOG = {"kind": "power_series_infinite", "alpha": {"form": "log"}}


@pytest.mark.parametrize("variant, domain, codomain, error, message", [
    ("lower", PSF_N, GENERAL, UnsupportedCombinationError,
     "no rule decides a lower-triangular operator into a general Köthe space; "
     "a power series codomain is required"),
    ("upper", GENERAL, PSF_N, UnsupportedCombinationError,
     "no rule decides an upper-triangular operator from a general Köthe space; "
     "a power series domain is required"),
    ("full", PSF_N, GENERAL, UnsupportedCombinationError,
     "full-variant verdicts need power series spaces on both sides"),
    ("full", PSF_LOG, PSI_LOG, NotWellDefinedError,
     "a full Toeplitz operator is not well defined from a finite-type into an "
     "infinite-type power series space"),
])
@pytest.mark.parametrize("prop", [CONTINUITY, COMPACTNESS])
def test_refused_routes_keep_their_messages(variant, domain, codomain, error,
                                            message, prop):
    task = {"command": f"certify-{prop}",
            "operator": {"variant": variant, "symbol": FULL_SYMBOLS[0],
                         "domain": domain, "codomain": codomain}}
    with pytest.raises(error) as exc:
        _run_task(_config(Window(n_max=64)), task, "tasks[0]")
    assert str(exc.value) == message
