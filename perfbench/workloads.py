"""The three benchmark workloads and the correctness gate behind them.

A *decision* is one top-level verdict call; a *pass* is one cold-cache run
over a workload's inputs.  Each workload builds its inputs from the
benchmark seed in its constructor (the set-up), runs passes, and reduces
every decision to a fingerprint that is compared with the recorded one in
`reference/<workload>.json.gz`.

Fingerprints keep the fields a verdict consists of: outcome, agreement,
task status, exit code, and the certificate and witness indices.  Log
constants are kept too and compared within LOG_TOL, far above the ~1e-13
noise a reordered reduction causes and far below the 1e-6 plateau
tolerance that decides verdicts.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gzip
import hashlib
import io
import json
import math
import os
from pathlib import Path

import numpy as np

from koethe import cli, criteria, operators, oracle
from koethe.criteria import COMPACTNESS, CONTINUITY, FamilySpec, OperatorTemplate, SMap
from koethe.operators import Symbol, SymbolSpec, ToeplitzOperator, Variant
from koethe.spaces import ExponentSequence, SpaceDescriptor
from koethe.verdicts import Window

import layers
from speed import SpeedClock

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

EXACT_KEYS = frozenset({"outcome", "agreement", "status", "exit_code", "m", "k",
                        "k0", "best_m", "n", "holds", "overflow"})
LOG_KEYS = frozenset({"log_c", "growth_log", "limit_log", "log_ratio"})
LOG_TOL = 1e-9

#: tameness families are drawn from this pool, so each has a recorded reference
FAMILY_POOL = tuple(range(16))

_EXPONENTS = {"n": ExponentSequence.affine(1.0),
              "n2": ExponentSequence.power(2.0),
              "sqrt": ExponentSequence.power(0.5)}
_SYMBOLS = {"delta": SymbolSpec.delta(), "geometric": SymbolSpec.geometric(0.5)}


def grid_spaces() -> dict[str, SpaceDescriptor]:
    """The six power series spaces of the cross-validation grid."""
    out = {}
    for name, alpha in _EXPONENTS.items():
        out[f"finite({name})"] = SpaceDescriptor.power_series_finite(alpha)
        out[f"infinite({name})"] = SpaceDescriptor.power_series_infinite(alpha)
    return out


def grid_operators(rng: np.random.Generator | None = None
                   ) -> list[tuple[str, ToeplitzOperator]]:
    """{lower, upper} x spaces x spaces x {delta, geometric(0.5)}.

    With `rng`, each axis is visited in a permuted order.  The nesting is
    kept, so consecutive operators still share spaces and the profile cache
    sees the locality of the natural order.
    """
    spaces = list(grid_spaces().items())
    variants = [Variant.LOWER, Variant.UPPER]
    symbols = list(_SYMBOLS.items())

    def order(items):
        return items if rng is None else [items[i] for i in rng.permutation(len(items))]

    out = []
    for variant in order(variants):
        for dom_name, dom in order(spaces):
            for cod_name, cod in order(spaces):
                for sym_name, spec in order(symbols):
                    sym = (Symbol(lower=spec) if variant is Variant.LOWER
                           else Symbol(upper=spec))
                    key = f"{variant.value} {sym_name}: {dom_name}->{cod_name}"
                    out.append((key, ToeplitzOperator(sym, variant, dom, cod)))
    return out


# ---------------------------------------------------------------------------
# fingerprints and the reference gate
# ---------------------------------------------------------------------------


def _scalar(value):
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value)


def fingerprint(obj, path: str = "", out: dict | None = None) -> dict:
    """Flatten the verdict fields of a to_json() tree into {path: value}."""
    out = {} if out is None else out
    if isinstance(obj, dict):
        for key in sorted(obj, key=str):
            value = obj[key]
            sub = f"{path}.{key}" if path else str(key)
            if isinstance(value, (dict, list)):
                fingerprint(value, sub, out)
            elif key in EXACT_KEYS or key in LOG_KEYS:
                out[sub] = _scalar(value)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            fingerprint(value, f"{path}[{i}]", out)
    return out


def _log_close(expected, actual) -> bool:
    if expected is None or actual is None:
        return expected is actual
    if math.isnan(expected) or math.isnan(actual):
        return math.isnan(expected) and math.isnan(actual)
    if math.isinf(expected) or math.isinf(actual):
        return expected == actual
    return abs(expected - actual) <= LOG_TOL * max(1.0, abs(expected))


def mismatches(expected: dict | None, actual: dict) -> list[str]:
    """Paths at which a fingerprint differs from its reference."""
    if expected is None:
        return ["<no reference entry>"]
    bad = sorted(set(expected) ^ set(actual))
    for path in sorted(set(expected) & set(actual)):
        e, a = expected[path], actual[path]
        leaf = path.rsplit(".", 1)[-1]
        same = (_log_close(e, a) if leaf in LOG_KEYS and not isinstance(e, str)
                else type(e) is type(a) and e == a)
        if not same:
            bad.append(path)
    return bad


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_reference(workload: str) -> dict:
    """Recorded fingerprints of one workload, by decision key."""
    with gzip.open(reference_path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)["decisions"]


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Pass:
    #: wall time of the pass, calibration probes left out
    wall_s: float
    #: the same at the reference host speed (see speed.py)
    norm_s: float
    #: reference-speed time of each decision, by decision key
    decision_s: dict[str, float]
    #: (decision key, fingerprint, error message or None)
    results: list[tuple[str, dict | None, str | None]]
    #: problems found outside any one decision (exit code, determinism)
    problems: list[str] = dataclasses.field(default_factory=list)
    failed_keys: set[str] = dataclasses.field(default_factory=set)
    report_bytes: int = 0


def _library_pass(calls, clock: SpeedClock) -> Pass:
    """Run (key, thunk) decisions back to back, then fingerprint the
    returned reports outside the timed region."""
    times, results = {}, []
    clock.mark()
    for key, thunk in calls:
        try:
            report, error = thunk(), None
        except Exception as exc:  # a raising decision is counted, not fatal
            report, error = None, f"{type(exc).__name__}: {exc}"
        times[key] = clock.lap()
        results.append((key, report, error))
    return Pass(clock.wall_s, clock.norm_s, times,
                [(key, None if report is None else fingerprint(report.to_json()), error)
                 for key, report, error in results])


def family_spec(family_seed: int) -> FamilySpec:
    """The 50-member geometric family, r in [0.05, 0.9], of one pool seed."""
    return FamilySpec(count=50, seed=family_seed, r_min=0.05, r_max=0.9)


class TamenessFamily:
    """Family tameness at the default window, one family per decision."""

    name = "tameness_family"
    min_passes = 2
    #: measured: two passes of one family at probe speeds 1.47x and 1.14x
    #: read 15% apart with whole stretches scaled, 0.3% apart with half
    #: (see speed.SpeedClock and README.md)
    core_share = 0.5

    def __init__(self, seed: int, workdir: Path):
        alpha = ExponentSequence.affine(1.0)
        self.template = OperatorTemplate(Variant.LOWER,
                                         SpaceDescriptor.power_series_infinite(alpha),
                                         SpaceDescriptor.power_series_finite(alpha))
        self.window = Window()
        self.s_map = SMap.identity()
        # the seed picks one family of the pool, and every pass repeats it
        pick = int(np.random.default_rng(seed).integers(len(FAMILY_POOL)))
        self.family = family_spec(FAMILY_POOL[pick])

    def run_pass(self, index: int, calibrate: bool = True) -> Pass:
        family = self.family
        clock = SpeedClock(calibrate, self.core_share)
        # a family takes seconds, so it is timed in stretches of one profile
        original = operators.column_norm_profile

        def marked(*args, **kwargs):
            clock.mark()
            return original(*args, **kwargs)

        undo = layers.rebind(original, marked)
        try:
            return _library_pass([(str(family.seed), lambda: criteria.tameness_check(
                family, self.s_map, self.template, self.window))], clock)
        finally:
            layers.restore(undo)


class CrossValidationGrid:
    """The 288-case theorem-versus-oracle grid at n_max = 1024."""

    name = "xval_grid"
    min_passes = 2

    def __init__(self, seed: int, workdir: Path):
        self.window = Window().with_n_max(1024)
        self.rng = np.random.default_rng(seed)
        #: the cases in the order pass i visits them; each pass draws a new
        #: order, so a run's percentiles do not rest on one cache history
        self.orders = [grid_cases(self.rng)]

    def run_pass(self, index: int, calibrate: bool = True) -> Pass:
        while len(self.orders) <= index:
            self.orders.append(grid_cases(self.rng))
        return _library_pass([
            (key, lambda op=op, prop=prop: oracle.cross_validate(op, self.window, prop))
            for key, op, prop in self.orders[index]], SpeedClock(calibrate))


def grid_cases(rng: np.random.Generator | None = None) -> list:
    """(key, operator, property) of every grid case.  Continuity comes first,
    as in the acceptance grid: the first property of an operator pays its
    profile misses, so swapping them would move the decision-time
    distribution with the order."""
    return [(f"{key} {prop}", op, prop) for key, op in grid_operators(rng)
            for prop in (CONTINUITY, COMPACTNESS)]


# -- cli batch ----------------------------------------------------------------

CLI_N_MAX = 256
APPLY_LENGTH = 65536
#: name -> (lower r, upper r) of a geometric symbol; None leaves the part out
APPLY_SYMBOLS = {"lower": (0.5, None), "upper": (None, -0.25),
                 "full": (0.9, 0.5), "full-signed": (-0.5, 0.25)}
_TASK_HANDLERS = ("_run_space_check", "_run_probe", "_run_apply",
                  "_run_cross_validate")
_EXIT_CODES = (("conflict", 3), ("inconclusive", 2), ("fails", 1))


def _operator_name(key: str) -> str:
    return key.replace(" ", "").replace(":", "|")


def _property_checkerboard() -> dict[str, str]:
    """Cross-validated property per grid operator: alternating along every
    axis, so each kind of operator is checked for both properties and the
    batch does the same work whatever the seed."""
    props = {}
    for i, (key, _) in enumerate(grid_operators()):
        parity = i % 2 + (i // 2) % 6 + (i // 12) % 6 + i // 72
        props[key] = (CONTINUITY, COMPACTNESS)[parity % 2]
    return props


def cli_config(workdir: Path, rng: np.random.Generator
               ) -> tuple[dict, list[str], dict[str, np.ndarray]]:
    """Config, per-task keys and apply inputs (by file name) of one batch.

    Each operator's cross-validate and probe stay adjacent, as a user would
    write them; the seed permutes the grid axes, places the space checks and
    applies among them, and draws the apply input vectors.
    """
    spaces = grid_spaces()
    checkerboard = _property_checkerboard()
    operators, blocks = {}, []
    for key, op in grid_operators(rng):
        name = _operator_name(key)
        operators[name] = op.to_json()
        prop = checkerboard[key]
        blocks.append([(f"cross-validate {name} {prop}",
                        {"command": "cross-validate", "operator": name, "property": prop}),
                       (f"probe {name}", {"command": "probe", "operator": name})])
    extras = [[(f"space-check {name}", {"command": "space-check", "space": name})]
              for name in spaces]
    inputs = {}
    unit = SpaceDescriptor.power_series_finite(ExponentSequence.affine(1.0))
    for name, (lo, up) in APPLY_SYMBOLS.items():
        sym = Symbol(lower=None if lo is None else SymbolSpec.geometric(lo),
                     upper=None if up is None else SymbolSpec.geometric(up))
        variant = Variant.FULL if lo is not None and up is not None else (
            Variant.LOWER if lo is not None else Variant.UPPER)
        operators[f"apply-{name}"] = ToeplitzOperator(sym, variant, unit, unit).to_json()
        source = f"x-{name}.txt"
        inputs[source] = rng.uniform(-1.0, 1.0, APPLY_LENGTH)
        extras.append([(f"apply {name}", {
            "command": "apply", "operator": f"apply-{name}",
            "input": str(workdir / source), "method": "fast", "output": f"y-{name}.txt"})])
    for block in extras:
        blocks.insert(int(rng.integers(len(blocks) + 1)), block)
    tasks = [entry for block in blocks for entry in block]
    config = {
        "window": {"n_max": CLI_N_MAX},
        "spaces": {name: space.to_json() for name, space in spaces.items()},
        "operators": operators,
        "tasks": [task for _, task in tasks],
        "output": {"dir": "out", "formats": ["json", "csv"]},
    }
    return config, [key for key, _ in tasks], inputs


def write_cli_inputs(workdir: Path, config: dict, inputs: dict[str, np.ndarray]) -> Path:
    workdir.mkdir(parents=True, exist_ok=True)
    for source, x in inputs.items():
        cli.write_vector(workdir / source, x)
    path = workdir / "config.json"
    path.write_text(json.dumps(config, indent=1))
    return path


def _geometric_filter(x, r: float) -> list[float]:
    """y_j = sum_{i <= j} r^(j-i) x_i by the two-term recurrence."""
    out, acc = [], 0.0
    for value in x:
        acc = acc * r + value
        out.append(acc)
    return out


def expected_apply(x: np.ndarray, lower: float | None, upper: float | None) -> np.ndarray:
    """Independent O(n) reference for a geometric Toeplitz operator; each
    part carries its own theta_0 = 1 on the diagonal."""
    y = np.zeros(len(x))
    if lower is not None:
        y += _geometric_filter(x.tolist(), lower)
    if upper is not None:
        y += _geometric_filter(x[::-1].tolist(), upper)[::-1]
    return y


def tree_digests(root: Path) -> tuple[dict[str, str], int]:
    """sha256 per file under `root`, and the total size in bytes."""
    digests, size = {}, 0
    for path in sorted(root.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            size += len(data)
            digests[path.relative_to(root).as_posix()] = hashlib.sha256(data).hexdigest()
    return digests, size


def expected_exit_code(statuses) -> int:
    """The documented exit-code contract: conflicts, then inconclusive
    evidence, then window failures; 0 only when everything is ok."""
    for status, code in _EXIT_CODES:
        if status in statuses:
            return code
    return 0


class CliBatch:
    """One `koethe run` config of ~300 tasks, run in-process via cli.main."""

    name = "cli_batch"
    #: passes are short; a third gives every task another chance at a quiet host
    min_passes = 3

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        config, self.task_keys, self.inputs = cli_config(workdir, np.random.default_rng(seed))
        self.config_path = write_cli_inputs(workdir, config, self.inputs)
        self.first_digests: dict[str, str] | None = None

    def run_pass(self, index: int, calibrate: bool = True) -> Pass:
        out = self.workdir / f"pass-{index}"
        out.mkdir()
        clock = SpeedClock(calibrate)
        # one lap per task handler call; the first lap is config parsing
        laps: list[float] = []
        undo = []
        for handler in _TASK_HANDLERS:
            original = getattr(cli, handler)

            def stamped(*args, _fn=original, **kwargs):
                laps.append(clock.lap())
                return _fn(*args, **kwargs)

            undo += layers.rebind(original, stamped)
        stdout = io.StringIO()
        cwd = os.getcwd()
        os.chdir(out)  # relative apply outputs land in the pass directory
        crash = None
        try:
            with contextlib.redirect_stdout(stdout):
                clock.mark()
                try:
                    code = cli.main(["run", "--config", str(self.config_path),
                                     "--out", str(out)])
                except Exception as exc:  # judged below like a wrong exit code
                    code, crash = None, f"{type(exc).__name__}: {exc}"
                laps.append(clock.lap())
        finally:
            os.chdir(cwd)
            layers.restore(undo)
        result = Pass(clock.wall_s, clock.norm_s, dict(zip(self.task_keys, laps[1:])), [],
                      problems=[crash] if crash else [])
        self._check_outputs(out, code, stdout.getvalue(), result)
        return result

    def _check_outputs(self, out: Path, code: int, stdout: str, result: Pass) -> None:
        first = self.first_digests is None
        digests, result.report_bytes = tree_digests(out)
        task_files = {int(name.split("-")[1]): name for name in digests
                      if name.startswith("task-") and name.endswith(".json")}
        statuses = []
        for i, key in enumerate(self.task_keys):
            if i not in task_files:
                result.results.append((key, None, "no report written"))
                continue
            payload = json.loads((out / task_files[i]).read_text())
            statuses.append(payload["status"])
            fp = fingerprint({"status": payload["status"], "report": payload["report"]})
            error = None
            if key.startswith("apply ") and first:
                error = self._check_apply(out, key.split(" ", 1)[1], payload)
            result.results.append((key, fp, error))
        summary = json.loads(stdout) if stdout.strip() else {}
        want = expected_exit_code(statuses)
        if code != want or summary.get("exit_code") != code:
            result.problems.append(f"exit code {code} (stdout {summary.get('exit_code')}), "
                                   f"statuses imply {want}")
        if first:
            self.first_digests = digests
        elif digests != self.first_digests:
            changed = sorted(set(digests.items()) ^ set(self.first_digests.items()))
            names = sorted({name for name, _ in changed})
            result.problems.append(f"report tree differs from the first pass: {names[:5]}")
            for name in names:
                if name.startswith("task-"):
                    result.failed_keys.add(self.task_keys[int(name.split("-")[1])])
        for path in out.rglob("*"):
            if path.is_file():
                path.unlink()
        out.rmdir()

    def _check_apply(self, out: Path, name: str, payload: dict) -> str | None:
        lower, upper = APPLY_SYMBOLS[name]
        got = np.array((out / payload["report"]["output"]).read_text().split(),
                       dtype=np.float64)
        want = expected_apply(self.inputs[f"x-{name}.txt"], lower, upper)
        scale = max(1.0, float(np.max(np.abs(want))))
        if got.shape != want.shape or np.max(np.abs(got - want)) > 1e-9 * scale:
            return "applied vector differs from the recurrence reference"
        return None


WORKLOADS = {cls.name: cls for cls in (TamenessFamily, CrossValidationGrid, CliBatch)}


def judge(result: Pass, expected: dict) -> tuple[int, int, list[tuple[str, list[str]]]]:
    """(attempted, failed, [(decision key or 'pass', reasons)]) of one pass."""
    failed = len(result.problems)
    failures = [("pass", [problem]) for problem in result.problems]
    for key, fp, error in result.results:
        bad = [error] if error else mismatches(expected.get(key), fp)
        if key in result.failed_keys:
            bad.append("report bytes differ between passes")
        if bad:
            failed += 1
            failures.append((key, bad))
    return len(result.results), failed, failures


class Ledger:
    """Passes judged as they finish: counts and timings are kept, the
    fingerprints are dropped once compared."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.passes: list[Pass] = []
        self.attempted = self.failed = 0
        self.failures: list[tuple[str, list[str]]] = []

    def add(self, result: Pass) -> Pass:
        attempted, failed, failures = judge(result, self.expected)
        self.attempted += attempted
        self.failed += failed
        self.failures += failures
        result.results = []
        self.passes.append(result)
        return result
