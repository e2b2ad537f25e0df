"""Batch front-end: config-driven experiment runs with script-friendly exits.

Exit codes: 0 when every verdict holds and every cross-check agrees, 1 when
some verdict fails on its window, 2 when some verdict is inconclusive (and
nothing conflicts), 3 when a theorem/oracle conflict was detected, and >= 4
for usage or configuration problems, or any other error that escapes.
Identical config and seed produce byte-identical reports: keys are sorted,
floats go through repr, and no timestamps are written.  Reports are strict
JSON; non-finite floats are written as "NaN", "Infinity" or "-Infinity".
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import traceback
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .criteria import (
    COMPACTNESS,
    CONTINUITY,
    FamilySpec,
    OperatorTemplate,
    SMap,
    compactness_verdict,
    continuity_verdict,
    tame_condition_certify,
    tameness_check,
)
from .errors import ConfigurationError, KoetheError, json_field, json_object
from .operators import (
    NormKind,
    Symbol,
    ToeplitzOperator,
    Variant,
    apply_dense,
    apply_fast,
    membership_in_dual,
    membership_in_space,
)
from .oracle import CSV_HEADER, Agreement, cross_validate, ratio_curve
from .spaces import (
    SpaceDescriptor,
    nuclearity_verdict,
    stability_constant,
    window_cap,
    window_subadditivity,
)
from .verdicts import Outcome, Window

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_INCONCLUSIVE = 2
EXIT_CONFLICT = 3
EXIT_USAGE = 4

_STATUS_OK = "ok"
_STATUS_FAILS = "fails"
_STATUS_INCONCLUSIVE = "inconclusive"
_STATUS_CONFLICT = "conflict"

_OUTCOME_STATUS = {
    Outcome.HOLDS: _STATUS_OK,
    Outcome.FAILS_ON_WINDOW: _STATUS_FAILS,
    Outcome.INCONCLUSIVE: _STATUS_INCONCLUSIVE,
}


def exit_code_for(statuses: Sequence[str]) -> int:
    """Aggregate per-task statuses into the process exit code.

    Conflicts dominate, then inconclusive evidence, then definite window
    failures; only an all-clear run exits 0.
    """
    if _STATUS_CONFLICT in statuses:
        return EXIT_CONFLICT
    if _STATUS_INCONCLUSIVE in statuses:
        return EXIT_INCONCLUSIVE
    if _STATUS_FAILS in statuses:
        return EXIT_FAILS
    return EXIT_OK


def _jsonify(obj: Any) -> Any:
    """Plain JSON values, with non-finite floats spelled as fixed strings."""
    if isinstance(obj, Mapping):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return "NaN" if math.isnan(obj) else ("Infinity" if obj > 0 else "-Infinity")
    return obj


def _dumps(payload: Any) -> str:
    return json.dumps(_jsonify(payload), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def _load_json_arg(value: str) -> Any:
    """Inline JSON, or a path to a JSON file (also via an @ prefix)."""
    text = value
    candidate = value[1:] if value.startswith("@") else value
    try:
        is_file = Path(candidate).exists()
    except OSError:  # inline JSON can exceed filename limits
        is_file = False
    if value.startswith("@") or is_file:
        try:
            text = Path(candidate).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"cannot read {candidate!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"invalid JSON in {value!r}: {exc}") from exc


def read_vector(path: str | Path) -> np.ndarray:
    """Plain-text vector: one coefficient per line, index 1 first."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {str(path)!r}: {exc}") from exc
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            values.append(float(line))
        except ValueError as exc:
            raise ConfigurationError(
                f"{path}:{lineno}: not a coefficient: {line!r}"
            ) from exc
    return np.asarray(values, dtype=np.float64)


def _write_text(path: str | Path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {str(path)!r}: {exc}") from exc


def write_vector(path: str | Path, values: Sequence[float]) -> None:
    _write_text(path, "".join(f"{float(v)!r}\n" for v in values))


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class ExperimentConfig:
    spaces: dict[str, SpaceDescriptor]
    symbols: dict[str, Symbol]
    operators: dict[str, ToeplitzOperator]
    window: Window
    tasks: list[dict[str, Any]]
    out_dir: Path
    formats: tuple[str, ...]
    seed: int | None = None


def _decode(cls: Any, data: Any, path: str) -> Any:
    """``cls.from_json(data)``, its errors prefixed with the config path."""
    try:
        return cls.from_json(data)
    except KoetheError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def _resolve(ref: Any, path: str, table: Mapping[str, Any], cls: Any,
             what: str) -> Any:
    """The ``what`` named ``ref`` in ``table``, or ``ref`` decoded by ``cls``."""
    if isinstance(ref, str):
        if ref not in table:
            raise ConfigurationError(f"{path}: unknown {what} {ref!r}")
        return table[ref]
    if isinstance(ref, Mapping):
        return _decode(cls, ref, path)
    raise ConfigurationError(f"{path}: expected a name or object")


def _field(data: Mapping[str, Any], key: str, kind: str, path: str,
           default: Any = None) -> Any:
    """``data[key]`` of the JSON ``kind`` (see ``errors.json_field``), or
    ``default`` when the key is absent."""
    return json_field(data, key, kind, f"{path}.{key}") if key in data else default


def _seed(seed: int | None, what: str) -> int | None:
    """``seed`` (family sampling seed) when absent or >= 0, else a
    ConfigurationError naming ``what``."""
    if seed is not None and seed < 0:
        raise ConfigurationError(f"{what}: must be >= 0, got {seed}")
    return seed


def parse_config(data: Mapping[str, Any], base_dir: Path | None = None
                 ) -> ExperimentConfig:
    """Validate an experiment config, naming the offending path on error."""
    if not isinstance(data, Mapping):
        raise ConfigurationError("config root must be a JSON object")
    window = _decode(Window, data.get("window", {}), "window")

    spaces = {name: _decode(SpaceDescriptor, spec, f"spaces.{name}")
              for name, spec in json_object(data.get("spaces", {}), "spaces").items()}
    symbols = {name: _decode(Symbol, spec, f"symbols.{name}")
               for name, spec in json_object(data.get("symbols", {}), "symbols").items()}

    operators: dict[str, ToeplitzOperator] = {}
    for name, spec in json_object(data.get("operators", {}), "operators").items():
        path = f"operators.{name}"
        if not isinstance(spec, Mapping):
            raise ConfigurationError(f"{path}: expected an object")
        try:
            variant = Variant(spec["variant"])
        except (KeyError, ValueError) as exc:
            raise ConfigurationError(f"{path}.variant: {exc}") from exc
        domain, codomain = (
            _resolve(spec.get(key), f"{path}.{key}", spaces, SpaceDescriptor, "space")
            for key in ("domain", "codomain"))
        symbol = _resolve(spec.get("symbol"), f"{path}.symbol", symbols, Symbol,
                          "symbol")
        try:
            operators[name] = ToeplitzOperator(symbol, variant, domain, codomain)
        except KoetheError as exc:
            raise ConfigurationError(f"{path}: {exc}") from exc

    tasks = data.get("tasks")
    if not isinstance(tasks, list) or not tasks:
        raise ConfigurationError("tasks: must be a nonempty list")
    for i, task in enumerate(tasks):
        if not isinstance(task, Mapping) or "command" not in task:
            raise ConfigurationError(f"tasks[{i}]: needs a 'command' field")

    output = json_object(data.get("output", {}), "output")
    out_dir = Path(_field(output, "dir", "string", "output", "out"))
    if base_dir is not None and not out_dir.is_absolute():
        out_dir = base_dir / out_dir
    formats = tuple(_field(output, "formats", "strings", "output", ["json", "csv"]))
    bad = [f for f in formats if f not in ("json", "csv")]
    if bad:
        raise ConfigurationError(f"output.formats: unknown format {bad[0]!r}")

    seed = json_field(data, "seed", "integer", "seed") if "seed" in data else None
    return ExperimentConfig(
        spaces=spaces, symbols=symbols, operators=operators, window=window,
        tasks=[dict(t) for t in tasks], out_dir=out_dir, formats=formats,
        seed=_seed(seed, "seed"),
    )


# ---------------------------------------------------------------------------
# task execution
# ---------------------------------------------------------------------------


def _space(cfg: ExperimentConfig, task, path, key: str) -> SpaceDescriptor:
    return _resolve(task.get(key), f"{path}.{key}", cfg.spaces, SpaceDescriptor,
                    "space")


def _operator(cfg: ExperimentConfig, task, path) -> ToeplitzOperator:
    return _resolve(task.get("operator"), f"{path}.operator", cfg.operators,
                    ToeplitzOperator, "operator")


def _run_space_check(cfg: ExperimentConfig, task, path) -> tuple[str, dict]:
    space = _space(cfg, task, path, "space")
    checks = _field(task, "checks", "strings", path,
                    ["nuclearity", "stability", "subadditivity"])
    report: dict[str, Any] = {}
    statuses = []
    for check in checks:
        if check == "nuclearity":
            verdict = nuclearity_verdict(space, cfg.window)
            report["nuclearity"] = verdict.to_json()
            statuses.append(_OUTCOME_STATUS[verdict.outcome])
        elif check in ("stability", "subadditivity"):
            if not space.is_power_series:
                report[check] = {"applicable": False}
                continue
            alpha = space.alpha
            if check == "stability":
                n_cap = window_cap(alpha, cfg.window)
                report[check] = {"applicable": True,
                                 "sup_ratio": stability_constant(alpha, n_cap),
                                 "n_max": n_cap}
            else:
                sub = window_subadditivity(alpha, cfg.window)
                report[check] = {"applicable": True, **sub.to_json()}
                statuses.append(_STATUS_OK if sub.holds else _STATUS_FAILS)
        else:
            raise ConfigurationError(f"{path}.checks: unknown check {check!r}")
    return _worst_status(statuses), report


_SEVERITY_ORDER = [_STATUS_CONFLICT, _STATUS_FAILS, _STATUS_INCONCLUSIVE, _STATUS_OK]


def _worst_status(statuses: Sequence[str]) -> str:
    return min(statuses, key=_SEVERITY_ORDER.index, default=_STATUS_OK)


def _run_membership(cfg: ExperimentConfig, task, path) -> tuple[str, dict]:
    symbol = _resolve(task.get("symbol"), f"{path}.symbol", cfg.symbols, Symbol,
                      "symbol")
    part = task.get("part", "lower")
    if part not in ("lower", "upper"):
        raise ConfigurationError(f"{path}.part: expected 'lower' or 'upper'")
    spec = symbol.lower if part == "lower" else symbol.upper
    if spec is None:
        raise ConfigurationError(f"{path}.part: symbol has no {part} part")
    space = _space(cfg, task, path, "space")
    target = task.get("target", "space")
    if target == "space":
        verdict = membership_in_space(spec, space, cfg.window)
    elif target == "dual":
        verdict = membership_in_dual(spec, space, cfg.window)
    else:
        raise ConfigurationError(f"{path}.target: expected 'space' or 'dual'")
    return _OUTCOME_STATUS[verdict.outcome], {
        "part": part, "target": target, "verdict": verdict.to_json(),
    }


def _run_certify(cfg: ExperimentConfig, task, path) -> tuple[str, dict]:
    op = _operator(cfg, task, path)
    prop = task["command"].removeprefix("certify-")
    report = (continuity_verdict if prop == CONTINUITY
              else compactness_verdict)(op, cfg.window)
    return _OUTCOME_STATUS[report.outcome], report.to_json()


def _gradings(task, key: str, default: list[int], path: str) -> list[int]:
    """A grading index or an array of them at ``task[key]``, as a list."""
    value = task.get(key, default)
    values = list(json_field({key: [value] if isinstance(value, int) else value},
                             key, "integers", f"{path}.{key}"))
    if min(values, default=1) < 1:
        raise ConfigurationError(
            f"{path}.{key}: grading index must be >= 1, got {min(values)}")
    return values


def _run_probe(cfg: ExperimentConfig, task, path) -> tuple[str, dict, list[str]]:
    op = _operator(cfg, task, path)
    ks = _gradings(task, "k", list(range(1, cfg.window.k_max + 1)), path)
    ms = _gradings(task, "m", [1], path)
    norm = task.get("norm")
    try:
        kind = NormKind(norm) if norm else None
    except ValueError:
        raise ConfigurationError(
            f"{path}.norm: expected 'sum' or 'sup', got {norm!r}") from None
    curves = [ratio_curve(op, k, m, norm_kind=kind, window=cfg.window)
              for k in ks for m in ms]
    rows = [CSV_HEADER]
    for curve in curves:
        rows.extend(curve.to_csv_rows())
    return _STATUS_OK, {"curves": [c.to_json() for c in curves]}, rows


def _run_apply(cfg: ExperimentConfig, task, path) -> tuple[str, dict]:
    op = _operator(cfg, task, path)
    source = _field(task, "input", "string", path)
    if not source:
        raise ConfigurationError(f"{path}.input: vector file required")
    n = _field(task, "n", "integer", path)
    if n is not None and n < 1:
        raise ConfigurationError(f"{path}.n: must be >= 1, got {n}")
    x = read_vector(source)
    if not len(x):
        raise ConfigurationError(f"{path}.input: no coefficients in {source!r}")
    n = len(x) if n is None else n
    method = task.get("method", "fast")
    if method == "fast":
        y = apply_fast(op, x, n)
    elif method == "dense":
        y = apply_dense(op, x, n)
    else:
        raise ConfigurationError(f"{path}.method: expected 'fast' or 'dense'")
    overflow = bool(~np.isfinite(y).all())
    out_file = task.get("output")
    if out_file:
        write_vector(json_field(task, "output", "string", f"{path}.output"), y)
    return _STATUS_OK, {
        "method": method, "n": int(n), "overflow": overflow,
        "output": out_file, "values": None if out_file else [float(v) for v in y],
    }


def _run_tame(cfg: ExperimentConfig, task, path) -> tuple[str, dict]:
    try:
        variant = Variant(task.get("variant", "lower"))
    except ValueError as exc:
        raise ConfigurationError(f"{path}.variant: {exc}") from exc
    domain = _space(cfg, task, path, "domain")
    codomain = _space(cfg, task, path, "codomain")
    family_data = task.get("family", {})
    if cfg.seed is not None and isinstance(family_data, Mapping):
        family_data = {**family_data, "seed": cfg.seed}
    family = _decode(FamilySpec, family_data, f"{path}.family")
    s_map = _decode(SMap, task.get("s_map", {"form": "identity"}), f"{path}.s_map")
    report = tameness_check(family, s_map,
                            OperatorTemplate(variant, domain, codomain),
                            cfg.window)
    return _OUTCOME_STATUS[report.outcome], report.to_json()


def _run_tame_condition(cfg: ExperimentConfig, task, path) -> tuple[str, dict]:
    domain = _space(cfg, task, path, "domain")
    codomain = _space(cfg, task, path, "codomain")
    try:
        direction = Variant(task.get("direction", "lower"))
    except ValueError as exc:
        raise ConfigurationError(f"{path}.direction: {exc}") from exc
    s_map = _decode(SMap, task.get("s_map", {"form": "identity"}), f"{path}.s_map")
    report = tame_condition_certify(s_map, domain, codomain, direction,
                                    cfg.window)
    return _OUTCOME_STATUS[report.verdict.outcome], report.to_json()


def _run_cross_validate(cfg: ExperimentConfig, task, path) -> tuple[str, dict]:
    op = _operator(cfg, task, path)
    prop = task.get("property", COMPACTNESS)
    if prop not in (CONTINUITY, COMPACTNESS):
        raise ConfigurationError(
            f"{path}.property: expected {CONTINUITY!r} or {COMPACTNESS!r}, "
            f"got {prop!r}")
    report = cross_validate(op, cfg.window, prop)
    if report.agreement is Agreement.AGREE:
        status = _STATUS_OK
    elif report.agreement is Agreement.CONFLICT:
        status = _STATUS_CONFLICT
    else:
        status = _STATUS_INCONCLUSIVE
    return status, report.to_json()


def _run_task(cfg: ExperimentConfig, task: Mapping[str, Any], path: str
              ) -> tuple[str, dict, list[str] | None]:
    """Run one task: (status, report, CSV rows or None).

    The one dispatch on a task's command.  Each handler is looked up as a
    module global on every call, so rebinding ``cli._run_*`` (tracing,
    tests) reaches every task, whether it came from a config or from argv.
    """
    match task["command"]:
        case "probe":
            return _run_probe(cfg, task, path)
        case "space-check":
            handler = _run_space_check
        case "membership":
            handler = _run_membership
        case "certify-continuity" | "certify-compactness":
            handler = _run_certify
        case "apply":
            handler = _run_apply
        case "tame":
            handler = _run_tame
        case "tame-condition":
            handler = _run_tame_condition
        case "cross-validate":
            handler = _run_cross_validate
        case command:
            raise ConfigurationError(f"{path}.command: unknown command {command!r}")
    return (*handler(cfg, task, path), None)


def _csv_text(rows: Sequence[str]) -> str:
    return "\n".join(rows) + "\n"


def run_tasks(cfg: ExperimentConfig) -> dict[str, Any]:
    """Execute tasks in order, writing per-task reports; returns the run
    summary (exit code and per-task statuses)."""
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {str(cfg.out_dir)!r}: {exc}") from exc
    entries = []
    for i, task in enumerate(cfg.tasks):
        status, report, csv_rows = _run_task(cfg, task, f"tasks[{i}]")
        entry = {"task": i, "command": task["command"], "status": status}
        name = f"task-{i:02d}-{task['command']}"
        if "json" in cfg.formats:
            _write_text(cfg.out_dir / f"{name}.json",
                        _dumps({**entry, "report": report}))
        if csv_rows is not None and "csv" in cfg.formats:
            _write_text(cfg.out_dir / f"{name}.csv", _csv_text(csv_rows))
        entries.append(entry)
    summary = {"exit_code": exit_code_for([e["status"] for e in entries]),
               "tasks": entries}
    if "json" in cfg.formats:
        _write_text(cfg.out_dir / "summary.json", _dumps(summary))
    return summary


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _window_from_args(args: argparse.Namespace, base: Window | None = None
                      ) -> Window:
    win = base or Window()
    if getattr(args, "n_max", None):
        win = win.with_n_max(args.n_max)
    replacements = {}
    if getattr(args, "k_max", None):
        replacements["k_max"] = args.k_max
    if getattr(args, "m_max", None):
        replacements["m_max"] = args.m_max
    if replacements:
        win = dataclasses.replace(win, **replacements)
    return win


def _add_window_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-max", type=int, default=None)
    parser.add_argument("--k-max", type=int, default=None)
    parser.add_argument("--m-max", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)


def _task_parser(sub, name: str, task: str, label: str,
                 **kwargs: Any) -> argparse.ArgumentParser:
    """A direct subcommand that runs one ``task`` command; ``label`` prefixes
    its error messages where a config run names ``tasks[i]``."""
    parser = sub.add_parser(name, **kwargs)
    parser.set_defaults(task=task, label=label)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koethe",
        description="Certificates and oracles for Toeplitz operators "
                    "between graded sequence spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="Execute an experiment config")
    run_cmd.add_argument("--config", required=True)
    run_cmd.add_argument("--out", default=None)
    run_cmd.add_argument("--format", choices=["json", "csv", "both"], default=None)
    _add_window_flags(run_cmd)

    spaces_cmd = sub.add_parser("spaces", help="Space-level checks")
    spaces_sub = spaces_cmd.add_subparsers(dest="subcommand", required=True)
    check_cmd = _task_parser(spaces_sub, "check", "space-check", "spaces-check")
    check_cmd.add_argument("--space", required=True)
    check_cmd.add_argument("--checks", nargs="+",
                           default=["nuclearity", "stability", "subadditivity"])
    _add_window_flags(check_cmd)

    symbol_cmd = sub.add_parser("symbol", help="Symbol-level checks")
    symbol_sub = symbol_cmd.add_subparsers(dest="subcommand", required=True)
    memb_cmd = _task_parser(symbol_sub, "membership", "membership", "membership")
    memb_cmd.add_argument("--symbol", required=True)
    memb_cmd.add_argument("--part", choices=["lower", "upper"], default="lower")
    memb_cmd.add_argument("--space", required=True)
    memb_cmd.add_argument("--target", choices=["space", "dual"], default="space")
    _add_window_flags(memb_cmd)

    op_cmd = sub.add_parser("operator", help="Operator-level checks")
    op_sub = op_cmd.add_subparsers(dest="subcommand", required=True)
    # --property picks the task command: certify-continuity or certify-compactness
    cert_cmd = _task_parser(op_sub, "certify", "certify-{property}", "certify")
    cert_cmd.add_argument("--operator", required=True)
    cert_cmd.add_argument("--property", choices=[CONTINUITY, COMPACTNESS],
                          required=True)
    _add_window_flags(cert_cmd)
    probe_cmd = _task_parser(op_sub, "probe", "probe", "probe")
    probe_cmd.add_argument("--operator", required=True)
    probe_cmd.add_argument("--k", type=int, nargs="+", default=None)
    probe_cmd.add_argument("--m", type=int, nargs="+", default=[1])
    probe_cmd.add_argument("--norm", choices=["sum", "sup"], default=None)
    probe_cmd.add_argument("--out", default=None, help="CSV destination")
    _add_window_flags(probe_cmd)
    apply_cmd = _task_parser(op_sub, "apply", "apply", "apply")
    apply_cmd.add_argument("--operator", required=True)
    apply_cmd.add_argument("--input", required=True)
    apply_cmd.add_argument("--method", choices=["fast", "dense"], default="fast")
    apply_cmd.add_argument("--n", type=int, default=None)
    apply_cmd.add_argument("--out", dest="output", metavar="OUT", default=None)
    _add_window_flags(apply_cmd)

    family_cmd = sub.add_parser("family", help="Operator-family checks")
    family_sub = family_cmd.add_subparsers(dest="subcommand", required=True)
    tame_cmd = _task_parser(family_sub, "tame", "tame", "tame")
    tame_cmd.add_argument("--variant", choices=["lower", "upper", "full"],
                          default="lower")
    tame_cmd.add_argument("--domain", required=True)
    tame_cmd.add_argument("--codomain", required=True)
    tame_cmd.add_argument("--family", default="{}")
    tame_cmd.add_argument("--s-map", default='{"form":"identity"}')
    _add_window_flags(tame_cmd)

    cross_cmd = _task_parser(sub, "cross-validate", "cross-validate",
                             "cross-validate", help="Theorem route versus raw oracle")
    cross_cmd.add_argument("--operator", required=True)
    cross_cmd.add_argument("--property", choices=[CONTINUITY, COMPACTNESS],
                           default=COMPACTNESS)
    _add_window_flags(cross_cmd)

    return parser


#: namespace fields of a direct subcommand that are not fields of its task
_NOT_TASK_FIELDS = {"command", "subcommand", "task", "label", "out",
                    "n_max", "k_max", "m_max", "seed"}
#: task fields given as inline JSON or a JSON file
_JSON_FIELDS = {"space", "symbol", "operator", "domain", "codomain", "family",
                "s_map"}


def _task_from_args(args: argparse.Namespace) -> dict[str, Any]:
    """The ``koethe run`` task that a direct subcommand stands for."""
    task = {key: _load_json_arg(value) if key in _JSON_FIELDS else value
            for key, value in vars(args).items()
            if value is not None and key not in _NOT_TASK_FIELDS}
    task["command"] = args.task.format(**task)
    return task


def _emit(payload: Any) -> None:
    sys.stdout.write(_dumps(payload))


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors
        return 0 if exc.code == 0 else EXIT_USAGE

    try:
        _seed(args.seed, "--seed")
        if args.command == "run":
            data = _load_json_arg(args.config)
            base = Path(args.config).parent if Path(args.config).exists() else None
            cfg = parse_config(data, base_dir=base)
            cfg.window = _window_from_args(args, cfg.window)
            if args.seed is not None:
                cfg.seed = args.seed
            if args.out:
                cfg.out_dir = Path(args.out)
            if args.format:
                cfg.formats = (("json", "csv") if args.format == "both"
                               else (args.format,))
            summary = run_tasks(cfg)
            _emit(summary)
            return summary["exit_code"]

        # a direct subcommand: one task, no files written but its own outputs
        cfg = ExperimentConfig(spaces={}, symbols={}, operators={},
                               window=_window_from_args(args), tasks=[],
                               out_dir=Path("."), formats=(), seed=args.seed)
        status, report, rows = _run_task(cfg, _task_from_args(args), args.label)
        if rows is None:
            _emit({"status": status, "report": report})
        elif args.out:
            _write_text(args.out, _csv_text(rows))
            _emit({"status": status, "csv": args.out})
        else:
            sys.stdout.write(_csv_text(rows))
        return exit_code_for([status])
    except KoetheError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # no input may exit with a verdict code (0-3)
        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
