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
from collections.abc import Mapping, Sequence
from pathlib import Path
from typing import Any

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
    window_subadditivity,
)
from .verdicts import Outcome, Window, conjoin

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
    lines = [line.strip() for line in text.splitlines()]
    try:
        return np.asarray(list(map(float, filter(None, lines))), dtype=np.float64)
    except ValueError:
        for lineno, line in enumerate(lines, start=1):  # name the bad line
            try:
                float(line or "0")  # blank lines are skipped
            except ValueError as exc:
                raise ConfigurationError(
                    f"{path}:{lineno}: not a coefficient: {line!r}") from exc
        raise


def _write_text(path: str | Path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {str(path)!r}: {exc}") from exc


def write_vector(path: str | Path, values: Sequence[float]) -> None:
    _write_text(path, "".join(
        [f"{v!r}\n" for v in np.asarray(values, dtype=np.float64).tolist()]))


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


def _field(data: Mapping[str, Any], key: str, kind: Any, path: str,
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
        variant = json_field(spec, "variant", Variant, f"{path}.variant")
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


#: the values of a task's part, target, method and property, checked by its handler
_PARTS = ("lower", "upper")
_TARGETS = ("space", "dual")
_METHODS = ("fast", "dense")
_PROPERTIES = (CONTINUITY, COMPACTNESS)


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
    outcomes = [Outcome.HOLDS]
    for check in checks:
        if check == "nuclearity":
            verdict = nuclearity_verdict(space, cfg.window)
            report["nuclearity"] = verdict.to_json()
            outcomes.append(verdict.outcome)
        elif check in ("stability", "subadditivity"):
            if not space.is_power_series:
                report[check] = {"applicable": False}
                continue
            if check == "stability":
                n_cap = cfg.window.clip(space)[2]
                report[check] = {"applicable": True,
                                 "sup_ratio": stability_constant(space.alpha, n_cap),
                                 "n_max": n_cap}
            else:
                sub = window_subadditivity(space, cfg.window)
                report[check] = {"applicable": True, **sub.to_json()}
                outcomes.append(Outcome.HOLDS if sub.holds else Outcome.FAILS_ON_WINDOW)
        else:
            raise ConfigurationError(f"{path}.checks: unknown check {check!r}")
    return _OUTCOME_STATUS[conjoin(*outcomes)], report


def _run_membership(cfg: ExperimentConfig, task, path) -> tuple[str, dict]:
    symbol = _resolve(task.get("symbol"), f"{path}.symbol", cfg.symbols, Symbol,
                      "symbol")
    part = _field(task, "part", _PARTS, path, "lower")
    spec = symbol.lower if part == "lower" else symbol.upper
    if spec is None:
        raise ConfigurationError(f"{path}.part: symbol has no {part} part")
    space = _space(cfg, task, path, "space")
    target = _field(task, "target", _TARGETS, path, "space")
    verdict = (membership_in_space if target == "space"
               else membership_in_dual)(spec, space, cfg.window)
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
    k_max = cfg.window.clip(op.codomain, op.domain)[0]
    ks = _gradings(task, "k", list(range(1, k_max + 1)), path)
    ms = _gradings(task, "m", [1], path)
    # a null or empty norm leaves the route's default, as an absent one does
    kind = _field(task, "norm", NormKind, path) if task.get("norm") else None
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
    method = _field(task, "method", _METHODS, path, "fast")
    if method == "dense" and n > cfg.window.dense_cap:
        # the dense path holds n-by-n matrices
        raise ConfigurationError(
            f"{path}.method: dense apply at n={n} exceeds window.dense_cap="
            f"{cfg.window.dense_cap}")
    y = (apply_fast if method == "fast" else apply_dense)(op, x, n)
    overflow = bool(~np.isfinite(y).all())
    out_file = task.get("output")
    if out_file:
        write_vector(json_field(task, "output", "string", f"{path}.output"), y)
    return _STATUS_OK, {
        "method": method, "n": int(n), "overflow": overflow,
        "output": out_file, "values": None if out_file else [float(v) for v in y],
    }


def _run_tame(cfg: ExperimentConfig, task, path) -> tuple[str, dict]:
    variant = _field(task, "variant", Variant, path, Variant.LOWER)
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
    direction = _field(task, "direction", Variant, path, Variant.LOWER)
    s_map = _decode(SMap, task.get("s_map", {"form": "identity"}), f"{path}.s_map")
    report = tame_condition_certify(s_map, domain, codomain, direction,
                                    cfg.window)
    return _OUTCOME_STATUS[report.verdict.outcome], report.to_json()


def _run_cross_validate(cfg: ExperimentConfig, task, path) -> tuple[str, dict]:
    op = _operator(cfg, task, path)
    prop = _field(task, "property", _PROPERTIES, path, COMPACTNESS)
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


def _window_from_args(args: argparse.Namespace, base: Window) -> Window:
    caps = {key: value for key in ("k_max", "m_max")
            if (value := getattr(args, key)) is not None}
    win = base if args.n_max is None else base.with_n_max(args.n_max)
    return dataclasses.replace(win, **caps) if caps else win


class _JsonArg(str):
    """A flag value that is inline JSON or a JSON file, loaded into its task."""


_INT = {"type": int}
_INTS = {"type": int, "nargs": "+"}
_OBJECT = {"type": _JsonArg, "required": True}
_WINDOW_FLAGS = {"--n-max": _INT, "--k-max": _INT, "--m-max": _INT}

#: every direct subcommand, as README's table lists them: the task command it
#: runs (``{field}`` filled from the flags), the flags of the task's fields and
#: its other flags, each with its argparse options (never a default) or the
#: values its task's handler checks it against, which --help lists.
SUBCOMMANDS = {
    "spaces check": ("space-check", {"--space": _OBJECT, "--checks": {"nargs": "+"}}, {}),
    "symbol membership": ("membership", {"--symbol": _OBJECT, "--part": _PARTS,
                                         "--space": _OBJECT, "--target": _TARGETS}, {}),
    # --property names the task command: certify-continuity or certify-compactness
    "operator certify": ("certify-{property}", {
        "--operator": _OBJECT, "--property": {"choices": _PROPERTIES, "required": True}},
        {}),
    "operator probe": ("probe", {
        "--operator": _OBJECT, "--k": _INTS, "--m": _INTS, "--norm": NormKind},
        {"--out": {"help": "CSV destination"}}),
    "operator apply": ("apply", {
        "--operator": _OBJECT, "--input": {"required": True}, "--method": _METHODS,
        "--n": _INT, "--out": {"dest": "output", "metavar": "OUT"}}, {}),
    "family tame": ("tame", {
        "--variant": Variant, "--domain": _OBJECT, "--codomain": _OBJECT,
        "--family": {"type": _JsonArg}, "--s-map": {"type": _JsonArg}},
        {"--seed": _INT}),  # only a tame task reads the seed
    "cross-validate": ("cross-validate",
                       {"--operator": _OBJECT, "--property": _PROPERTIES}, {}),
}
#: help of the top-level subcommands other than run
_HELP = {"spaces": "Space-level checks", "symbol": "Symbol-level checks",
         "operator": "Operator-level checks", "family": "Operator-family checks",
         "cross-validate": "Theorem route versus raw oracle"}
_FORMATS = {"json": ("json",), "csv": ("csv",), "both": ("json", "csv")}


def _add_flags(parser: argparse.ArgumentParser, flags: Mapping[str, Any]) -> list[str]:
    """Add ``flags`` to ``parser``; the names of the attributes they set."""
    dests = []
    for flag, options in flags.items():
        if not isinstance(options, dict):  # the handler's values, listed by --help
            options = {"metavar": "{%s}" % ",".join(options)}
        dests.append(parser.add_argument(flag, **options).dest)
    return dests


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koethe",
        description="Certificates and oracles for Toeplitz operators "
                    "between graded sequence spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_cmd = sub.add_parser("run", help="Execute an experiment config")
    _add_flags(run_cmd, {"--config": {"required": True}, "--out": {},
                         "--format": {"choices": _FORMATS}, **_WINDOW_FLAGS,
                         "--seed": _INT})
    groups = {"": sub}
    for path, (command, fields, options) in SUBCOMMANDS.items():
        group, _, name = path.rpartition(" ")
        if group not in groups:
            groups[group] = sub.add_parser(group, help=_HELP[group]).add_subparsers(
                dest="subcommand", required=True)
        leaf = groups[group].add_parser(name, help=_HELP.get(path))
        leaf.set_defaults(task=command, fields=_add_flags(leaf, fields))
        _add_flags(leaf, {**options, **_WINDOW_FLAGS})
    return parser


def _task_from_args(args: argparse.Namespace) -> dict[str, Any]:
    """The ``koethe run`` task that a direct subcommand stands for."""
    task = {dest: _load_json_arg(value) if isinstance(value, _JsonArg) else value
            for dest in args.fields if (value := getattr(args, dest)) is not None}
    return {**task, "command": args.task.format(**task)}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors
        return 0 if exc.code == 0 else EXIT_USAGE

    try:
        seed = _seed(getattr(args, "seed", None), "--seed")
        if args.command == "run":
            data = _load_json_arg(args.config)
            base = Path(args.config).parent if Path(args.config).exists() else None
            cfg = parse_config(data, base_dir=base)
            cfg.window = _window_from_args(args, cfg.window)
            if seed is not None:
                cfg.seed = seed
            if args.out:
                cfg.out_dir = Path(args.out)
            if args.format:
                cfg.formats = _FORMATS[args.format]
            summary = run_tasks(cfg)
            sys.stdout.write(_dumps(summary))
            return summary["exit_code"]

        # a direct subcommand: one task, no files written but its own outputs;
        # its errors name the task command where a config run names tasks[i]
        cfg = ExperimentConfig(spaces={}, symbols={}, operators={},
                               window=_window_from_args(args, Window()), tasks=[],
                               out_dir=Path("."), formats=(), seed=seed)
        task = _task_from_args(args)
        status, report, rows = _run_task(cfg, task, task["command"])
        if rows is None:
            sys.stdout.write(_dumps({"status": status, "report": report}))
        elif args.out:
            _write_text(args.out, _csv_text(rows))
            sys.stdout.write(_dumps({"status": status, "csv": args.out}))
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
