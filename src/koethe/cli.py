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
from .errors import ConfigurationError, KoetheError
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
        except OSError as exc:
            raise ConfigurationError(f"cannot read {candidate!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"invalid JSON in {value!r}: {exc}") from exc


def read_vector(path: str | Path) -> np.ndarray:
    """Plain-text vector: one coefficient per line, index 1 first."""
    values = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
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


def write_vector(path: str | Path, values: Sequence[float]) -> None:
    Path(path).write_text("".join(f"{float(v)!r}\n" for v in values))


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


def _resolve_space(ref: Any, path: str,
                   spaces: Mapping[str, SpaceDescriptor]) -> SpaceDescriptor:
    if isinstance(ref, str):
        if ref not in spaces:
            raise ConfigurationError(f"{path}: unknown space {ref!r}")
        return spaces[ref]
    if isinstance(ref, Mapping):
        return _decode(SpaceDescriptor, ref, path)
    raise ConfigurationError(f"{path}: expected a space name or object")


def _resolve_symbol(ref: Any, path: str,
                    symbols: Mapping[str, Symbol]) -> Symbol:
    if isinstance(ref, str):
        if ref not in symbols:
            raise ConfigurationError(f"{path}: unknown symbol {ref!r}")
        return symbols[ref]
    if isinstance(ref, Mapping):
        return _decode(Symbol, ref, path)
    raise ConfigurationError(f"{path}: expected a symbol name or object")


def parse_config(data: Mapping[str, Any], base_dir: Path | None = None
                 ) -> ExperimentConfig:
    """Validate an experiment config, naming the offending path on error."""
    if not isinstance(data, Mapping):
        raise ConfigurationError("config root must be a JSON object")
    window = _decode(Window, data.get("window", {}), "window")

    spaces = {name: _decode(SpaceDescriptor, spec, f"spaces.{name}")
              for name, spec in dict(data.get("spaces", {})).items()}
    symbols = {name: _decode(Symbol, spec, f"symbols.{name}")
               for name, spec in dict(data.get("symbols", {})).items()}

    operators: dict[str, ToeplitzOperator] = {}
    for name, spec in dict(data.get("operators", {})).items():
        path = f"operators.{name}"
        if not isinstance(spec, Mapping):
            raise ConfigurationError(f"{path}: expected an object")
        try:
            variant = Variant(spec["variant"])
        except (KeyError, ValueError) as exc:
            raise ConfigurationError(f"{path}.variant: {exc}") from exc
        domain = _resolve_space(spec.get("domain"), f"{path}.domain", spaces)
        codomain = _resolve_space(spec.get("codomain"), f"{path}.codomain",
                                  spaces)
        symbol = _resolve_symbol(spec.get("symbol"), f"{path}.symbol", symbols)
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

    output = dict(data.get("output", {}))
    out_dir = Path(output.get("dir", "out"))
    if base_dir is not None and not out_dir.is_absolute():
        out_dir = base_dir / out_dir
    formats = tuple(output.get("formats", ["json", "csv"]))
    bad = [f for f in formats if f not in ("json", "csv")]
    if bad:
        raise ConfigurationError(f"output.formats: unknown format {bad[0]!r}")

    return ExperimentConfig(
        spaces=spaces, symbols=symbols, operators=operators, window=window,
        tasks=[dict(t) for t in tasks], out_dir=out_dir, formats=formats,
        seed=data.get("seed"),
    )


# ---------------------------------------------------------------------------
# task execution
# ---------------------------------------------------------------------------


def _get_operator(cfg: ExperimentConfig, task: Mapping[str, Any], path: str
                  ) -> ToeplitzOperator:
    ref = task.get("operator")
    if isinstance(ref, str):
        if ref not in cfg.operators:
            raise ConfigurationError(f"{path}.operator: unknown operator {ref!r}")
        return cfg.operators[ref]
    if isinstance(ref, Mapping):
        return _decode(ToeplitzOperator, ref, f"{path}.operator")
    raise ConfigurationError(f"{path}.operator: expected a name or object")


def _verdict_status(outcome: Outcome) -> str:
    return _OUTCOME_STATUS[outcome]


def _run_space_check(cfg: ExperimentConfig, task, path) -> tuple[str, dict]:
    space = _resolve_space(task.get("space"), f"{path}.space", cfg.spaces)
    checks = task.get("checks", ["nuclearity", "stability", "subadditivity"])
    report: dict[str, Any] = {}
    statuses = []
    for check in checks:
        if check == "nuclearity":
            verdict = nuclearity_verdict(space, cfg.window)
            report["nuclearity"] = verdict.to_json()
            statuses.append(_verdict_status(verdict.outcome))
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
    if not statuses:
        return _STATUS_OK
    return sorted(statuses, key=_SEVERITY_ORDER.index)[0]


def _run_membership(cfg: ExperimentConfig, task, path) -> tuple[str, dict]:
    symbol = _resolve_symbol(task.get("symbol"), f"{path}.symbol", cfg.symbols)
    part = task.get("part", "lower")
    if part not in ("lower", "upper"):
        raise ConfigurationError(f"{path}.part: expected 'lower' or 'upper'")
    spec = symbol.lower if part == "lower" else symbol.upper
    if spec is None:
        raise ConfigurationError(f"{path}.part: symbol has no {part} part")
    space = _resolve_space(task.get("space"), f"{path}.space", cfg.spaces)
    target = task.get("target", "space")
    if target == "space":
        verdict = membership_in_space(spec, space, cfg.window)
    elif target == "dual":
        verdict = membership_in_dual(spec, space, cfg.window)
    else:
        raise ConfigurationError(f"{path}.target: expected 'space' or 'dual'")
    return _verdict_status(verdict.outcome), {
        "part": part, "target": target, "verdict": verdict.to_json(),
    }


def _run_certify(cfg: ExperimentConfig, task, path, prop: str) -> tuple[str, dict]:
    op = _get_operator(cfg, task, path)
    report = (continuity_verdict if prop == CONTINUITY
              else compactness_verdict)(op, cfg.window)
    return _verdict_status(report.outcome), report.to_json()


def _run_probe(cfg: ExperimentConfig, task, path) -> tuple[str, dict, list[str]]:
    op = _get_operator(cfg, task, path)
    ks = task.get("k", list(range(1, cfg.window.k_max + 1)))
    ms = task.get("m", [1])
    ks = [ks] if isinstance(ks, int) else list(ks)
    ms = [ms] if isinstance(ms, int) else list(ms)
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
    op = _get_operator(cfg, task, path)
    source = task.get("input")
    if not source:
        raise ConfigurationError(f"{path}.input: vector file required")
    x = read_vector(source)
    n = task.get("n", len(x))
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
        write_vector(out_file, y)
    return _STATUS_OK, {
        "method": method, "n": int(n), "overflow": overflow,
        "output": out_file, "values": None if out_file else [float(v) for v in y],
    }


def _run_tame(cfg: ExperimentConfig, task, path) -> tuple[str, dict]:
    try:
        variant = Variant(task.get("variant", "lower"))
    except ValueError as exc:
        raise ConfigurationError(f"{path}.variant: {exc}") from exc
    domain = _resolve_space(task.get("domain"), f"{path}.domain", cfg.spaces)
    codomain = _resolve_space(task.get("codomain"), f"{path}.codomain",
                              cfg.spaces)
    family_data = task.get("family", {})
    if cfg.seed is not None and isinstance(family_data, Mapping):
        family_data = {**family_data, "seed": cfg.seed}
    family = _decode(FamilySpec, family_data, f"{path}.family")
    s_map = _decode(SMap, task.get("s_map", {"form": "identity"}), f"{path}.s_map")
    report = tameness_check(family, s_map,
                            OperatorTemplate(variant, domain, codomain),
                            cfg.window)
    return _verdict_status(report.outcome), report.to_json()


def _run_tame_condition(cfg: ExperimentConfig, task, path) -> tuple[str, dict]:
    domain = _resolve_space(task.get("domain"), f"{path}.domain", cfg.spaces)
    codomain = _resolve_space(task.get("codomain"), f"{path}.codomain",
                              cfg.spaces)
    try:
        direction = Variant(task.get("direction", "lower"))
    except ValueError as exc:
        raise ConfigurationError(f"{path}.direction: {exc}") from exc
    s_map = _decode(SMap, task.get("s_map", {"form": "identity"}), f"{path}.s_map")
    report = tame_condition_certify(s_map, domain, codomain, direction,
                                    cfg.window)
    return _verdict_status(report.verdict.outcome), report.to_json()


def _run_cross_validate(cfg: ExperimentConfig, task, path) -> tuple[str, dict]:
    op = _get_operator(cfg, task, path)
    prop = task.get("property", COMPACTNESS)
    report = cross_validate(op, cfg.window, prop)
    if report.agreement is Agreement.AGREE:
        status = _STATUS_OK
    elif report.agreement is Agreement.CONFLICT:
        status = _STATUS_CONFLICT
    else:
        status = _STATUS_INCONCLUSIVE
    return status, report.to_json()


def run_tasks(cfg: ExperimentConfig) -> tuple[int, list[dict[str, Any]]]:
    """Execute tasks in order; returns (exit code, per-task summaries)."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    results = []
    statuses = []
    for i, task in enumerate(cfg.tasks):
        path = f"tasks[{i}]"
        command = task["command"]
        csv_rows: list[str] | None = None
        if command == "space-check":
            status, report = _run_space_check(cfg, task, path)
        elif command == "membership":
            status, report = _run_membership(cfg, task, path)
        elif command == "certify-continuity":
            status, report = _run_certify(cfg, task, path, CONTINUITY)
        elif command == "certify-compactness":
            status, report = _run_certify(cfg, task, path, COMPACTNESS)
        elif command == "probe":
            status, report, csv_rows = _run_probe(cfg, task, path)
        elif command == "apply":
            status, report = _run_apply(cfg, task, path)
        elif command == "tame":
            status, report = _run_tame(cfg, task, path)
        elif command == "tame-condition":
            status, report = _run_tame_condition(cfg, task, path)
        elif command == "cross-validate":
            status, report = _run_cross_validate(cfg, task, path)
        else:
            raise ConfigurationError(f"{path}.command: unknown command {command!r}")
        payload = {"task": i, "command": command, "status": status,
                   "report": report}
        if "json" in cfg.formats:
            name = f"task-{i:02d}-{command}.json"
            (cfg.out_dir / name).write_text(_dumps(payload))
        if csv_rows is not None and "csv" in cfg.formats:
            name = f"task-{i:02d}-{command}.csv"
            (cfg.out_dir / name).write_text("\n".join(csv_rows) + "\n")
        results.append(payload)
        statuses.append(status)
    code = exit_code_for(statuses)
    summary = {"exit_code": code,
               "tasks": [{"task": r["task"], "command": r["command"],
                          "status": r["status"]} for r in results]}
    if "json" in cfg.formats:
        (cfg.out_dir / "summary.json").write_text(_dumps(summary))
    return code, results


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
    check_cmd = spaces_sub.add_parser("check")
    check_cmd.add_argument("--space", required=True)
    check_cmd.add_argument("--checks", nargs="+",
                           default=["nuclearity", "stability", "subadditivity"])
    _add_window_flags(check_cmd)

    symbol_cmd = sub.add_parser("symbol", help="Symbol-level checks")
    symbol_sub = symbol_cmd.add_subparsers(dest="subcommand", required=True)
    memb_cmd = symbol_sub.add_parser("membership")
    memb_cmd.add_argument("--symbol", required=True)
    memb_cmd.add_argument("--part", choices=["lower", "upper"], default="lower")
    memb_cmd.add_argument("--space", required=True)
    memb_cmd.add_argument("--target", dest="target",
                          choices=["space", "dual"], default="space")
    _add_window_flags(memb_cmd)

    op_cmd = sub.add_parser("operator", help="Operator-level checks")
    op_sub = op_cmd.add_subparsers(dest="subcommand", required=True)
    cert_cmd = op_sub.add_parser("certify")
    cert_cmd.add_argument("--operator", required=True)
    cert_cmd.add_argument("--property", dest="prop",
                          choices=[CONTINUITY, COMPACTNESS], required=True)
    _add_window_flags(cert_cmd)
    probe_cmd = op_sub.add_parser("probe")
    probe_cmd.add_argument("--operator", required=True)
    probe_cmd.add_argument("--k", type=int, nargs="+", default=None)
    probe_cmd.add_argument("--m", type=int, nargs="+", default=[1])
    probe_cmd.add_argument("--norm", choices=["sum", "sup"], default=None)
    probe_cmd.add_argument("--out", default=None, help="CSV destination")
    _add_window_flags(probe_cmd)
    apply_cmd = op_sub.add_parser("apply")
    apply_cmd.add_argument("--operator", required=True)
    apply_cmd.add_argument("--input", required=True)
    apply_cmd.add_argument("--method", choices=["fast", "dense"], default="fast")
    apply_cmd.add_argument("--n", type=int, default=None)
    apply_cmd.add_argument("--out", default=None)
    _add_window_flags(apply_cmd)

    family_cmd = sub.add_parser("family", help="Operator-family checks")
    family_sub = family_cmd.add_subparsers(dest="subcommand", required=True)
    tame_cmd = family_sub.add_parser("tame")
    tame_cmd.add_argument("--variant", choices=["lower", "upper", "full"],
                          default="lower")
    tame_cmd.add_argument("--domain", required=True)
    tame_cmd.add_argument("--codomain", required=True)
    tame_cmd.add_argument("--family", default="{}")
    tame_cmd.add_argument("--s-map", dest="s_map", default='{"form":"identity"}')
    _add_window_flags(tame_cmd)

    cross_cmd = sub.add_parser("cross-validate",
                               help="Theorem route versus raw oracle")
    cross_cmd.add_argument("--operator", required=True)
    cross_cmd.add_argument("--property", dest="prop",
                           choices=[CONTINUITY, COMPACTNESS],
                           default=COMPACTNESS)
    _add_window_flags(cross_cmd)

    return parser


def _single_task_config(args: argparse.Namespace) -> ExperimentConfig:
    """Config shell for direct subcommands; no files are written through it."""
    return ExperimentConfig(
        spaces={}, symbols={}, operators={},
        window=_window_from_args(args),
        tasks=[], out_dir=Path("."), formats=(),
        seed=getattr(args, "seed", None),
    )


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
            code, results = run_tasks(cfg)
            _emit({"exit_code": code,
                   "tasks": [{"task": r["task"], "command": r["command"],
                              "status": r["status"]} for r in results]})
            return code

        if args.command == "spaces":
            cfg = _single_task_config(args)
            status, report = _run_space_check(
                cfg, {"space": _load_json_arg(args.space), "checks": args.checks},
                "spaces-check")
            _emit({"status": status, "report": report})
            return exit_code_for([status])

        if args.command == "symbol":
            cfg = _single_task_config(args)
            status, report = _run_membership(
                cfg, {"symbol": _load_json_arg(args.symbol), "part": args.part,
                      "space": _load_json_arg(args.space), "target": args.target},
                "membership")
            _emit({"status": status, "report": report})
            return exit_code_for([status])

        if args.command == "operator":
            cfg = _single_task_config(args)
            op_data = _load_json_arg(args.operator)
            if args.subcommand == "certify":
                status, report = _run_certify(
                    cfg, {"operator": op_data}, "certify", args.prop)
                _emit({"status": status, "report": report})
                return exit_code_for([status])
            if args.subcommand == "probe":
                task = {"operator": op_data, "m": args.m}
                if args.k is not None:
                    task["k"] = args.k
                if args.norm:
                    task["norm"] = args.norm
                status, report, rows = _run_probe(cfg, task, "probe")
                if args.out:
                    Path(args.out).write_text("\n".join(rows) + "\n")
                    _emit({"status": status, "csv": args.out})
                else:
                    sys.stdout.write("\n".join(rows) + "\n")
                return exit_code_for([status])
            if args.subcommand == "apply":
                task = {"operator": op_data, "input": args.input,
                        "method": args.method, "output": args.out}
                if args.n is not None:
                    task["n"] = args.n
                status, report = _run_apply(cfg, task, "apply")
                _emit({"status": status, "report": report})
                return exit_code_for([status])

        if args.command == "family":
            cfg = _single_task_config(args)
            task = {
                "variant": args.variant,
                "domain": _load_json_arg(args.domain),
                "codomain": _load_json_arg(args.codomain),
                "family": _load_json_arg(args.family),
                "s_map": _load_json_arg(args.s_map),
            }
            status, report = _run_tame(cfg, task, "tame")
            _emit({"status": status, "report": report})
            return exit_code_for([status])

        if args.command == "cross-validate":
            cfg = _single_task_config(args)
            status, report = _run_cross_validate(
                cfg, {"operator": _load_json_arg(args.operator),
                      "property": args.prop}, "cross-validate")
            _emit({"status": status, "report": report})
            return exit_code_for([status])

        raise ConfigurationError(f"unhandled command {args.command!r}")
    except KoetheError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # no input may exit with a verdict code (0-3)
        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
