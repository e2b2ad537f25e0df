"""CLI: config runs, exit codes, determinism, subcommands."""

import json
import math
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koethe import cli
from koethe.cli import (
    EXIT_CONFLICT,
    EXIT_FAILS,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_USAGE,
    _dumps,
    exit_code_for,
    main,
    parse_config,
    read_vector,
    write_vector,
)
from koethe.criteria import FamilySpec, SMap
from koethe.errors import KoetheError
from koethe.operators import Symbol, SymbolSpec, ToeplitzOperator
from koethe.spaces import ExponentSequence, SpaceDescriptor
from koethe.verdicts import Window

L1N = {"kind": "power_series_finite", "alpha": {"form": "power", "p": 1.0}}
L1N2 = {"kind": "power_series_finite", "alpha": {"form": "power", "p": 2.0}}
LINFN = {"kind": "power_series_infinite", "alpha": {"form": "power", "p": 1.0}}
GEO = {"lower": {"form": "geometric", "r": math.exp(-1.0)}}
DELTA = {"lower": {"form": "explicit", "values": [1.0]}}


def base_config(**overrides):
    config = {
        "window": {"n_max": 512, "k_max": 6, "m_max": 16},
        "spaces": {"A": L1N, "B": L1N2, "C": LINFN},
        "symbols": {"geo": GEO, "delta": DELTA},
        "operators": {
            "T": {"variant": "lower", "domain": "A", "codomain": "B",
                  "symbol": "geo"},
        },
        "tasks": [{"command": "certify-compactness", "operator": "T"}],
        "output": {"dir": "out"},
    }
    config.update(overrides)
    return config


def run_config(tmp_path, config, extra_args=()):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return main(["run", "--config", str(path), *extra_args])


# -- exit codes -----------------------------------------------------------------


def test_exit_code_precedence_examples():
    assert exit_code_for([]) == EXIT_OK
    assert exit_code_for(["ok", "ok"]) == EXIT_OK
    assert exit_code_for(["ok", "fails"]) == EXIT_FAILS
    assert exit_code_for(["fails", "inconclusive"]) == EXIT_INCONCLUSIVE
    assert exit_code_for(["conflict", "inconclusive", "fails"]) == EXIT_CONFLICT


@given(st.lists(st.sampled_from(["ok", "fails", "inconclusive", "conflict"]),
                max_size=12))
def test_exit_code_contract(statuses):
    code = exit_code_for(statuses)
    if "conflict" in statuses:
        assert code == EXIT_CONFLICT
    elif "inconclusive" in statuses:
        assert code == EXIT_INCONCLUSIVE
    elif "fails" in statuses:
        assert code == EXIT_FAILS
    else:
        assert code == EXIT_OK


# -- config runs ------------------------------------------------------------------


def test_run_certify_compactness(tmp_path, capsys):
    code = run_config(tmp_path, base_config())
    assert code == EXIT_OK
    report = json.loads(
        (tmp_path / "out" / "task-00-certify-compactness.json").read_text())
    assert report["status"] == "ok"
    assert report["report"]["certificate"]["m"] == 1
    assert report["report"]["theorem_id"] == "lower_to_finite"
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["exit_code"] == 0


def test_run_multiple_tasks_and_csv(tmp_path):
    config = base_config(tasks=[
        {"command": "certify-compactness", "operator": "T"},
        {"command": "cross-validate", "operator": "T",
         "property": "compactness"},
        {"command": "probe", "operator": "T", "k": [1, 2], "m": [1]},
        {"command": "space-check", "space": "B"},
        {"command": "membership", "symbol": "geo", "part": "lower",
         "space": "B", "target": "space"},
        {"command": "tame-condition", "domain": "A", "codomain": "B",
         "direction": "lower", "s_map": {"form": "identity"}},
    ])
    code = run_config(tmp_path, config)
    assert code == EXIT_OK
    out = tmp_path / "out"
    csv_text = (out / "task-02-probe.csv").read_text()
    assert csv_text.splitlines()[0] == "N,k,m,log_ratio"
    assert len(csv_text.splitlines()) > 2
    cross = json.loads((out / "task-01-cross-validate.json").read_text())
    assert cross["report"]["agreement"] == "agree"


def test_run_is_byte_deterministic(tmp_path):
    config = base_config(tasks=[
        {"command": "certify-continuity", "operator": "T"},
        {"command": "probe", "operator": "T", "k": [1], "m": [1, 2]},
        {"command": "tame", "variant": "lower", "domain": "A",
         "codomain": "B", "family": {"count": 3, "seed": 9}},
    ])
    first, second = {}, {}
    for stash, out in ((first, "o1"), (second, "o2")):
        code = run_config(tmp_path, {**config, "output": {"dir": out}})
        assert code == EXIT_OK
        for path in sorted((tmp_path / out).iterdir()):
            stash[path.name] = path.read_bytes()
    assert first == second


def test_run_fails_exit(tmp_path):
    linf_n2 = {"kind": "power_series_infinite",
               "alpha": {"form": "power", "p": 2.0}}
    config = base_config(
        spaces={"C": LINFN, "D": linf_n2},
        operators={"T": {"variant": "lower", "domain": "C", "codomain": "D",
                         "symbol": "delta"}},
        tasks=[{"command": "certify-compactness", "operator": "T"}],
    )
    assert run_config(tmp_path, config) == EXIT_FAILS


def test_run_empty_tasks_rejected(tmp_path):
    assert run_config(tmp_path, base_config(tasks=[])) == EXIT_USAGE


def test_run_unresolved_reference(tmp_path, capsys):
    config = base_config()
    config["operators"]["T"]["domain"] = "missing"
    assert run_config(tmp_path, config) == EXIT_USAGE
    assert "operators.T.domain" in capsys.readouterr().err


def test_run_not_well_defined_full(tmp_path, capsys):
    config = base_config(
        symbols={"s": {"lower": {"form": "explicit", "values": [1.0]},
                       "upper": {"form": "explicit", "values": [1.0]}}},
        operators={"F": {"variant": "full", "domain": "A", "codomain": "C",
                         "symbol": "s"}},
        tasks=[{"command": "certify-continuity", "operator": "F"}],
    )
    assert run_config(tmp_path, config) >= 4
    assert "not well defined" in capsys.readouterr().err


def test_run_bad_window(tmp_path):
    assert run_config(tmp_path, base_config(window={"n_max": -5})) == EXIT_USAGE


def test_run_unknown_command(tmp_path, capsys):
    # reported as the command, not as a field the command does not know
    config = base_config(tasks=[{"command": "frobnicate", "operator": "T"}])
    assert run_config(tmp_path, config) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: tasks[0].command: unknown command 'frobnicate'\n")


def test_unknown_task_field_fails_before_any_task_runs(tmp_path, capsys):
    # a misspelled field would otherwise leave the handler's default
    config = base_config(tasks=[{"command": "certify-compactness", "operator": "T"},
                                {"command": "cross-validate", "operator": "T",
                                 "propery": "continuity"}])
    assert run_config(tmp_path, config) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: tasks[1].propery: unknown field of a 'cross-validate' task\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides, path", [
    ({"windw": {"n_max": 64}}, "windw"),
    ({"output": {"dir": "out", "format": ["json"]}}, "output.format"),
])
def test_unknown_config_key_fails_before_any_task_runs(overrides, path, tmp_path,
                                                       capsys):
    # a misspelled key would otherwise keep the default window or formats
    assert run_config(tmp_path, base_config(**overrides)) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {path}: unknown config key\n"
    assert not (tmp_path / "out").exists()


def test_window_overrides(tmp_path):
    config = base_config(tasks=[{"command": "certify-continuity",
                                 "operator": "T"}])
    code = run_config(tmp_path, config, ("--n-max", "256", "--k-max", "3"))
    assert code == EXIT_OK
    report = json.loads(
        (tmp_path / "out" / "task-00-certify-continuity.json").read_text())
    assert report["report"]["window"]["n_max"] == 256
    assert report["report"]["window"]["k_max"] == 3


# -- direct subcommands --------------------------------------------------------------


def test_usage_error_exit_code():
    assert main(["operator", "certify", "--operator"]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_spaces_check_subcommand(capsys):
    code = main(["spaces", "check", "--space", json.dumps(L1N),
                 "--n-max", "512", "--k-max", "4"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["nuclearity"]["outcome"] == "holds"
    assert payload["report"]["subadditivity"]["m"] == 1
    assert payload["report"]["stability"]["sup_ratio"] == 2.0


def test_space_check_on_a_subnormal_exponent_exits_by_its_verdict(tmp_path):
    # alpha_1 / (alpha_1 + alpha_1) overflows the subadditivity ratio to inf
    tiny = {"kind": "power_series_infinite",
            "alpha": {"form": "table", "values": [2.2250738585e-313, 1.0, 2.0, 3.0]}}
    config = base_config(spaces={"A": L1N, "B": L1N2, "T": tiny},
                         tasks=[{"command": "space-check", "space": "T"}])
    assert run_config(tmp_path, config) == EXIT_FAILS
    report = json.loads((tmp_path / "out" / "task-00-space-check.json").read_text(),
                        parse_constant=_reject_constant)
    subadditivity = report["report"]["subadditivity"]
    assert subadditivity["m"] is None and subadditivity["max_ratio"] == "Infinity"
    assert subadditivity["witness"] == [1, 2]


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_spaces_check_failing_nuclearity(capsys):
    space = {"kind": "power_series_finite", "alpha": {"form": "log"}}
    code = main(["spaces", "check", "--space", json.dumps(space),
                 "--checks", "nuclearity"])
    assert code == EXIT_FAILS
    # the diverging witness has no growth rate; the report stays strict JSON
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert payload["report"]["nuclearity"]["witness"]["growth_log"] == "NaN"


def test_symbol_membership_subcommand(capsys):
    code = main(["symbol", "membership", "--symbol", json.dumps(GEO),
                 "--space", json.dumps(L1N2), "--target", "space",
                 "--n-max", "512", "--k-max", "4"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["verdict"]["outcome"] == "holds"


def test_membership_with_an_infinite_weight_fails(capsys):
    # k * 1e308 is past float range from k = 2 on: the series is infinite
    space = {"kind": "power_series_infinite",
             "alpha": {"form": "table", "values": [1.0, 2.0] + [1e308] * 14}}
    code = main(["symbol", "membership", "--symbol", json.dumps(GEO),
                 "--space", json.dumps(space), "--n-max", "16", "--k-max", "3"])
    assert code == EXIT_FAILS
    verdict = json.loads(capsys.readouterr().out)["report"]["verdict"]
    assert verdict["reason"] == "membership series diverges at k=2"
    assert verdict["witness"]["growth_log"] == "Infinity"


def test_dual_membership_with_an_infinite_bound_holds(capsys):
    # m * alpha_n is past float range from m = 2 on: the bound admits anything
    # there, and the symbol's own logs 1.05 * alpha_n stay finite
    alpha = {"form": "table", "values": [1, 2, 3, 4, 5, 6, 7, 8, 2e307, 4e307, 6e307,
                                         8e307, 1e308, 1.2e308, 1.4e308, 1.6e308]}
    symbol = {"upper": {"form": "exp_of_exponent", "c": 1.05, "alpha": alpha}}
    space = {"kind": "power_series_infinite", "alpha": alpha}
    code = main(["symbol", "membership", "--part", "upper", "--target", "dual",
                 "--n-max", "16", "--symbol", json.dumps(symbol),
                 "--space", json.dumps(space)])
    assert code == EXIT_OK
    verdict = json.loads(capsys.readouterr().out)["report"]["verdict"]
    assert verdict["certificate"]["shape"] == "bound"
    assert verdict["certificate"]["m"] == 2


@pytest.mark.parametrize("values, code, outcome", [
    # the top exponents pass float range from k = 2 on; the nonzero entries
    # meet finite weights only
    ([1, 2, 3, 4, 5, 6, 7, 8, 2e307, 4e307, 6e307, 8e307, 1e308, 1.2e308,
      1.4e308, 1.6e308], EXIT_OK, "holds"),
    # the entry at j = 2 meets weight e^{2 * 1e308}: the series is infinite
    ([1.0, 2.0] + [1e308] * 30, EXIT_FAILS, "fails_on_window"),
], ids=["zero-entries-only", "nonzero-entry"])
def test_zero_symbol_entries_against_infinite_weights_do_not_warn(capsys, values,
                                                                 code, outcome):
    # a zero entry's term is zero whatever its weight; -inf + inf would warn,
    # which the test filter turns into an unexpected error (exit 4)
    symbol = {"lower": {"form": "explicit", "values": [1, 0, 1]}}
    space = {"kind": "power_series_infinite",
             "alpha": {"form": "table", "values": values}}
    assert main(["symbol", "membership", "--part", "lower", "--target", "space",
                 "--n-max", "16", "--symbol", json.dumps(symbol),
                 "--space", json.dumps(space)]) == code
    assert json.loads(capsys.readouterr().out)["report"]["verdict"]["outcome"] == outcome


def test_membership_of_a_symbol_past_float_range_fails(capsys):
    # c * alpha_n is past float range: the symbol's log is +inf
    symbol = {"lower": {"form": "exp_of_exponent", "c": 1e300,
                        "alpha": {"form": "affine", "a": 1e300, "b": 9.6}}}
    space = {"kind": "power_series_finite", "alpha": {"form": "log"}}
    code = main(["symbol", "membership", "--symbol", json.dumps(symbol),
                 "--space", json.dumps(space), "--n-max", "16"])
    assert code == EXIT_FAILS
    verdict = json.loads(capsys.readouterr().out)["report"]["verdict"]
    assert verdict["reason"] == "membership series diverges at k=1"


def test_operator_certify_subcommand(capsys):
    op = {"variant": "lower", "domain": L1N, "codomain": L1N2, "symbol": GEO}
    code = main(["operator", "certify", "--operator", json.dumps(op),
                 "--property", "compactness", "--n-max", "512"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["certificate"]["m"] == 1


def test_operator_probe_subcommand_stdout(capsys):
    op = {"variant": "lower", "domain": L1N, "codomain": L1N, "symbol": DELTA}
    code = main(["operator", "probe", "--operator", json.dumps(op),
                 "--k", "2", "--m", "1", "--n-max", "512"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "N,k,m,log_ratio"
    assert lines[-1].startswith("512,2,1,")


def test_operator_apply_subcommand(tmp_path, capsys):
    vec = tmp_path / "x.txt"
    write_vector(vec, [1.0, 2.0, 3.0])
    out = tmp_path / "y.txt"
    op = {"variant": "lower", "domain": L1N, "codomain": L1N, "symbol": DELTA}
    code = main(["operator", "apply", "--operator", json.dumps(op),
                 "--input", str(vec), "--method", "dense", "--out", str(out)])
    assert code == EXIT_OK
    assert read_vector(out).tolist() == [1.0, 2.0, 3.0]


def test_dense_apply_past_the_dense_cap_is_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_vector("x.txt", [1.0] * 4097)
    write_vector("short.txt", [1.0] * 8)
    config = base_config(window={"n_max": 512, "dense_cap": 8},
                         tasks=[{"command": "apply", "operator": "T", "input": "short.txt",
                                 "n": 9, "method": "dense"}])
    assert run_config(tmp_path, config) == EXIT_USAGE
    op = {"variant": "lower", "domain": L1N, "codomain": L1N, "symbol": DELTA}
    argv = ["operator", "apply", "--operator", json.dumps(op), "--input", "x.txt"]
    assert main([*argv, "--method", "dense"]) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        "error: tasks[0].method: dense apply at n=9 exceeds window.dense_cap=8",
        "error: apply.method: dense apply at n=4097 exceeds window.dense_cap=4096"]
    # at the cap, and on the fast path past it, the apply runs
    config["tasks"][0]["n"] = 8
    assert run_config(tmp_path, config) == EXIT_OK
    assert main([*argv, "--out", "y.txt"]) == EXIT_OK


def test_family_tame_subcommand(capsys):
    code = main(["family", "tame", "--variant", "lower",
                 "--domain", json.dumps(L1N), "--codomain", json.dumps(L1N2),
                 "--family", json.dumps({"count": 3, "seed": 1}),
                 "--s-map", json.dumps({"form": "identity"}),
                 "--n-max", "512", "--k-max", "4", "--m-max", "8"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["outcome"] == "holds"
    assert len(payload["report"]["samples"]) == 3


def test_cross_validate_subcommand(capsys):
    op = {"variant": "lower", "domain": L1N, "codomain": L1N2, "symbol": GEO}
    code = main(["cross-validate", "--operator", json.dumps(op),
                 "--property", "compactness", "--n-max", "512"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["agreement"] == "agree"


def test_cross_validate_full_diagonal_beyond_float_range(capsys):
    # the lower head e^{1000} overflows a float; the diagonal stays in log domain
    log_space = {"kind": "power_series_finite", "alpha": {"form": "log"}}
    op = {"variant": "full", "domain": log_space, "codomain": log_space,
          "symbol": {"lower": {"form": "exp_of_exponent", "c": 1000.0,
                               "alpha": {"form": "affine", "a": 1.0}},
                     "upper": {"form": "geometric", "r": 0.5}}}
    code = main(["cross-validate", "--operator", json.dumps(op),
                 "--property", "continuity", "--n-max", "256"])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["report"]["agreement"] == "agree"


def test_cross_validate_from_a_short_general_domain_exits_by_its_verdict(capsys):
    # 2 gradings, fewer than m_max: the oracle cuts its witness search to them
    general = {"kind": "general_koethe",
               "weights": [[math.exp(-n), math.exp(-n / 2)] for n in range(1, 65)]}
    op = {"variant": "lower", "domain": general, "codomain": L1N,
          "symbol": {"lower": {"form": "geometric", "r": 0.5}}}
    for prop in ("continuity", "compactness"):
        code = main(["cross-validate", "--operator", json.dumps(op),
                     "--property", prop, "--n-max", "64"])
        assert code <= 3
        payload = json.loads(capsys.readouterr().out)
        assert "finite-window" in payload["report"]["oracle"]["tags"]


@pytest.mark.parametrize("route", ["subcommand", "run"])
def test_probe_defaults_to_the_gradings_of_a_short_general_codomain(
        tmp_path, capsys, route):
    # 3 gradings, fewer than k_max: the default grading list stops at 3
    general = {"kind": "general_koethe",
               "weights": [[math.exp(n / 4), math.exp(n / 2), math.exp(n)]
                           for n in range(1, 65)]}
    op = {"variant": "upper", "domain": LINFN, "codomain": general,
          "symbol": {"upper": {"form": "geometric", "r": 0.5}}}
    if route == "subcommand":
        code = main(["operator", "probe", "--operator", json.dumps(op),
                     "--n-max", "64"])
        rows = capsys.readouterr().out.splitlines()
    else:
        config = base_config(window={"n_max": 64, "k_max": 6, "m_max": 16},
                             spaces={"G": general, "C": LINFN},
                             symbols={"geo": op["symbol"]},
                             operators={"T": {"variant": "upper", "domain": "C",
                                              "codomain": "G", "symbol": "geo"}},
                             tasks=[{"command": "probe", "operator": "T"}],
                             output={"dir": str(tmp_path / "out")})
        code = run_config(tmp_path, config)
        rows = (tmp_path / "out" / "task-00-probe.csv").read_text().splitlines()
    assert code == EXIT_OK
    assert rows[0] == "N,k,m,log_ratio"
    assert {row.split(",")[1] for row in rows[1:]} == {"1", "2", "3"}


def test_inline_json_longer_than_filename_limit(capsys):
    # inline operator JSON easily exceeds the OS filename length cap
    op = {"variant": "lower", "domain": L1N, "codomain": L1N2,
          "symbol": {"lower": {"form": "explicit",
                               "values": [1.0] + [0.0] * 120}}}
    assert len(json.dumps(op)) > 512
    code = main(["operator", "certify", "--operator", json.dumps(op),
                 "--property", "continuity", "--n-max", "256", "--k-max", "3"])
    assert code == EXIT_OK


def test_inline_config_longer_than_filename_limit(tmp_path, monkeypatch, capsys):
    # an inline config of 256 bytes or more names no file: it is read once,
    # inline, and the run exits by its verdict
    monkeypatch.chdir(tmp_path)
    op = {"variant": "lower", "domain": L1N, "codomain": L1N2,
          "symbol": {"lower": {"form": "geometric", "r": 0.5}}}
    config = {"window": {"n_max": 64}, "operators": {"T": op},
              "tasks": [{"command": "cross-validate", "operator": "T",
                         "property": "continuity"}], "output": {"dir": "out"}}
    assert len(json.dumps(config)) >= 300
    assert main(["run", "--config", json.dumps(config)]) < EXIT_USAGE
    assert "error" not in capsys.readouterr().err
    assert (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("prefix", ["", "@"])
def test_config_output_dir_is_relative_to_the_config_file(tmp_path, monkeypatch,
                                                           prefix):
    # whichever spelling names the config file, a relative output.dir is
    # resolved against the file's directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "cfg.json").write_text(json.dumps(base_config(
        window={"n_max": 64}, output={"dir": "o"})))
    assert main(["run", "--config", f"{prefix}d/cfg.json"]) < EXIT_USAGE
    assert (tmp_path / "d" / "o" / "summary.json").exists()
    assert not (tmp_path / "o").exists()


def test_vector_io_roundtrip(tmp_path):
    path = tmp_path / "v.txt"
    write_vector(path, [0.5, -1.25, 0.0])
    assert read_vector(path).tolist() == [0.5, -1.25, 0.0]
    path.write_text("1.0\n\nnot-a-number\n")
    with pytest.raises(Exception):
        read_vector(path)


special_floats = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                                  -2.2250738585072014e-308, 1.7976931348623157e308])


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.floats() | special_floats, max_size=40),
       as_array=st.booleans())
def test_vector_files_round_trip_bit_for_bit(tmp_path_factory, values, as_array):
    path = tmp_path_factory.mktemp("vector") / "v.txt"
    write_vector(path, np.asarray(values) if as_array else values)
    # the bytes of the per-scalar formula: repr of each float, one a line
    assert path.read_text() == "".join(f"{float(v)!r}\n" for v in values)
    # every NaN reads back as NaN, whose hex has no sign
    assert [v.hex() for v in read_vector(path).tolist()] == [v.hex() for v in values]


def test_a_bad_vector_line_is_named(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text(" 1.0\n\n  \n-inf\nnot-a-number \n2\n")
    with pytest.raises(KoetheError, match=r"v\.txt:5: not a coefficient: 'not-a-number'$"):
        read_vector(path)
    path.write_text("")
    assert read_vector(path).tolist() == []


# -- malformed input and strict reports -------------------------------------------

OP_LINE = {"variant": "lower", "domain": L1N, "codomain": L1N, "symbol": DELTA}
# three gradings of 16 rows, on each side of an operator
TABLE_16x3 = {"kind": "general_koethe", "weights": [[1.0, 2.0, 3.0]] * 16}
TABLE_OP = {"variant": "lower", "domain": TABLE_16x3, "codomain": TABLE_16x3,
            "symbol": GEO}
TABLE_OP_REFS = {"variant": "lower", "domain": "G", "codomain": "G", "symbol": "geo"}
TABLE_3x3 = {"kind": "general_koethe", "weights": [[1.0, 2.0, 3.0]] * 3}
TABLE3_OP = {**TABLE_OP, "domain": TABLE_3x3, "codomain": TABLE_3x3}

@pytest.mark.parametrize("argv", [
    ["operator", "certify", "--property", "continuity", "--operator",
     json.dumps({"variant": "lower", "domain": L1N, "codomain": L1N2})],
    ["spaces", "check", "--space", json.dumps({"kind": "power_series_finite"})],
    ["family", "tame", "--domain", json.dumps(L1N), "--codomain", json.dumps(L1N2),
     "--s-map", json.dumps({"form": "linear"})],
], ids=["operator-without-symbol", "space-without-alpha", "linear-s-map-without-a"])
def test_malformed_inline_objects_are_usage_errors(argv, capsys):
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing field" in err


@pytest.mark.parametrize("argv, message", [
    (["family", "tame", "--domain", json.dumps(L1N), "--codomain", json.dumps(L1N2),
      "--family", "[1]"], "tame.family: family: expected a JSON object"),
    (["family", "tame", "--domain", json.dumps(L1N), "--codomain", json.dumps(L1N2),
      "--family", json.dumps({"seed": -1})], "tame.family: family seed must be >= 0"),
    # a family is sampled on its part's rule side; no field overrides it
    (["family", "tame", "--domain", json.dumps(L1N), "--codomain", json.dumps(L1N2),
      "--family", json.dumps({"constraint": "space"})],
     "tame.family: unknown family fields: ['constraint']"),
    (base_config(tasks=[{"command": "tame", "domain": "A", "codomain": "B",
                         "family": {"count": 2, "constraint": "auto"}}]),
     "tasks[0].family: unknown family fields: ['constraint']"),
    # no geometric symbol obeys the dual bound of Λ₀(n²) on this window
    (["family", "tame", "--variant", "upper", "--domain", json.dumps(L1N2),
      "--codomain", json.dumps(L1N), "--family", json.dumps({"count": 2}),
      "--n-max", "256"],
     "family sampling exhausted 40 attempts before collecting 2 members passing "
     "the upper part's membership"),
    (base_config(tasks=[{"command": "probe", "operator": "T", "norm": "max"}]),
     "tasks[0].norm: expected 'sum' or 'sup'"),
    (base_config(window=5), "window: window: expected a JSON object"),
    (base_config(tasks=[{"command": "probe", "operator": "T", "k": "x"}]),
     "tasks[0].k: "),
    (base_config(tasks=[{"command": "probe", "operator": "T", "m": 1.5}]),
     "tasks[0].m: "),
    (base_config(tasks=[{"command": "apply", "operator": "T", "input": "x.txt",
                         "n": "x"}]), "tasks[0].n: "),
    (base_config(tasks=[{"command": "apply", "operator": "T", "input": 5}]),
     "tasks[0].input: "),
    (base_config(tasks=[{"command": "space-check", "space": "A", "checks": 5}]),
     "tasks[0].checks: "),
    (base_config(tasks=[{"command": "cross-validate", "operator": "T",
                         "property": "x"}]), "tasks[0].property: "),
    (base_config(spaces=[1]), "spaces: expected a JSON object"),
    (base_config(output="x"), "output: expected a JSON object"),
    (base_config(output={"dir": 5}), "output.dir: "),
    (["operator", "probe", "--operator", json.dumps(OP_LINE), "--m", "0"],
     "probe.m: grading index must be >= 1, got 0"),
    (base_config(tasks=[{"command": "probe", "operator": "T", "m": [2, 0]}]),
     "tasks[0].m: grading index must be >= 1, got 0"),
    (base_config(tasks=[{"command": "probe", "operator": "T", "k": -1}]),
     "tasks[0].k: grading index must be >= 1, got -1"),
    (base_config(seed=1.5, tasks=[{"command": "space-check", "space": "A"}]),
     "seed: field 'seed' must be an integer"),
    (base_config(seed="x", tasks=[{"command": "tame", "domain": "A",
                                   "codomain": "B"}]),
     "seed: field 'seed' must be an integer"),
    (base_config(seed=-1), "seed: must be >= 0, got -1"),
    (["family", "tame", "--domain", json.dumps(L1N), "--codomain", json.dumps(L1N2),
      "--seed", "-1"], "--seed: must be >= 0, got -1"),
    (["run", "--config", json.dumps(base_config()), "--seed", "-1"],
     "--seed: must be >= 0, got -1"),
    (["operator", "apply", "--operator", json.dumps(OP_LINE), "--input", "zeros.txt",
      "--n=-1"], "apply.n: must be >= 1, got -1"),
    (base_config(tasks=[{"command": "apply", "operator": "T", "input": "x.txt",
                         "n": 0}]), "tasks[0].n: must be >= 1, got 0"),
    (base_config(tasks=[{"command": "tame-condition", "domain": "A", "codomain": "B",
                         "s_map": {"form": "table", "values": [1.5, 2.7]}}]),
     "tasks[0].s_map: index map: field 'values' must be an array of integers"),
    (base_config(symbols={"geo": {"lower": {"form": "polynomial", "d": 1.5}}}),
     "symbols.geo: symbol part: field 'd' must be an integer"),
    # a degree that does not convert to a float is refused, not evaluated
    (["symbol", "membership", "--symbol",
      json.dumps({"lower": {"form": "polynomial", "d": 10**400}}),
      "--space", json.dumps(L1N), "--n-max", "64"],
     "membership.symbol: symbol part: field 'd' must be an integer within float range"),
    (base_config(symbols={"geo": {"lower": {"form": "polynomial", "d": -10**400}}}),
     "symbols.geo: symbol part: field 'd' must be an integer within float range"),
    (base_config(operators={"T": {"variant": "x", "domain": "A", "codomain": "B",
                                  "symbol": "geo"}}),
     "operators.T.variant: expected 'lower', 'upper' or 'full', got 'x'"),
    (base_config(operators={"T": {"domain": "A", "codomain": "B", "symbol": "geo"}}),
     "operators.T.variant: missing field 'variant'"),
    # a named operator takes no norm; a probe task does
    (base_config(operators={"T": {"variant": "lower", "domain": "A", "codomain": "B",
                                  "symbol": "geo", "norm": "sup"}}),
     "operators.T.norm: unknown config key"),
    (["symbol", "membership", "--symbol", json.dumps({**GEO, "uper": GEO["lower"]}),
      "--space", json.dumps(L1N), "--n-max", "64"],
     "membership.symbol: unknown symbol fields: ['uper']"),
    (base_config(tasks=[{"command": "membership", "symbol": "geo", "space": "A",
                         "part": "middle"}]),
     "tasks[0].part: expected 'lower' or 'upper', got 'middle'"),
    (base_config(tasks=[{"command": "membership", "symbol": "geo", "space": "A",
                         "target": ["dual"]}]),
     "tasks[0].target: expected 'space' or 'dual', got ['dual']"),
    (base_config(tasks=[{"command": "tame", "domain": "A", "codomain": "B",
                         "variant": 1}]),
     "tasks[0].variant: expected 'lower', 'upper' or 'full', got 1"),
    (base_config(tasks=[{"command": "tame-condition", "domain": "A", "codomain": "B",
                         "direction": "down"}]),
     "tasks[0].direction: expected 'lower', 'upper' or 'full', got 'down'"),
    (base_config(tasks=[{"command": "certify-continuity", "operator": "T",
                         "property": "compactness"}]),
     "tasks[0].property: unknown field of a 'certify-continuity' task"),
    (base_config(tasks=[{"command": "tame-condition", "domain": "A", "codomain": "B",
                         "s-map": {"form": "identity"}}]),
     "tasks[0].s-map: unknown field of a 'tame-condition' task"),
    (base_config(tasks=[{"command": "probe", "operator": "T", "out": "c.csv"}]),
     "tasks[0].out: unknown field of a 'probe' task"),
    (base_config(window={"n_max": 64, "checkpoints": [0, 64]},
                 tasks=[{"command": "cross-validate", "operator": "T"}]),
     "window: checkpoints must be >= 1"),
    (base_config(window={"n_max": 64, "checkpoints": [-8, 64]},
                 tasks=[{"command": "cross-validate", "operator": "T"}]),
     "window: checkpoints must be >= 1"),
    (base_config(window={"series_tail_rel": 0},
                 tasks=[{"command": "space-check", "space": "A",
                         "checks": ["nuclearity"]}]),
     "window: need 0 < series_tail_rel < 1"),
    (base_config(window={"l_slack": -100},
                 tasks=[{"command": "space-check", "space": "A",
                         "checks": ["nuclearity"]}]),
     "window: l_slack must be >= 0"),
    (base_config(window={"subadd_m_max": 0},
                 tasks=[{"command": "space-check", "space": "A"}]),
     "window: subadd_m_max must be >= 1"),
    (base_config(window={"series_growth_tol": -1},
                 tasks=[{"command": "space-check", "space": "A"}]),
     "window: need series_growth_tol > 0"),
    (base_config(window={"dense_cap": 0},
                 tasks=[{"command": "space-check", "space": "A"}]),
     "window: dense_cap must be >= 1"),
    (["operator", "probe", "--operator", json.dumps(TABLE_OP), "--n-max", "16",
      "--k", "1", "--m", "5"], "probe.m: grading index must be <= 3, "),
    (base_config(spaces={"A": L1N, "G": TABLE_16x3}, operators={"U": TABLE_OP_REFS},
                 tasks=[{"command": "probe", "operator": "U", "k": [1, 4]}]),
     "tasks[0].k: grading index must be <= 3, "),
    (base_config(spaces={"A": L1N, "G": TABLE_16x3}, operators={"U": TABLE_OP_REFS},
                 tasks=[{"command": "probe", "operator": "U", "m": 4}]),
     "tasks[0].m: grading index must be <= 3, "),
    # three table rows leave no checkpoint doubling for a ratio curve
    (["operator", "probe", "--operator", json.dumps(TABLE3_OP), "--k", "1", "--m", "1"],
     "probe.operator: window too short for a ratio curve"),
    (base_config(spaces={"A": L1N, "G": TABLE_3x3}, operators={"U": TABLE_OP_REFS},
                 tasks=[{"command": "probe", "operator": "U", "k": 1, "m": 1}]),
     "tasks[0].operator: window too short for a ratio curve"),
], ids=["family-not-an-object", "negative-family-seed", "family-constraint-field",
        "tame-task-family-constraint-field", "upper-family-sampling-exhausted",
        "unknown-probe-norm",
        "window-not-an-object", "probe-k-not-integers", "probe-m-not-integers",
        "apply-n-not-an-integer", "apply-input-not-a-path", "checks-not-an-array",
        "unknown-cross-validate-property", "spaces-not-an-object",
        "output-not-an-object", "output-dir-not-a-string", "direct-probe-m-zero",
        "probe-task-m-zero", "probe-task-k-negative", "config-seed-not-an-integer",
        "config-seed-a-string", "config-seed-negative", "direct-seed-negative",
        "run-seed-negative", "direct-apply-n-negative", "apply-task-n-zero",
        "s-map-table-not-integers", "polynomial-d-not-an-integer",
        "direct-polynomial-d-past-float-range", "polynomial-d-past-float-range",
        "unknown-operator-variant", "operator-without-variant", "operator-norm-key",
        "direct-symbol-misspelled-part", "unknown-membership-part",
        "membership-target-not-a-string", "tame-variant-not-a-string",
        "unknown-tame-condition-direction", "certify-property-field",
        "tame-condition-misspelled-field", "probe-out-field", "window-checkpoint-zero",
        "window-checkpoint-negative", "window-series-tail-rel-zero",
        "window-l-slack-negative", "window-subadd-m-max-zero",
        "window-series-growth-tol-negative", "window-dense-cap-zero",
        "direct-probe-m-past-the-table", "probe-task-k-past-the-table",
        "probe-task-m-past-the-table", "direct-probe-window-too-short",
        "probe-task-window-too-short"])
def test_malformed_task_fields_are_usage_errors(argv, message, tmp_path, capsys):
    code = run_config(tmp_path, argv) if isinstance(argv, dict) else main(argv)
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert "unexpected" not in err and "Traceback" not in err


@pytest.mark.parametrize("content", [None, b"\xff\xfe\n"],
                         ids=["missing", "not-utf8"])
def test_unreadable_vector_file_is_a_usage_error(content, tmp_path, capsys):
    source = tmp_path / "x.txt"
    if content is not None:
        source.write_bytes(content)
    op = {"variant": "lower", "domain": L1N, "codomain": L1N, "symbol": DELTA}
    assert main(["operator", "apply", "--operator", json.dumps(op),
                 "--input", str(source)]) == EXIT_USAGE
    config = base_config(tasks=[{"command": "apply", "operator": "T",
                                 "input": str(source)}])
    assert run_config(tmp_path, config) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith(f"error: cannot read {str(source)!r}") for line in err)


@pytest.mark.parametrize("n", [None, 4], ids=["length-from-input", "explicit-n"])
def test_empty_vector_file_is_a_usage_error(n, tmp_path, capsys):
    source = tmp_path / "empty.txt"
    source.write_text("\n")
    op = {"variant": "lower", "domain": L1N, "codomain": L1N, "symbol": GEO}
    argv = ["operator", "apply", "--operator", json.dumps(op), "--input", str(source)]
    task = {"command": "apply", "operator": "T", "input": str(source)}
    if n is not None:
        argv.append(f"--n={n}")
        task["n"] = n
    assert main(argv) == EXIT_USAGE
    assert run_config(tmp_path, base_config(tasks=[task])) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: apply.input: no coefficients in {str(source)!r}",
                   f"error: tasks[0].input: no coefficients in {str(source)!r}"]


def test_unreadable_json_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "space.json"
    path.write_bytes(b"\xff\xfe")
    assert main(["spaces", "check", "--space", f"@{path}"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {str(path)!r}")
    assert "unexpected" not in err and "Traceback" not in err


@pytest.mark.parametrize("case", ["apply", "probe", "run"])
def test_failed_output_write_is_a_usage_error(case, tmp_path, capsys):
    op = ["--operator", json.dumps(OP_LINE), "--n-max", "64"]
    if case == "apply":
        vec = tmp_path / "x.txt"
        write_vector(vec, [1.0, 2.0])
        target = tmp_path / "nodir" / "y.txt"
        argv = ["operator", "apply", *op, "--input", str(vec), "--out", str(target)]
    elif case == "probe":
        target = tmp_path / "nodir" / "c.csv"
        argv = ["operator", "probe", *op, "--k", "1", "--out", str(target)]
    else:
        target = tmp_path / "afile"
        target.write_text("")
        config = tmp_path / "c.json"
        config.write_text(json.dumps(base_config()))
        argv = ["run", "--config", str(config), "--out", str(target)]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {str(target)!r}")
    assert "unexpected" not in err and "Traceback" not in err


@pytest.mark.parametrize("via_run", [False, True], ids=["direct", "run"])
def test_unexpected_exception_is_a_usage_error(via_run, tmp_path, monkeypatch,
                                               capsys):
    def boom(*args):
        raise RuntimeError("boom")

    # handlers are looked up on every task, so the rebinding reaches both paths
    monkeypatch.setattr(cli, "_run_space_check", boom)
    if via_run:
        config = base_config(tasks=[{"command": "space-check", "space": "A"}])
        assert run_config(tmp_path, config) == EXIT_USAGE
    else:
        assert main(["spaces", "check", "--space", json.dumps(L1N)]) == EXIT_USAGE
    assert "error: unexpected RuntimeError: boom" in capsys.readouterr().err


# -- a direct subcommand is the one-task config it stands for ------------------------

OP = {"variant": "lower", "domain": L1N, "codomain": L1N2, "symbol": GEO}
OP_DELTA = {"variant": "lower", "domain": L1N, "codomain": L1N, "symbol": DELTA}
FAMILY = {"count": 2, "seed": 1}
TWO_SIDED = {"lower": GEO["lower"], "upper": {"form": "geometric", "r": 0.5}}
# case -> (argv, the task it stands for, other config fields); together the
# cases set every flag of every direct subcommand
PARITY = {
    "space-check": (["spaces", "check", "--space", json.dumps(L1N),
                     "--checks", "nuclearity", "subadditivity"],
                    {"command": "space-check", "space": L1N,
                     "checks": ["nuclearity", "subadditivity"]}, {}),
    "membership": (["symbol", "membership", "--symbol", json.dumps(GEO),
                    "--space", json.dumps(L1N2), "--target", "dual"],
                   {"command": "membership", "symbol": GEO, "space": L1N2,
                    "target": "dual"}, {}),
    "membership-upper": (["symbol", "membership", "--symbol", json.dumps(TWO_SIDED),
                          "--part", "upper", "--space", json.dumps(L1N2)],
                         {"command": "membership", "symbol": TWO_SIDED, "part": "upper",
                          "space": L1N2}, {}),
    "certify-continuity": (["operator", "certify", "--operator", json.dumps(OP),
                            "--property", "continuity"],
                           {"command": "certify-continuity", "operator": OP}, {}),
    "certify-compactness": (["operator", "certify", "--operator", json.dumps(OP),
                             "--property", "compactness"],
                            {"command": "certify-compactness", "operator": OP}, {}),
    "probe": (["operator", "probe", "--operator", json.dumps(OP), "--k", "1", "2",
               "--m", "1", "2", "--norm", "sup"],
              {"command": "probe", "operator": OP, "k": [1, 2], "m": [1, 2],
               "norm": "sup"}, {}),
    "probe-out": (["operator", "probe", "--operator", json.dumps(OP), "--k", "2",
                   "--out", "c.csv"], {"command": "probe", "operator": OP, "k": [2]}, {}),
    "apply": (["operator", "apply", "--operator", json.dumps(OP_DELTA),
               "--input", "x.txt", "--method", "dense"],
              {"command": "apply", "operator": OP_DELTA, "input": "x.txt",
               "method": "dense"}, {}),
    "apply-fast-out": (["operator", "apply", "--operator", json.dumps(OP),
                        "--input", "x.txt", "--method", "fast", "--n", "5",
                        "--out", "y.txt"],
                       {"command": "apply", "operator": OP, "input": "x.txt",
                        "method": "fast", "n": 5, "output": "y.txt"}, {}),
    "tame": (["family", "tame", "--domain", json.dumps(L1N),
              "--codomain", json.dumps(L1N2), "--family", json.dumps(FAMILY)],
             {"command": "tame", "domain": L1N, "codomain": L1N2, "family": FAMILY}, {}),
    "tame-upper-seeded": (["family", "tame", "--variant", "upper",
                           "--domain", json.dumps(L1N), "--codomain", json.dumps(L1N2),
                           "--family", json.dumps(FAMILY),
                           "--s-map", json.dumps({"form": "linear", "a": 2.0}),
                           "--seed", "5"],
                          {"command": "tame", "variant": "upper", "domain": L1N,
                           "codomain": L1N2, "family": FAMILY,
                           "s_map": {"form": "linear", "a": 2.0}}, {"seed": 5}),
    "cross-validate": (["cross-validate", "--operator", json.dumps(OP),
                        "--property", "continuity"],
                       {"command": "cross-validate", "operator": OP,
                        "property": "continuity"}, {}),
}


@pytest.mark.parametrize("case", sorted(PARITY))
def test_direct_subcommand_equals_one_task_run(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_vector("x.txt", [1.0, -2.0, 0.5])
    argv, task, config = PARITY[case]
    flags = ["--n-max", "256", "--k-max", "3", "--m-max", "8"]
    direct_code = main([*argv, *flags])
    direct_out = capsys.readouterr().out
    if "--out" in argv:  # the output the run writes again under the same name
        direct_file = (tmp_path / argv[argv.index("--out") + 1]).read_text()
    config = {**config, "tasks": [task], "output": {"dir": "out"}}
    assert run_config(tmp_path, config, flags) == direct_code
    name = f"out/task-00-{task['command']}"
    if case == "probe":
        assert direct_out == (tmp_path / f"{name}.csv").read_text()
    elif case == "probe-out":
        assert json.loads(direct_out) == {"status": "ok", "csv": "c.csv"}
        assert direct_file == (tmp_path / f"{name}.csv").read_text()
    else:
        report = json.loads((tmp_path / f"{name}.json").read_text())
        assert json.loads(direct_out) == {"status": report["status"],
                                          "report": report["report"]}
    if case == "apply-fast-out":
        assert direct_file == (tmp_path / "y.txt").read_text()


def test_parity_cases_set_every_flag():
    for path, (_, fields, options) in cli.SUBCOMMANDS.items():
        words = path.split()
        argvs = [argv for argv, _, _ in PARITY.values() if argv[:len(words)] == words]
        assert {*fields, *options} <= {arg for argv in argvs for arg in argv}, path


# the seed is read by tame tasks alone, so only family tame and run take --seed
@pytest.mark.parametrize("path", [path for path in cli.SUBCOMMANDS
                                  if path != "family tame"])
def test_seed_is_a_usage_error_where_no_task_reads_it(path, capsys):
    argv = next(argv for argv, _, _ in PARITY.values()
                if argv[:len(path.split())] == path.split())
    assert main([*argv, "--seed", "3"]) == EXIT_USAGE
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_run_seed_overrides_the_config_seed(tmp_path, capsys):
    task = {"command": "tame", "domain": L1N, "codomain": L1N2, "family": FAMILY}
    config = {"seed": 1, "tasks": [task], "output": {"dir": "out"}}
    flags = ["--n-max", "256", "--k-max", "3", "--m-max", "8"]
    assert main(["family", "tame", "--domain", json.dumps(L1N), "--codomain",
                 json.dumps(L1N2), "--family", json.dumps(FAMILY), "--seed", "5",
                 *flags]) == EXIT_OK
    direct = json.loads(capsys.readouterr().out)["report"]
    reports = {}
    for seed in (5, 6):
        assert run_config(tmp_path, config, [*flags, "--seed", str(seed)]) == EXIT_OK
        text = (tmp_path / "out" / "task-00-tame.json").read_text()
        reports[seed] = json.loads(text)["report"]
    assert reports[5] == direct
    assert reports[6] != direct


@pytest.mark.parametrize("fmt, names", [
    ("json", {"task-00-probe.json", "task-01-space-check.json", "summary.json"}),
    ("csv", {"task-00-probe.csv"}),
    ("both", {"task-00-probe.json", "task-00-probe.csv", "task-01-space-check.json",
              "summary.json"}),
])
def test_run_format_writes_its_file_set(fmt, names, tmp_path, capsys):
    config = base_config(tasks=[{"command": "probe", "operator": "T", "k": 1},
                                {"command": "space-check", "space": "A",
                                 "checks": ["stability"]}])
    assert run_config(tmp_path, config, ["--format", fmt, "--n-max", "64"]) == EXIT_OK
    assert {path.name for path in (tmp_path / "out").iterdir()} == names
    assert json.loads(capsys.readouterr().out)["exit_code"] == EXIT_OK


# a known window artefact: lower delta from Λ∞(log n) into Λ∞(√n) fails
# continuity, but the oracle's running sup reads a plateau below n_max 1024
CLASS_A = {"variant": "lower", "symbol": DELTA,
           "domain": {"kind": "power_series_infinite", "alpha": {"form": "log"}},
           "codomain": {"kind": "power_series_infinite",
                        "alpha": {"form": "power", "p": 0.5}}}


def test_a_theorem_oracle_conflict_exits_3(tmp_path, capsys):
    """The conflict code end to end, on the class A window artefact; a fix
    of the oracle's plateau reading that settles the class flips this test
    on purpose, and the conflict then needs another witness."""
    argv = ["cross-validate", "--operator", json.dumps(CLASS_A),
            "--property", "continuity"]
    assert main([*argv, "--n-max", "256"]) == EXIT_CONFLICT
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "conflict"
    assert payload["report"]["agreement"] == "conflict"
    assert main([*argv, "--n-max", "1024"]) == EXIT_OK
    capsys.readouterr()
    config = {"window": {"n_max": 256}, "output": {"dir": "out"},
              "tasks": [{"command": "cross-validate", "operator": CLASS_A,
                         "property": "continuity"}]}
    assert run_config(tmp_path, config) == EXIT_CONFLICT
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["exit_code"] == EXIT_CONFLICT
    assert summary["tasks"][0]["status"] == "conflict"


@pytest.mark.parametrize("flag", ["--n-max", "--k-max", "--m-max"])
@pytest.mark.parametrize("via_run", [False, True], ids=["direct", "run"])
def test_zero_window_flags_are_usage_errors(flag, via_run, tmp_path, capsys):
    # a zero must reach Window's checks, not read as an absent flag
    if via_run:
        config = base_config(tasks=[{"command": "space-check", "space": "C",
                                     "checks": ["stability"]}])
        code = run_config(tmp_path, config, (flag, "0"))
    else:
        code = main(["spaces", "check", "--space", json.dumps(LINFN),
                     "--checks", "stability", flag, "0"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith(
        "error: n_max must be >= 4" if flag == "--n-max"
        else "error: k_max and m_max must be >= 1")


FIELDS = ["kind", "alpha", "weights", "form", "p", "a", "b", "values", "r", "c",
          "d", "head", "lower", "upper", "variant", "symbol", "domain", "codomain"]
# every record rejects unknown keys; Window's and FamilySpec's objects draw these
FLAT_FIELDS = ["k_max", "m_max", "n_max", "l_slack", "subadd_m_max", "checkpoints",
               "plateau_tol", "growth_tol", "series_tail_rel", "series_growth_tol",
               "dense_cap", "sampler", "count", "seed", "r_min", "r_max", "signed",
               "constraint"]
NAMES = ["power_series_finite", "power_series_infinite", "general_koethe",
         "power", "log", "affine", "table", "explicit", "geometric",
         "exp_of_exponent", "polynomial", "identity", "linear",
         "lower", "upper", "full", "auto", "space", "dual"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
    | st.sampled_from(NAMES),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FIELDS), inner, max_size=6),
    max_leaves=20,
)
decoder_inputs = json_values | st.dictionaries(
    st.sampled_from(FLAT_FIELDS), json_values, max_size=6)


@settings(max_examples=300, deadline=None)
@given(data=decoder_inputs)
def test_decoders_raise_only_koethe_errors(data):
    for cls in (ExponentSequence, SpaceDescriptor, SymbolSpec, Symbol,
                ToeplitzOperator, SMap, Window, FamilySpec):
        try:
            cls.from_json(data)
        except KoetheError:
            pass


TASK_FIELDS = ["command", "operator", "space", "symbol", "part", "target", "checks",
               "k", "m", "norm", "input", "n", "method", "output", "variant",
               "domain", "codomain", "family", "s_map", "direction", "property"]
COMMANDS = ["space-check", "membership", "certify-continuity", "certify-compactness",
            "probe", "apply", "tame", "tame-condition", "cross-validate"]
config_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
    | st.sampled_from(NAMES + COMMANDS + ["A", "T"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FIELDS + TASK_FIELDS + ["A", "T", "dir",
                                                              "formats"]),
                      inner, max_size=6),
    max_leaves=24,
)
task_objects = st.dictionaries(st.sampled_from(TASK_FIELDS), config_values, max_size=5)
commanded = st.tuples(st.sampled_from(COMMANDS), task_objects).map(
    lambda pair: {**pair[1], "command": pair[0]})


def _named(values):
    return st.dictionaries(st.sampled_from(["A", "T"]), values, max_size=2)


config_inputs = config_values | st.fixed_dictionaries({}, optional={
    "window": st.just({"n_max": 64}) | config_values,
    "spaces": _named(config_values),
    "symbols": _named(config_values),
    "operators": _named(task_objects | config_values),
    "tasks": st.lists(commanded | task_objects, max_size=3) | config_values,
    "output": st.dictionaries(st.sampled_from(["dir", "formats"]), config_values,
                              max_size=2) | config_values,
    "seed": config_values,
})


@settings(max_examples=300, deadline=None)
@given(data=config_inputs)
def test_parse_config_raises_only_koethe_errors(data):
    try:
        parse_config(data)
    except KoetheError:
        pass


def test_non_finite_floats_have_one_spelling():
    payload = {"nan": math.nan, "inf": np.float64(math.inf), "ninf": [-math.inf],
               "finite": 0.5}
    assert json.loads(_dumps(payload), parse_constant=_reject_constant) == {
        "nan": "NaN", "inf": "Infinity", "ninf": ["-Infinity"], "finite": 0.5}


def _jsonify(obj):
    """The reference walk that reports were once encoded through: plain JSON
    values, with non-finite floats spelled as fixed strings."""
    if isinstance(obj, Mapping):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return "NaN" if math.isnan(obj) else ("Infinity" if obj > 0 else "-Infinity")
    return obj


def _walked_dumps(payload):
    return json.dumps(_jsonify(payload), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


#: strings that look like the non-finite tokens, or hold quotes and escapes
_tricky_text = st.lists(st.sampled_from(
    ["NaN", "Infinity", "-Infinity", '"', "\\", '\\"', "a", " ", ":", ",", "\n",
     "\u00e9"]), max_size=6).map("".join)
_leaves = (st.floats() | st.sampled_from([math.nan, math.inf, -math.inf])
           | st.integers() | st.booleans() | st.none() | _tricky_text)
_payloads = st.recursive(
    _leaves,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_tricky_text, inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_payloads)
def test_dumps_matches_the_reference_walk(payload):
    text = _dumps(payload)
    assert text == _walked_dumps(payload)
    json.loads(text, parse_constant=_reject_constant)  # strict JSON
