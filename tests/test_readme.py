"""README examples run as written: the library tour prints the values its
comments show, and the config example parses."""

import contextlib
import io
import json
import re
from pathlib import Path

from koethe.cli import SUBCOMMANDS, parse_config
from koethe.operators import Variant

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(after: str, lang: str) -> str:
    """The first fenced ``lang`` block after the line ``after``."""
    start = README.index(after)
    match = re.compile(rf"^```{lang}\n(.*?)^```", re.M | re.S).search(README, start)
    return match.group(1)


def test_library_tour_prints_what_its_comments_show():
    code = _block("## Library tour", "python")
    expected = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert expected == ["Outcome.HOLDS", "1", "Agreement.AGREE"]
    assert out.getvalue().splitlines() == expected


def test_config_example_parses():
    config = parse_config(json.loads(_block("koethe run --config", "json")))
    assert config.operators["T"].variant is Variant.LOWER
    assert [task["command"] for task in config.tasks] == [
        "certify-compactness", "cross-validate", "probe"]


def _readme_row(path: str, command: str, fields: dict) -> tuple[str, str, str]:
    """The README table row of a direct subcommand: a flag that names its task
    command is written after its path, as ``--property P``."""
    cells = []
    for flag, options in fields.items():
        dest = options.get("dest") if isinstance(options, dict) else None
        field = dest or flag[2:].replace("-", "_")
        if f"{{{field}}}" in command:
            command = command.replace(f"{{{field}}}", field[0].upper())
            path += f" {flag} {field[0].upper()}"
        else:
            cells.append(f"`{field}` (`{flag}`)" if dest else f"`{field}`")
    return f"`{path}`", f"`{command}`", ", ".join(cells)


def test_direct_subcommand_table_matches_the_parser():
    start = README.index("| direct subcommand | task command | fields from flags |")
    lines = README[start:].split("\n\n", 1)[0].splitlines()[2:]
    rows = [tuple(cell.strip() for cell in line.strip("|").split("|")) for line in lines]
    assert rows == [_readme_row(path, command, fields)
                    for path, (command, fields, _) in SUBCOMMANDS.items()]
