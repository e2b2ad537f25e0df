"""README examples run as written: the library tour prints the values its
comments show, and the config example parses."""

import contextlib
import io
import json
import re
from pathlib import Path

from koethe.cli import parse_config
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
