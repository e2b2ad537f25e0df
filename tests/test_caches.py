"""Every ``functools`` cache in the package is one the benchmark clears.

``perfbench/layers.py::CACHES`` lists the caches a benchmark pass starts
cold from.  A memo outside that list would stay warm from one pass to the
next, and the run, which reports its fastest pass, would claim a gain that
no cold ``koethe`` process gets.  This stdlib ``ast`` check reads both
sides; it changes nothing under ``perfbench/``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "koethe"
LAYERS = ROOT / "perfbench" / "layers.py"
CACHE_NAMES = {"lru_cache", "cache"}


def _is_cache(node: ast.expr) -> bool:
    """``lru_cache``, ``cache``, ``functools.<either>``, or a call of one."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return (node.attr in CACHE_NAMES and isinstance(node.value, ast.Name)
                and node.value.id == "functools")
    return isinstance(node, ast.Name) and node.id in CACHE_NAMES


def cached_names(module: str, tree: ast.Module) -> set[str]:
    """'module.name' of each function a cache wraps, as a decorator
    (methods as 'module.Class.name') or by a top-level assignment."""
    out = set()

    def visit(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_is_cache(d) for d in node.decorator_list):
                    out.add(f"{prefix}{node.name}")
            elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                    and _is_cache(node.value.func)):
                out.update(f"{prefix}{t.id}" for t in node.targets
                           if isinstance(t, ast.Name))

    visit(tree.body, f"{module}.")
    return out


def listed_caches() -> set[str]:
    """The keys of ``CACHES`` in perfbench/layers.py."""
    for node in ast.parse(LAYERS.read_text(encoding="utf-8")).body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        if any(getattr(t, "id", None) == "CACHES" for t in targets):
            return {key.value for key in node.value.keys}
    raise AssertionError("perfbench/layers.py defines no CACHES")


def test_every_package_cache_is_cleared_by_the_benchmark():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= cached_names(path.stem, ast.parse(path.read_text(encoding="utf-8")))
    unlisted = sorted(found - listed_caches())
    assert not unlisted, ("caches missing from perfbench/layers.py::CACHES:\n"
                          + "\n".join(unlisted))
    assert found, "the check found no cache at all"


def test_the_check_sees_every_form_of_cache():
    tree = ast.parse(
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=8)\ndef a(x): return x\n"
        "@functools.cache\ndef b(x): return x\n"
        "class C:\n"
        "    @cache\n    def c(self): return 1\n"
        "d = functools.lru_cache(maxsize=None)(len)\n"
        "e = cache(len)\n"
        "@staticmethod\ndef f(x): return x\n")
    assert cached_names("m", tree) == {"m.a", "m.b", "m.C.c", "m.d", "m.e"}
