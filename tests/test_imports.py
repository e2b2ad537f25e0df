"""No module of the package imports a name that it never uses, or defines
a top-level name that nothing reads.

The test environment ships no linter, so these stdlib ``ast`` checks stand
in for one.  A name counts as used when the module reads it (in code or in
a quoted annotation), lists it in ``__all__``, or when another file under
``src``, ``tests`` or ``perfbench`` imports it from, or reads it off, this
module: a re-export.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "koethe"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(PACKAGE.glob("*.py"))}


def _imported(tree: ast.Module) -> dict[str, int]:
    """{name bound by an import: its line}."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    out[alias.asname or alias.name] = alias.lineno
    return out


def _defined(tree: ast.Module) -> dict[str, int]:
    """{top-level name the module defines, dunders aside: its line}."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out |= {name.id: node.lineno for target in targets
                    for name in ast.walk(target) if isinstance(name, ast.Name)}
    return {name: line for name, line in out.items() if not name.startswith("__")}


def _names(tree: ast.AST) -> set[str]:
    """Names read, not those assigned or deleted."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _read(tree: ast.Module) -> set[str]:
    """Names the module reads, those inside quoted annotations included."""
    names = _names(tree)
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            args = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            roots += [arg.annotation for arg in args if arg is not None]
            roots.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
        elif isinstance(node, ast.Subscript):
            roots.append(node.slice)
    for root in filter(None, roots):
        for node in ast.walk(root):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _names(ast.parse(node.value, mode="eval"))
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _reexported() -> dict[str, set[str]]:
    """{module: names that other files import from it or read off it}."""
    out = {name: set() for name in MODULES}
    files = [p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")]
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module:
                module = node.module.rsplit(".", 1)[-1]
                if module in out:
                    out[module] |= {alias.name for alias in node.names}
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in out):
                out[node.value.id].add(node.attr)
    return out


def test_package_has_no_unused_imports():
    reexported = _reexported()
    unused = []
    for module, tree in MODULES.items():
        used = _read(tree) | _exported(tree) | reexported[module]
        unused += [f"{module}.py:{line}: {name}"
                   for name, line in sorted(_imported(tree).items(),
                                            key=lambda item: item[1])
                   if name not in used]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_package_defines_no_unread_names():
    reexported = _reexported()
    unread = []
    for module, tree in MODULES.items():
        used = _read(tree) | _exported(tree) | reexported[module]
        unread += [f"{module}.py:{line}: {name}"
                   for name, line in sorted(_defined(tree).items(),
                                            key=lambda item: item[1])
                   if name not in used]
    assert not unread, "unread top-level names:\n" + "\n".join(unread)


def test_the_check_sees_an_unread_definition():
    tree = ast.parse("A = 1\nB: int = A\ndef f(): return B\nclass C: pass\n")
    assert set(_defined(tree)) - _read(tree) == {"f", "C"}


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from typing import Any, Mapping\n"
                     "x: 'Mapping[str, int]' = {}\n")
    assert set(_imported(tree)) - _read(tree) == {"Any"}
