"""Per-layer tracing of koethe from outside the package.

The traced run wraps the public entry points of each module (`operators`,
`spaces`, `criteria`, `oracle`, `verdicts`, `cli`).  Modules bind each
other's functions by name (`from .operators import column_norm_profile`),
so a wrapper is installed on every koethe module attribute that refers to
the original object, not only in the defining module.  A layer's self time
is its wall time minus the time spent in wrapped calls it made.

The three `lru_cache`s are held here by their original callables, captured
when this module is imported and before any wrapper exists: a wrapper does
not carry `cache_clear` or `cache_info`.
"""

from __future__ import annotations

import sys
import time

from koethe import cli, criteria, operators, oracle, spaces, verdicts

#: original cached callables, keyed by metric prefix
CACHES = {
    "operators.column_norm_profile": operators.column_norm_profile,
    "spaces.weight_array": spaces.weight_array,
    "spaces._exponent_values": spaces._exponent_values,
}

#: wrapped entry points whose calls and self time are measured
TIMED = (
    "operators.column_norm_profile",
    "operators.membership_in_space",
    "operators.membership_in_dual",
    "operators.apply_fast",
    "spaces.classify_series",
    "spaces.subadditivity_constant",
    "spaces.nuclearity_verdict",
    "criteria.certify",
    "criteria.continuity_verdict",
    "criteria.compactness_verdict",
    "criteria.tameness_check",
    "oracle.oracle_continuity",
    "oracle.oracle_compactness",
    "oracle.ratio_curve",
    "oracle.cross_validate",
    "cli.parse_config",
    "cli.run_tasks",
    "cli.read_vector",
    "cli.write_vector",
)

#: layers whose distinct inputs are counted: pure work repeated per operator
DISTINCT = ("spaces.subadditivity_constant", "spaces.nuclearity_verdict")

_MODULES = {"operators": operators, "spaces": spaces, "criteria": criteria,
            "oracle": oracle, "verdicts": verdicts, "cli": cli}


def clear_caches() -> None:
    for fn in CACHES.values():
        fn.cache_clear()


def cache_snapshot() -> dict:
    return {name: fn.cache_info() for name, fn in CACHES.items()}


def _koethe_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "koethe" or name.startswith("koethe."))]


def rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Point every koethe module attribute bound to `original` at
    `replacement`; returns (module, name, original) for undoing it."""
    undo = []
    for module in _koethe_modules():
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                undo.append((module, name, original))
    return undo


def restore(undo: list[tuple[object, str, object]]) -> None:
    for module, name, original in reversed(undo):
        setattr(module, name, original)


class Tracer:
    """Call counts and self time per wrapped layer, for one pass."""

    def __init__(self):
        self.calls = {name: 0 for name in TIMED}
        self.self_s = {name: 0.0 for name in TIMED}
        self.inputs = {name: set() for name in DISTINCT}
        self.classify_sup_calls = 0
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []
        self._classify_sup = None

    def _wrap(self, name, fn):
        calls, self_s = self.calls, self.self_s
        stack = self._stack
        seen = self.inputs.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if seen is not None:
                seen.add((args, tuple(sorted(kwargs.items()))))
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - children

        return traced

    def __enter__(self) -> "Tracer":
        for name in TIMED:
            module, attr = name.split(".")
            original = getattr(_MODULES[module], attr)
            self._undo += rebind(original, self._wrap(name, original))
        original = verdicts.Window.classify_sup

        def counted(window, *args, **kwargs):
            self.classify_sup_calls += 1
            return original(window, *args, **kwargs)

        self._classify_sup = original
        verdicts.Window.classify_sup = counted
        return self

    def __exit__(self, *exc) -> None:
        verdicts.Window.classify_sup = self._classify_sup
        restore(self._undo)
        self._undo = []

    def metrics(self, before: dict, after: dict) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the traced pass; `before`/`after` are
        `cache_snapshot()`s taken around it."""
        out: dict[str, tuple[float, str]] = {}
        for name in TIMED:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        for name in DISTINCT:
            distinct = len(self.inputs[name])
            calls = self.calls[name]
            out[f"{name}.distinct"] = (distinct, "count")
            out[f"{name}.distinct_ratio"] = (distinct / calls if calls else 0.0, "ratio")
        for name in ("operators.column_norm_profile", "spaces.weight_array"):
            hits = after[name].hits - before[name].hits
            misses = after[name].misses - before[name].misses
            out[f"{name}.hits"] = (hits, "count")
            out[f"{name}.misses"] = (misses, "count")
        name = "operators.column_norm_profile"
        hits, misses = out[f"{name}.hits"][0], out[f"{name}.misses"][0]
        grown = after[name].currsize - before[name].currsize
        out[f"{name}.currsize"] = (grown, "count")
        # every miss inserts one entry; inserts that did not grow the cache evicted one
        out[f"{name}.evictions"] = (misses - grown, "count")
        out[f"{name}.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0,
                                    "ratio")
        out["verdicts.Window.classify_sup.calls"] = (self.classify_sup_calls, "count")
        return out

    def binding_errors(self, before: dict, after: dict) -> list[str]:
        """A wrapped call count that disagrees with the cache counters means
        some binding of the function escaped the wrapper."""
        name = "operators.column_norm_profile"
        lookups = ((after[name].hits - before[name].hits)
                   + (after[name].misses - before[name].misses))
        if self.calls[name] != lookups:
            return [f"{name}: {self.calls[name]} wrapped calls but "
                    f"{lookups} cache lookups"]
        return []
