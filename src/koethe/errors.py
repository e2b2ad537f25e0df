"""Exception hierarchy shared across the package, and the JSON field checks
that turn malformed inline objects into configuration errors."""

import math
import numbers
from typing import Any, Mapping


class KoetheError(Exception):
    """Base class for all errors raised by this package."""


class WindowError(KoetheError, IndexError):
    """Access outside a tabulated window, or a truncation cap exceeded."""


class InvariantError(KoetheError, ValueError):
    """A domain-type invariant would be violated by the requested construction."""


class NotWellDefinedError(KoetheError):
    """The requested operator is not well defined between the given spaces."""


class UnsupportedCombinationError(KoetheError):
    """No decision rule covers this (variant, domain, codomain) combination."""


class ConfigurationError(KoetheError, ValueError):
    """Invalid window, search bounds, or experiment configuration."""


# ---------------------------------------------------------------------------
# decoding helpers: malformed JSON objects fail as configuration errors
# ---------------------------------------------------------------------------


def _is_number(value: Any) -> bool:
    # the plain-type test first: the ABC check is slow on long weight tables
    plain = isinstance(value, (int, float))
    if isinstance(value, bool) or not (plain or isinstance(value, numbers.Real)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond float range
        return False


def _is_numbers(value: Any) -> bool:
    return isinstance(value, (list, tuple)) and all(map(_is_number, value))


def _is_integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_KINDS = {
    "number": ("a finite number", _is_number),
    "numbers": ("an array of finite numbers", _is_numbers),
    "rows": ("an array of arrays of finite numbers",
             lambda v: isinstance(v, (list, tuple)) and all(map(_is_numbers, v))),
    "integer": ("an integer", _is_integer),
    "integers": ("an array of integers",
                 lambda v: isinstance(v, (list, tuple)) and all(map(_is_integer, v))),
    "boolean": ("a boolean", lambda v: isinstance(v, bool)),
    "object": ("an object", lambda v: isinstance(v, Mapping)),
    "string": ("a string", lambda v: isinstance(v, str)),
    "strings": ("an array of strings",
                lambda v: isinstance(v, (list, tuple)) and all(isinstance(s, str) for s in v)),
}


def json_object(data: Any, what: str) -> Mapping[str, Any]:
    """``data`` if it is a decoded JSON object, else a ConfigurationError."""
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"{what}: expected a JSON object, got {type(data).__name__}")
    return data


def json_field(data: Mapping[str, Any], key: str, kind: str, what: str) -> Any:
    """``data[key]``, which must be present and of the JSON ``kind`` named in
    ``_KINDS``; anything else is a ConfigurationError naming ``what``."""
    if key not in data:
        raise ConfigurationError(f"{what}: missing field {key!r}")
    desc, check = _KINDS[kind]
    value = data[key]
    if not check(value):
        raise ConfigurationError(f"{what}: field {key!r} must be {desc}")
    return value


def json_fields(data: Any, kinds: Mapping[str, str], what: str) -> dict[str, Any]:
    """The fields of a JSON object whose every key is named in ``kinds``
    (key -> kind, as for :func:`json_field`); absent keys are left out, so
    the caller's defaults apply."""
    unknown = set(json_object(data, what)) - set(kinds)
    if unknown:
        raise ConfigurationError(f"unknown {what} fields: {sorted(unknown)}")
    return {key: json_field(data, key, kind, what)
            for key, kind in kinds.items() if key in data}
