"""Exception hierarchy shared across the package, and the one JSON codec:
the encoders :func:`json_record` of the input records and
:func:`json_report` of the reports, the field checks that turn malformed
inline objects into configuration errors, and :func:`json_form`, the one
decoder of the input records."""

import dataclasses
import enum
import math
import numbers
from collections.abc import Mapping
from operator import attrgetter
from typing import Any, Callable


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
    "float_integer": ("an integer within float range",
                      lambda v: _is_integer(v) and _is_number(v)),
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


def json_field(data: Mapping[str, Any], key: str, kind: Any, what: str) -> Any:
    """``data[key]``, which must be present and of the JSON ``kind``; anything
    else is a ConfigurationError naming ``what``.

    A kind is one of:

    - a name in ``_KINDS``, and the value is returned as it is;
    - a choice, an enum class or a tuple of strings, and the value must be
      one of its values; an enum member is returned for an enum;
    - a record class, and the value is an object decoded by its
      ``from_json``.
    """
    if key not in data:
        raise ConfigurationError(f"{what}: missing field {key!r}")
    value = data[key]
    if isinstance(kind, (tuple, enum.EnumMeta)):
        choices = kind if isinstance(kind, tuple) else tuple(c.value for c in kind)
        if value not in choices:
            names = ", ".join(map(repr, choices[:-1]))
            raise ConfigurationError(
                f"{what}: expected {names} or {choices[-1]!r}, got {value!r}")
        return value if isinstance(kind, tuple) else kind(value)
    if not isinstance(kind, str):
        return kind.from_json(json_field(data, key, "object", what))
    desc, check = _KINDS[kind]
    if not check(value):
        raise ConfigurationError(f"{what}: field {key!r} must be {desc}")
    return value


def json_form(data: Any,
              forms: Mapping[Any, tuple[Callable[..., Any], Mapping[str, Any]]],
              what: str, tag: str | None = "form", optional: tuple[str, ...] = (),
              shared: tuple[str, ...] = ()) -> Any:
    """The record that a JSON object describes: its ``tag`` field picks one of
    ``forms``, which maps each tag value to the constructor of that form and
    the kinds of the fields it takes (as for :func:`json_field`); a record of
    one form has no tag (None), and its table has the one key None.  A key
    that the form does not take, other than the tag and the ``shared`` keys
    that the caller reads, is a ConfigurationError.  The constructor gets
    each field by name; a field named in ``optional`` may be absent, and
    then the constructor's default applies."""
    data = json_object(data, what)
    make, kinds = forms[json_field(data, tag, tuple(forms), what) if tag else None]
    unknown = set(data).difference(kinds, (tag,), shared)
    if unknown:
        raise ConfigurationError(f"unknown {what} fields: {sorted(unknown, key=str)}")
    return make(**{key: json_field(data, key, kind, what) for key, kind in kinds.items()
                   if key in data or key not in optional})


def json_record(record: Any) -> dict[str, Any]:
    """The JSON object of an input record: its :func:`json_report` without
    the fields that are not set (None).  It round-trips through the
    record's ``from_json``."""
    return {key: value for key, value in json_report(record).items()
            if value is not None}


def json_report(report: Any) -> dict[str, Any]:
    """The JSON object of a report: its dataclass fields, or the keys of its
    class's ``JSON_KEYS`` table (key -> source), None written as null.  A
    source is an attribute name, a dotted path into a nested record
    (``"verdict.outcome"``) or a function of the report that returns the
    key's JSON value.  Enums are written by value, tuples as arrays,
    mappings as objects with string keys, and nested records and reports
    through their own ``to_json``."""
    keys = getattr(report, "JSON_KEYS", None)
    if keys is None:
        return {f.name: _json_value(getattr(report, f.name))
                for f in dataclasses.fields(report)}
    return {key: source(report) if callable(source)
            else _json_value(attrgetter(source)(report))
            for key, source in keys.items()}


#: values written as they are; the type test is the cheap first check
_PLAIN = (bool, int, float, str, type(None))


def _json_value(value: Any) -> Any:
    if type(value) in _PLAIN:
        return value
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    # a plain dict copy, never a report's own (possibly read-only, shared) mapping
    if isinstance(value, Mapping):
        return {str(k): _json_value(v) for k, v in value.items()}
    return value.to_json() if dataclasses.is_dataclass(value) else value
