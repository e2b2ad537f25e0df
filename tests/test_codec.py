"""The JSON codec: every input record round-trips through the bytes that
``koethe`` writes, for every form; the field kinds and form tables of the
decoders name what they admit; and every record and report is encoded by
one of the two encoders of ``koethe.errors``."""

import dataclasses
import importlib
import json
import pkgutil
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import koethe
from koethe.cli import _dumps
from koethe.criteria import (FamilySpec, OperatorTemplate, SMap, continuity_verdict,
                             tame_condition_certify)
from koethe.errors import ConfigurationError, json_field, json_record, json_report
from koethe.operators import NormKind, Symbol, SymbolSpec, ToeplitzOperator, Variant
from koethe.oracle import cross_validate
from koethe.spaces import ExponentSequence, SpaceDescriptor
from koethe.verdicts import Window

# below 1e150, c * alpha_1 of an exp_of_exponent head stays in float range:
# past it, Symbol's diagonal check warns of an overflow (see CHANGES.md)
finite = st.floats(-1e150, 1e150)
nonzero = finite.filter(bool)
nonneg = st.floats(0.0, 1e150)

exponents = st.one_of(
    st.builds(ExponentSequence.power,
              st.floats(0.0, 1e150, exclude_min=True)),
    st.just(ExponentSequence.logarithmic()),
    st.builds(ExponentSequence.affine, nonneg),
    st.builds(ExponentSequence.affine, nonneg, nonneg),
    st.builds(ExponentSequence.table, st.lists(nonneg, min_size=1, max_size=6).map(sorted)),
)

weight_rows = st.integers(1, 3).flatmap(lambda width: st.lists(
    st.lists(nonneg, min_size=width, max_size=width).map(sorted).filter(lambda r: r[-1] > 0),
    min_size=1, max_size=4))
spaces = st.one_of(
    st.builds(SpaceDescriptor.power_series_finite, exponents),
    st.builds(SpaceDescriptor.power_series_infinite, exponents),
    st.builds(SpaceDescriptor.general, weight_rows),
)

bare_parts = st.one_of(
    st.builds(SymbolSpec.explicit, st.lists(finite, max_size=5)),
    st.builds(SymbolSpec.geometric, finite),
    st.builds(SymbolSpec.exp_of_exponent, finite, exponents),
    st.builds(SymbolSpec.polynomial, st.integers()),
)
parts = bare_parts | st.builds(SymbolSpec.with_head, bare_parts, finite)
# both parts carry the diagonal, so both heads must be nonzero
split_parts = st.builds(SymbolSpec.with_head, bare_parts, nonzero)
symbols = st.one_of(
    st.builds(Symbol, lower=parts),
    st.builds(Symbol, upper=parts),
    st.builds(Symbol, lower=split_parts, upper=split_parts),
)


@st.composite
def operators(draw):
    symbol = draw(symbols)
    variants = [v for v, part in ((Variant.LOWER, symbol.lower),
                                  (Variant.UPPER, symbol.upper)) if part is not None]
    if len(variants) == 2:
        variants.append(Variant.FULL)
    return ToeplitzOperator(symbol, draw(st.sampled_from(variants)),
                            draw(spaces), draw(spaces))


s_maps = st.one_of(
    st.just(SMap.identity()),
    st.builds(SMap.linear, st.floats(1.0, 1e150)),
    st.builds(SMap.table, st.lists(st.integers(1, 10**6), min_size=1, max_size=6)
              .map(sorted)),
)

families = st.builds(
    lambda bounds, **kw: FamilySpec(r_min=min(bounds), r_max=max(bounds), **kw),
    st.tuples(nonneg, nonneg), count=st.integers(1, 10**6),
    seed=st.integers(0, 2**64), signed=st.booleans())

templates = st.builds(OperatorTemplate, st.sampled_from(list(Variant)), spaces, spaces)


@st.composite
def windows(draw):
    n_max = draw(st.integers(4, 10**6))
    plateau = draw(st.floats(0.0, 1e150, exclude_min=True))
    growth = draw(st.floats(plateau, 1e300, exclude_min=True))
    checkpoints = draw(st.none() | st.lists(st.integers(1, n_max - 1), min_size=1,
                                            max_size=4, unique=True))
    win = Window(k_max=draw(st.integers(1, 100)), m_max=draw(st.integers(1, 100)),
                 n_max=n_max, l_slack=draw(st.integers(min_value=0)),
                 subadd_m_max=draw(st.integers(min_value=1)), plateau_tol=plateau,
                 growth_tol=growth,
                 series_tail_rel=draw(st.floats(0.0, 1.0, exclude_min=True,
                                                exclude_max=True)),
                 series_growth_tol=draw(st.floats(0.0, 1e150, exclude_min=True)),
                 dense_cap=draw(st.integers(min_value=1)))
    if checkpoints is not None:
        win = dataclasses.replace(win, checkpoints=(*sorted(checkpoints), n_max))
    return win


records = st.one_of(exponents, spaces, parts, symbols, operators(), s_maps, families,
                    windows())


@settings(max_examples=400, deadline=None)
@given(record=records)
def test_input_records_round_trip_through_their_report_bytes(record):
    text = _dumps(record.to_json())
    back = type(record).from_json(json.loads(text))
    assert back == record
    assert _dumps(back.to_json()) == text


# keys that some record reads, and misspellings of them
FIELD_NAMES = sorted({f.name for cls in (ExponentSequence, SpaceDescriptor, SymbolSpec,
                                          Symbol, ToeplitzOperator, SMap, FamilySpec,
                                          Window)
                      for f in dataclasses.fields(cls)} | {"uper", "haed", "B", "norm"})


@settings(max_examples=300, deadline=None)
@given(record=records, key=st.sampled_from(FIELD_NAMES) | st.text(max_size=6))
def test_input_records_refuse_a_key_that_they_do_not_read(record, key):
    assume(key not in {f.name for f in dataclasses.fields(record)})
    with pytest.raises(ConfigurationError) as info:
        type(record).from_json({**record.to_json(), key: 1})
    assert str(info.value).endswith(f" fields: {[key]}")


GEO_PART = {"form": "geometric", "r": 0.5}
LOG_SPACE = {"kind": "power_series_finite", "alpha": {"form": "log"}}


@pytest.mark.parametrize("cls, data, message", [
    (ExponentSequence, {"form": "affine", "a": 1.0, "B": 2.0},
     "unknown exponent sequence fields: ['B']"),
    (SpaceDescriptor, {**LOG_SPACE, "weights": [[1.0]]},
     "unknown space fields: ['weights']"),
    (SMap, {"form": "identity", "a": 2.0}, "unknown index map fields: ['a']"),
    (SymbolSpec, {**GEO_PART, "haed": 2.0}, "unknown symbol part fields: ['haed']"),
    (Symbol, {"lower": GEO_PART, "uper": GEO_PART}, "unknown symbol fields: ['uper']"),
    (ToeplitzOperator, {"variant": "lower", "symbol": {"lower": GEO_PART},
                        "domain": LOG_SPACE, "codomain": LOG_SPACE, "norm": "sup", "k": 1},
     "unknown operator fields: ['k', 'norm']"),
], ids=["exponent-sequence", "space", "index-map", "symbol-part", "symbol", "operator"])
def test_a_record_names_the_keys_that_it_does_not_read(cls, data, message):
    with pytest.raises(ConfigurationError) as info:
        cls.from_json(data)
    assert str(info.value) == message


def test_records_built_with_lists_equal_those_built_with_tuples():
    # a list field would leave the record unhashable for the memoised decisions
    space = SpaceDescriptor.power_series_finite(ExponentSequence.power(1.0))
    op = ToeplitzOperator(Symbol(lower=SymbolSpec.geometric(0.5)), Variant.LOWER,
                          space, space)
    listed = Window(n_max=64, checkpoints=[16, 32, 64])
    tupled = Window(n_max=64, checkpoints=(16, 32, 64))
    s_map = SMap(form="table", values=list(range(1, 13)))
    assert (listed, s_map) == (tupled, SMap.table(range(1, 13)))
    assert continuity_verdict(op, listed) == continuity_verdict(op, tupled)
    assert cross_validate(op, listed) == cross_validate(op, tupled)
    assert (tame_condition_certify(s_map, space, space, Variant.LOWER, listed)
            == tame_condition_certify(SMap.table(range(1, 13)), space, space,
                                      Variant.LOWER, tupled))


@pytest.mark.parametrize("d", [10**400, -10**400], ids=["1e400", "-1e400"])
def test_the_constructor_refuses_a_degree_that_the_decoder_refuses(d):
    # built through the Python API, such a degree would neither round-trip
    # nor evaluate; one within float range does both
    message = re.escape("symbol part: field 'd' must be an integer within float range")
    with pytest.raises(ConfigurationError, match=message):
        SymbolSpec.polynomial(d)
    with pytest.raises(ConfigurationError, match=message):
        SymbolSpec.from_json({"form": "polynomial", "d": d})
    spec = SymbolSpec.polynomial(d // 10**100)
    assert SymbolSpec.from_json(json.loads(_dumps(spec.to_json()))) == spec


@settings(max_examples=100, deadline=None)
@given(template=templates, first=parts, second=split_parts)
def test_operator_template_encodes_as_its_operators_without_the_symbol(template, first,
                                                                       second):
    if template.variant is Variant.FULL:
        first = first.with_head(second.head)
    encoded = template.build(first, second).to_json()
    del encoded["symbol"]
    assert _dumps(template.to_json()) == _dumps(encoded)


# -- field kinds ------------------------------------------------------------------


@pytest.mark.parametrize("kind, value, message", [
    (NormKind, "max", "expected 'sum' or 'sup', got 'max'"),
    (Variant, 5, "expected 'lower', 'upper' or 'full', got 5"),
    (("fast", "dense"), None, "expected 'fast' or 'dense', got None"),
])
def test_a_choice_field_admits_one_of_its_values(kind, value, message):
    with pytest.raises(ConfigurationError) as info:
        json_field({"key": value}, "key", kind, "task.key")
    assert str(info.value) == f"task.key: {message}"
    with pytest.raises(ConfigurationError, match="^task.key: missing field 'key'$"):
        json_field({}, "key", kind, "task.key")


def test_a_choice_field_returns_the_enum_member_or_the_string():
    assert json_field({"norm": "sup"}, "norm", NormKind, "probe") is NormKind.SUP
    assert json_field({"method": "dense"}, "method", ("fast", "dense"), "apply") == "dense"


def test_a_record_field_decodes_through_its_class():
    data = {"alpha": {"form": "log"}, "bad": [1.0]}
    assert json_field(data, "alpha", ExponentSequence, "space") == \
        ExponentSequence.logarithmic()
    with pytest.raises(ConfigurationError, match="^space: field 'bad' must be an object$"):
        json_field(data, "bad", ExponentSequence, "space")


@pytest.mark.parametrize("cls, data, message", [
    (ExponentSequence, {"form": "cubic"},
     "exponent sequence: expected 'power', 'log', 'affine' or 'table', got 'cubic'"),
    (SpaceDescriptor, {"alpha": {"form": "log"}}, "space: missing field 'kind'"),
    (SymbolSpec, {"form": ["geometric"], "r": 0.5},
     "symbol part: expected 'explicit', 'geometric', 'exp_of_exponent' or "
     "'polynomial', got ['geometric']"),
    (SMap, {"form": "table"}, "index map: missing field 'values'"),
])
def test_a_tagged_record_names_its_forms(cls, data, message):
    with pytest.raises(ConfigurationError) as info:
        cls.from_json(data)
    assert str(info.value) == message


def test_optional_fields_keep_their_defaults():
    assert ExponentSequence.from_json({"form": "affine", "a": 2}) == \
        ExponentSequence.affine(2.0)
    assert SymbolSpec.from_json({"form": "geometric", "r": 0.5, "head": 2}) == \
        SymbolSpec.geometric(0.5).with_head(2.0)


# -- encoders ---------------------------------------------------------------------


def encoded_classes():
    """Every dataclass defined in ``koethe.*`` that has a ``to_json``."""
    for info in pkgutil.iter_modules(koethe.__path__, "koethe."):
        module = importlib.import_module(info.name)
        for cls in vars(module).values():
            if (isinstance(cls, type) and cls.__module__ == module.__name__
                    and dataclasses.is_dataclass(cls) and hasattr(cls, "to_json")):
                yield cls


def test_no_record_or_report_has_a_hand_written_encoder():
    classes = list(encoded_classes())
    hand_written = sorted(cls.__qualname__ for cls in classes
                          if cls.to_json not in (json_record, json_report))
    assert not hand_written, f"encoders outside koethe.errors: {hand_written}"
    # the walk sees the 9 input records and the 16 reports
    assert len(classes) >= 25

