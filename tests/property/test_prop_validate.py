"""The schemas' exact-type fast path against the coerce-every-value path.

``RelationSchema.tuple_from_mapping``, ``ExtendedRelationSchema
.tuple_from_mapping`` and ``ExtendedRelationSchema.validate_tuple`` accept
a value of exactly its domain's Python type as is and send everything
else through :func:`coerce_value`.  The reference functions below are
the plain loops that call :func:`coerce_value` on every value; the
schemas must return equal values of equal types, or raise the same
error with the same message.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from types import MappingProxyType

from hypothesis import given, strategies as st

from repro.errors import SchemaError, UnknownAttributeError, VirtualAttributeError
from repro.model.attributes import Attribute
from repro.model.schema import RelationSchema
from repro.model.types import DataType, coerce_value
from repro.model.xschema import ExtendedRelationSchema


class Label(str):
    """A ``str`` subclass: valid STRING, but not of the exact type."""


values = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.just(math.nan),
    st.text(max_size=4),
    st.text(max_size=4).map(Label),
    st.binary(max_size=4),
    st.none(),
)

NAMES = ("a", "b", "c", "d", "e")


@st.composite
def xschemas(draw):
    count = draw(st.integers(min_value=1, max_value=len(NAMES)))
    attributes = [
        Attribute(name, draw(st.sampled_from(list(DataType))))
        for name in NAMES[:count]
    ]
    virtual = draw(st.sets(st.sampled_from(NAMES[:count]), max_size=count - 1))
    return ExtendedRelationSchema("r", attributes, virtual)


@st.composite
def rows(draw, names, others):
    """A name→value row over ``names``, sometimes with a key dropped or
    one of ``others`` added, in one of several mapping types."""
    row = {name: draw(values) for name in names}
    change = draw(st.sampled_from(("none", "none", "drop", "add")))
    if change == "drop" and row:
        del row[draw(st.sampled_from(sorted(row)))]
    elif change == "add" and others:
        row[draw(st.sampled_from(others))] = draw(values)
    kind = draw(st.sampled_from((dict, dict, OrderedDict, MappingProxyType)))
    return kind(row)


def outcome(call):
    """``("ok", [(type, repr)...])`` or ``("error", type, message)``."""
    try:
        result = call()
    except SchemaError as exc:
        return ("error", type(exc), str(exc))
    assert type(result) is tuple
    return ("ok", [(type(v), repr(v)) for v in result])


def reference_validate(schema: ExtendedRelationSchema, values) -> tuple:
    if len(values) != len(schema.real_attributes):
        raise SchemaError(
            f"tuple of length {len(values)} does not fit the real schema "
            f"of {schema.name!r} (|realSchema| = {len(schema.real_attributes)})"
        )
    return tuple(
        coerce_value(v, a.dtype) for a, v in zip(schema.real_attributes, values)
    )


def reference_xmapping(schema: ExtendedRelationSchema, mapping) -> tuple:
    virtual_given = set(mapping) & schema.virtual_names
    if virtual_given:
        raise VirtualAttributeError(
            f"virtual attributes {sorted(virtual_given)} cannot be given "
            f"values in tuples of schema {schema.name!r}"
        )
    extra = set(mapping) - schema.name_set
    if extra:
        raise UnknownAttributeError(sorted(extra)[0], schema.name)
    out = []
    for attribute in schema.real_attributes:
        if attribute.name not in mapping:
            raise SchemaError(
                f"missing value for real attribute {attribute.name!r} "
                f"of schema {schema.name!r}"
            )
        out.append(coerce_value(mapping[attribute.name], attribute.dtype))
    return tuple(out)


def reference_mapping(schema: RelationSchema, mapping) -> tuple:
    extra = set(mapping) - schema.name_set
    if extra:
        raise UnknownAttributeError(sorted(extra)[0])
    try:
        return tuple(coerce_value(mapping[a.name], a.dtype) for a in schema)
    except KeyError as exc:
        raise SchemaError(f"missing value for attribute {exc.args[0]!r}") from None


@given(st.sampled_from(list(DataType)), values)
def test_single_value_matches_coerce_value(dtype, value):
    schema = ExtendedRelationSchema("r", [Attribute("a", dtype)])
    assert outcome(lambda: schema.validate_tuple((value,))) == outcome(
        lambda: (coerce_value(value, dtype),)
    )


@given(xschemas(), st.data())
def test_validate_tuple_matches_reference(schema, data):
    arity = len(schema.real_attributes)
    size = data.draw(st.sampled_from((arity, arity, arity, arity + 1, arity - 1)))
    items = [data.draw(values) for _ in range(max(size, 0))]
    container = data.draw(st.sampled_from((tuple, list)))
    candidate = container(items)
    assert outcome(lambda: schema.validate_tuple(candidate)) == outcome(
        lambda: reference_validate(schema, candidate)
    )


@given(xschemas(), st.data())
def test_extended_tuple_from_mapping_matches_reference(schema, data):
    others = sorted(schema.virtual_names) + ["zz"]
    row = data.draw(rows(sorted(schema.real_names), others))
    assert outcome(lambda: schema.tuple_from_mapping(row)) == outcome(
        lambda: reference_xmapping(schema, row)
    )


@given(xschemas(), st.data())
def test_relation_tuple_from_mapping_matches_reference(xschema, data):
    schema = RelationSchema(xschema.attributes)
    row = data.draw(rows(list(schema.names), ["zz"]))
    assert outcome(lambda: schema.tuple_from_mapping(row)) == outcome(
        lambda: reference_mapping(schema, row)
    )


def test_exact_tuple_is_returned_as_is():
    schema = ExtendedRelationSchema(
        "r", [Attribute("s", DataType.STRING), Attribute("x", DataType.REAL)]
    )
    values = ("a", 1.5)
    assert schema.validate_tuple(values) is values
    coerced = schema.validate_tuple(("a", 1))
    assert coerced == ("a", 1.0) and type(coerced[1]) is float
