"""Differential: the page codec in the json C scanner vs the per-cell spelling.

``encode_row`` is one ``JSONEncoder`` call whose ``default`` tags the cells
JSON cannot spell, and ``decode_page`` is one ``JSONDecoder`` call whose
``object_hook`` untags them as the scanner meets them.  The spelling they
replaced — ``json.dumps([encode_cell(v) for v in row], …)`` and
``decode_rows(json.loads(payload))`` — is kept as the oracle
(``tests/reference/reference_page_codec.py``): the
bytes must be equal and the values must come back equal *and* of equal
type, for every cell kind a table or a shaped caseset can hold.
"""

import datetime
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sqlstore.pages import (
    HEADER,
    decode_page,
    decode_rows,
    encode_page,
    encode_row,
)
from repro.sqlstore.rowset import Rowset, RowsetColumn
from repro.sqlstore.types import DATE, DOUBLE, LONG, TEXT

from tests.reference.reference_page_codec import reference_encode_row

ZONES = st.sampled_from([
    None, datetime.timezone.utc,
    datetime.timezone(datetime.timedelta(hours=5, minutes=30)),
    datetime.timezone(-datetime.timedelta(hours=8), "PST"),
])

# Text that looks like the tag scheme must stay text.
TAG_LOOKALIKES = st.sampled_from([
    '{"$date": "x"}', '{"$rowset"', '{"$datetime":"2001-01-01T00:00:00"}',
    "$date", '"', "\\", '[[1]]', "naïve", ""])

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2**200, max_value=2**200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0]),
    st.text(max_size=16),
    TAG_LOOKALIKES,
    st.dates(),
    st.datetimes(timezones=ZONES),
)


@st.composite
def rowsets(draw, depth=2):
    """A rowset whose last column, above depth 0, is TABLE-typed and holds
    rowsets one level shallower (or None, or one with zero rows)."""
    typed = [(LONG, st.integers(min_value=-2**70, max_value=2**70)),
             (DOUBLE, st.floats(allow_nan=True, allow_infinity=True)),
             (TEXT, st.one_of(st.text(max_size=8), TAG_LOOKALIKES)),
             (DATE, st.dates()),
             (DATE, st.datetimes(timezones=ZONES))]
    picks = draw(st.lists(st.sampled_from(typed), min_size=1, max_size=3))
    columns = [RowsetColumn(f"c{i}", type_)
               for i, (type_, _) in enumerate(picks)]
    cells = [st.one_of(st.none(), values) for _, values in picks]
    if depth:
        inner = draw(rowsets(depth - 1))
        columns.append(RowsetColumn("items", nested_columns=inner.columns))
        cells.append(st.one_of(st.none(), st.just(inner),
                               st.just(Rowset(inner.columns, []))))
    return Rowset(columns, draw(st.lists(st.tuples(*cells), max_size=3)))


cells = st.one_of(scalars, rowsets())
rows = st.lists(cells, max_size=6).map(tuple)


def shape(value):
    """A value with its type made comparable: ``nan``, ``-0.0``, ``date`` vs
    ``datetime``, offsets and nested column types all tell apart."""
    if isinstance(value, Rowset):
        return ("Rowset", [column_shape(c) for c in value.columns],
                [shape(row) for row in value.rows])
    if isinstance(value, tuple):
        return ("tuple", [shape(cell) for cell in value])
    if isinstance(value, (datetime.date, datetime.datetime)):
        return (type(value).__name__, value.isoformat())
    return (type(value).__name__, repr(value))


def column_shape(column):
    nested = column.nested_columns
    return (column.name, None if column.type is None else column.type.name,
            None if nested is None else [column_shape(c) for c in nested])


@given(rows)
def test_encode_row_is_byte_equal_to_the_per_cell_spelling(row):
    assert encode_row(row) == reference_encode_row(row)
    assert encode_row(list(row)) == reference_encode_row(row)


@given(st.lists(rows, max_size=6),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_page_round_trip_keeps_values_and_types(page_rows, page_id):
    data = encode_page(page_id, page_rows)
    page = decode_page(data, expect_page_id=page_id)
    assert all(type(row) is tuple for row in page.rows)
    assert [shape(row) for row in page.rows] == \
        [shape(row) for row in page_rows]
    # The wire's path: the same hook applied to an already-parsed frame.
    wired = decode_rows(json.loads(data[HEADER.size:].decode("utf-8")))
    assert [shape(row) for row in wired] == [shape(row) for row in page.rows]


def test_zero_rows_round_trip():
    page = decode_page(encode_page(4, []), expect_page_id=4)
    assert page.rows == [] and page.payload_size == 2


@pytest.mark.parametrize("cell", [
    object(), {1, 2}, b"bytes", 1 + 2j,
    Rowset([RowsetColumn("c", TEXT)], [(object(),)]),
], ids=["object", "set", "bytes", "complex", "object-in-rowset"])
def test_unsupported_cell_type_is_a_type_error_at_encode(cell):
    """Never a silently stringified cell."""
    with pytest.raises(TypeError):
        encode_row((1, cell))
    with pytest.raises(TypeError):
        encode_page(0, [(1, cell)])
