"""Paged-storage invariants over random data: codec, store oracle, index."""

import tempfile
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqlstore.indexes import TableIndex
from repro.server import protocol
from repro.sqlstore.pages import decode_page, decode_row, encode_page, \
    encode_row
from repro.sqlstore.rowset import Rowset, RowsetColumn
from repro.sqlstore.storage import ListRowStore, StorageManager
from repro.sqlstore.types import DATE, DOUBLE, LONG, TEXT
from repro.sqlstore.values import group_key

scalar_strategy = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-10**9, max_value=10**9),
    st.floats(allow_nan=False),
    st.text(max_size=24),          # hypothesis text is unicode-rich
    st.dates(),
    st.datetimes(),
)

row_strategy = st.tuples(st.integers(min_value=0, max_value=50),
                         scalar_strategy, scalar_strategy)


# -- codec ---------------------------------------------------------------------

@given(st.lists(scalar_strategy, max_size=8))
@settings(max_examples=120, deadline=None)
def test_row_codec_round_trips(cells):
    assert decode_row(encode_row(tuple(cells))) == tuple(cells)


@given(st.lists(row_strategy, max_size=20),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_page_codec_round_trips(rows, page_id):
    page = decode_page(encode_page(page_id, rows), expect_page_id=page_id)
    assert page.rows == rows and page.page_id == page_id


@st.composite
def nested_rowsets(draw, depth=2):
    """A rowset of typed scalar columns (NULLs everywhere) whose last
    column, above depth 0, is TABLE-typed and holds rowsets one level
    shallower — so at depth 2 a nested rowset's own column is TABLE-typed."""
    typed = [(LONG, st.integers(min_value=-10**9, max_value=10**9)),
             (DOUBLE, st.floats(allow_nan=False, allow_infinity=False)),
             (TEXT, st.text(max_size=8)), (DATE, st.dates()),
             (DATE, st.datetimes())]
    picks = draw(st.lists(st.sampled_from(typed), min_size=1, max_size=3))
    columns = [RowsetColumn(f"c{i}", type_) for i, (type_, _) in
               enumerate(picks)]
    cells = [st.one_of(st.none(), values) for _, values in picks]
    if depth:
        inner = draw(nested_rowsets(depth - 1))
        columns.append(RowsetColumn("items", nested_columns=inner.columns))
        cells.append(st.one_of(st.none(), st.just(inner),
                               st.just(Rowset(inner.columns, []))))
    rows = draw(st.lists(st.tuples(*cells), max_size=4))
    return Rowset(columns, rows)


@given(nested_rowsets())
@settings(max_examples=80, deadline=None)
def test_nested_rowsets_round_trip_alike_through_pages_and_the_wire(rowset):
    """One ``$rowset`` codec: a nested rowset read back from a page or off
    the wire dumps exactly like the value that went in."""
    dump = protocol.rowset_dump(rowset)
    (paged,) = decode_row(encode_row((rowset,)))
    assert protocol.rowset_dump(paged) == dump
    wired = protocol.rowset_from_wire(protocol.rowset_to_wire(rowset))
    assert protocol.rowset_dump(wired) == dump


# -- paged store vs the in-memory reference ------------------------------------

operation_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("append"), row_strategy),
        st.tuples(st.just("replace"),
                  st.lists(row_strategy, max_size=25)),
    ),
    min_size=1, max_size=25)


@given(operation_strategy,
       st.integers(min_value=1, max_value=9),    # batch size
       st.integers(min_value=1, max_value=3),    # buffer pages
       st.integers(min_value=64, max_value=512))  # page bytes
@settings(max_examples=50, deadline=None)
def test_paged_store_matches_list_store(operations, batch_size,
                                        buffer_pages, page_bytes):
    """Any append/replace sequence read back through any scan surface must
    agree with the plain-list oracle, whatever the page/pool geometry."""
    oracle = ListRowStore()
    with tempfile.TemporaryDirectory() as root:
        manager = StorageManager(root, buffer_pages=buffer_pages,
                                 page_bytes=page_bytes)
        store = manager.make_store(SimpleNamespace(name="T"))
        for kind, payload in operations:
            if kind == "append":
                oracle.append(payload)
                store.append(payload)
            else:
                oracle.replace_all(payload)
                store.replace_all(payload)
        assert store.snapshot() == oracle.snapshot()
        assert len(store) == len(oracle)
        assert [batch for batch in store.iter_batches(batch_size)] == \
            [batch for batch in oracle.iter_batches(batch_size)]
        if len(oracle):
            positions = list(range(0, len(oracle), 2))
            assert store.fetch_rows(positions) == \
                oracle.fetch_rows(positions)
            assert store.row_at(len(oracle) - 1) == \
                oracle.row_at(len(oracle) - 1)
        assert len(manager.pool) <= buffer_pages


# -- index vs brute force ------------------------------------------------------

keys_strategy = st.lists(st.one_of(st.none(),
                                   st.integers(min_value=-30, max_value=30)),
                         max_size=40)


@given(keys_strategy, st.integers(min_value=-30, max_value=30))
@settings(max_examples=80, deadline=None)
def test_long_index_point_lookup_matches_brute_force(keys, probe):
    index = TableIndex("IX", "k", 0, "LONG")
    for position, key in enumerate(keys):
        index.note_insert((key,), position)
    expected = [i for i, key in enumerate(keys)
                if group_key(key) == group_key(probe)]
    assert index.positions_equal(probe) == expected


@given(keys_strategy,
       st.integers(min_value=-30, max_value=30),
       st.integers(min_value=-30, max_value=30))
@settings(max_examples=80, deadline=None)
def test_long_index_range_matches_brute_force(keys, a, b):
    low, high = min(a, b), max(a, b)
    index = TableIndex("IX", "k", 0, "LONG")
    for position, key in enumerate(keys):
        index.note_insert((key,), position)
    expected = [i for i, key in enumerate(keys)
                if key is not None and low <= key <= high]
    assert index.positions_range(low, high) == expected


@given(st.lists(st.one_of(st.none(), st.text(max_size=6)), max_size=30),
       st.text(max_size=6), st.text(max_size=6))
@settings(max_examples=60, deadline=None)
def test_text_index_range_matches_brute_force(keys, a, b):
    low, high = min(a, b), max(a, b)
    index = TableIndex("IX", "k", 0, "TEXT")
    for position, key in enumerate(keys):
        index.note_insert((key,), position)
    expected = [i for i, key in enumerate(keys)
                if key is not None and low <= key <= high]
    assert index.positions_range(low, high) == expected


@given(keys_strategy)
@settings(max_examples=60, deadline=None)
def test_rebuild_equals_incremental_maintenance(keys):
    incremental = TableIndex("IX", "k", 0, "LONG")
    for position, key in enumerate(keys):
        incremental.note_insert((key,), position)
    rebuilt = TableIndex("IX", "k", 0, "LONG")
    rebuilt.rebuild([(key,) for key in keys])
    assert rebuilt.hash == incremental.hash
    assert rebuilt.entries == incremental.entries
    assert rebuilt.positions_range(-30, 30) == \
        incremental.positions_range(-30, 30)
