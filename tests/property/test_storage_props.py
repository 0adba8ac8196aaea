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
from repro.sqlstore.values import group_key, group_keys

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
            assert store.fetch_rows([len(oracle) - 1]) == \
                oracle.fetch_rows([len(oracle) - 1])
        assert len(manager.pool) <= buffer_pages


# -- index vs brute force ------------------------------------------------------

keys_strategy = st.lists(st.one_of(st.none(),
                                   st.integers(min_value=-30, max_value=30)),
                         max_size=40)


@given(keys_strategy, st.integers(min_value=-30, max_value=30))
@settings(max_examples=80, deadline=None)
def test_long_index_point_lookup_matches_brute_force(keys, probe):
    index = TableIndex("IX", "k", 0, "LONG")
    index.extend(group_keys(keys), 0)
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
    index.extend(group_keys(keys), 0)
    expected = [i for i, key in enumerate(keys)
                if key is not None and low <= key <= high]
    assert index.positions_range(low, high) == expected


@given(st.lists(st.one_of(st.none(), st.text(max_size=6)), max_size=30),
       st.text(max_size=6), st.text(max_size=6))
@settings(max_examples=60, deadline=None)
def test_text_index_range_matches_brute_force(keys, a, b):
    low, high = min(a, b), max(a, b)
    index = TableIndex("IX", "k", 0, "TEXT")
    index.extend(group_keys(keys), 0)
    expected = [i for i, key in enumerate(keys)
                if key is not None and low <= key <= high]
    assert index.positions_range(low, high) == expected


@given(keys_strategy)
@settings(max_examples=60, deadline=None)
def test_rebuild_equals_incremental_maintenance(keys):
    incremental = TableIndex("IX", "k", 0, "LONG")
    for position, key in enumerate(keys):
        incremental.extend(group_keys([key]), position)
    rebuilt = TableIndex("IX", "k", 0, "LONG")
    rebuilt.rebuild([(key,) for key in keys])
    assert rebuilt.hash == incremental.hash
    assert rebuilt.entries == incremental.entries
    assert rebuilt.positions_range(-30, 30) == \
        incremental.positions_range(-30, 30)


# One NaN object: a NaN key finds its bucket by identity, as GROUP BY's.
NAN = float("nan")
BIG = 2 ** 53
#: Per column type, the non-NULL cells an index may order — -0.0 beside
#: 0.0, ints that share a float beyond 2**53, unicode text; DOUBLE cells
#: may also be NaN, and every cell NULL.
_ORDERED = {
    "LONG": st.one_of(st.integers(min_value=-5, max_value=5),
                      st.integers(min_value=BIG - 2, max_value=BIG + 3)),
    "DOUBLE": st.one_of(st.just(-0.0), st.just(0.0),
                        st.floats(min_value=-4, max_value=4,
                                  allow_nan=False)),
    "TEXT": st.text(max_size=3),
}
_VALUES = dict(_ORDERED, DOUBLE=st.one_of(st.just(NAN), _ORDERED["DOUBLE"]))


def _order(value):
    return value if isinstance(value, str) else float(value)


@st.composite
def _index_histories(draw):
    """A column type, its cells, a split of them into statements, probe
    values drawn from the cells' own pool and two range bounds (never NaN:
    no SQL literal is)."""
    type_name = draw(st.sampled_from(sorted(_VALUES)))
    cells = draw(st.lists(st.one_of(st.none(), _VALUES[type_name]),
                          max_size=40))
    cuts = sorted(draw(st.lists(st.integers(0, len(cells)), max_size=5)))
    probes = draw(st.lists(_VALUES[type_name], min_size=1, max_size=4))
    bounds = draw(st.lists(_ORDERED[type_name], min_size=2, max_size=2))
    return type_name, cells, cuts, probes, sorted(bounds, key=_order)


@given(_index_histories())
@settings(deadline=None)
def test_any_batch_split_indexes_like_one_batch_and_a_rebuild(history):
    """Statements of any size leave the index one statement (and one
    rebuild) would, and every seek agrees with brute force."""
    type_name, cells, cuts, probes, (low, high) = history
    split = TableIndex("IX", "k", 0, type_name)
    for start, stop in zip([0] + cuts, cuts + [len(cells)]):
        split.extend(group_keys(cells[start:stop]), start)
    whole = TableIndex("IX", "k", 0, type_name)
    whole.extend(group_keys(cells), 0)
    rebuilt = TableIndex("IX", "k", 0, type_name)
    rebuilt.rebuild([(cell,) for cell in cells])
    for index in (split, whole, rebuilt):
        assert index.hash == rebuilt.hash
        assert (index.entries, index.keys) == (len(cells), len(rebuilt.hash))
        for probe in probes:
            assert index.positions_equal(probe) == [
                i for i, cell in enumerate(cells)
                if group_key(cell) == group_key(probe)]
        assert index.positions_in(probes) == [
            i for i, cell in enumerate(cells)
            if any(group_key(cell) == group_key(p) for p in probes)]
        has_nan = any(cell is NAN for cell in cells)
        assert index.range_capable() is not has_nan
        if has_nan:
            continue
        assert index.positions_range(low, high) == [
            i for i, cell in enumerate(cells) if cell is not None
            and _order(low) <= _order(cell) <= _order(high)]
        assert index.positions_range(low) == [
            i for i, cell in enumerate(cells)
            if cell is not None and _order(low) <= _order(cell)]
        assert index.positions_range(None, high) == [
            i for i, cell in enumerate(cells)
            if cell is not None and _order(cell) <= _order(high)]
