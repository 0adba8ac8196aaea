"""Property: position lookups on the paged store vs the list store.

``PagedRowStore`` finds a position's page by bisecting its ``starts`` prefix
array, and a reader's snapshot is the page list itself plus the row total —
no per-page copy.  Over random ``append`` / ``replace_all`` / ``truncate``
sequences on tiny pages and a 1–2-frame pool (with an oversized row that
gets a page to itself, and the store re-opened from its committed catalog
along the way) every read surface must agree with ``ListRowStore`` after
every step, and a reader opened before a mutation must still see the rows
from before it.
"""

import random
import tempfile

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sqlstore.engine import Database
from repro.sqlstore.schema import ColumnSchema, TableSchema
from repro.sqlstore.storage import ListRowStore, StorageManager
from repro.sqlstore.types import LONG, TEXT

row_strategy = st.tuples(st.integers(min_value=-10**6, max_value=10**6),
                         st.text(max_size=20))

operation_strategy = st.one_of(
    st.tuples(st.just("append"), row_strategy),
    st.tuples(st.just("append_many"), st.lists(row_strategy, min_size=1,
                                               max_size=12)),
    # Wider than any page budget drawn below: a page to itself.
    st.tuples(st.just("append"),
              st.tuples(st.integers(), st.just("w" * 300))),
    st.tuples(st.just("replace"), st.lists(row_strategy, max_size=20)),
    st.tuples(st.just("truncate"), st.none()),
    st.tuples(st.just("reopen"), st.none()),
)


def _open(root, buffer_pages, page_bytes):
    """The table's store, created or restored from the committed catalog."""
    manager = StorageManager(root, buffer_pages=buffer_pages,
                             page_bytes=page_bytes)
    database = Database()
    database.store_factory = manager.make_store
    manager.open_into(database)
    if "T" not in database.tables:
        database.create_table(TableSchema(
            "T", [ColumnSchema("id", LONG), ColumnSchema("name", TEXT)]))
    return manager, database, database.table("T").store


def _flat(batches):
    return [row for batch in batches for row in batch]


def _no_pins(manager):
    return all(page.pins == 0 for _, page in manager.pool.resident())


def _assert_reads_agree(store, oracle, rng):
    rows = oracle.snapshot()
    total = len(rows)
    assert len(store) == total
    assert store.fetch_rows(list(range(total))) == rows
    for _ in range(3):
        picks = sorted(rng.sample(range(total), rng.randint(0, total)))
        assert store.fetch_rows(picks) == oracle.fetch_rows(picks)
        for size in (1, 3, 1024):
            assert list(store.iter_positions(picks, size)) == \
                list(oracle.iter_positions(picks, size))
    for size in (1, 3, 1024):
        assert list(store.iter_batches(size)) == \
            list(oracle.iter_batches(size))
    # Positions past the end stop the paged walk (the list store raises).
    beyond = list(range(max(0, total - 2), total + 3))
    assert store.fetch_rows(beyond) == rows[max(0, total - 2):]
    with pytest.raises(IndexError):
        oracle.fetch_rows(beyond)


@given(st.lists(operation_strategy, min_size=1, max_size=10),
       st.integers(min_value=1, max_value=2),       # pool frames
       st.integers(min_value=64, max_value=256),    # page bytes
       st.integers(min_value=0, max_value=2**16))   # subset seed
def test_paged_positions_match_the_list_store(operations, buffer_pages,
                                              page_bytes, seed):
    rng = random.Random(seed)
    oracle = ListRowStore()
    with tempfile.TemporaryDirectory() as root:
        manager, database, store = _open(root, buffer_pages, page_bytes)
        for kind, payload in operations:
            if kind == "reopen":
                manager.close(database)
                manager, database, store = _open(root, buffer_pages,
                                                 page_bytes)
                _assert_reads_agree(store, oracle, rng)
                continue
            # Readers opened before the mutation, one of them mid-page.
            before = list(oracle.snapshot())
            everything = list(range(len(before)))
            scan = store.iter_batches(3)
            seek = store.iter_positions(everything, 2)
            head = next(seek, [])
            if kind == "append":
                oracle.append(payload)
                store.append(payload)
            elif kind == "append_many":
                for row in payload:
                    oracle.append(row)
                    store.append(row)
            elif kind == "replace":
                oracle.replace_all(payload)
                store.replace_all(payload)
            else:
                oracle.truncate()
                store.truncate()
            assert _flat(scan) == before
            assert head + _flat(seek) == before
            assert _no_pins(manager)
            _assert_reads_agree(store, oracle, rng)
            assert _no_pins(manager)
            assert len(manager.pool) <= buffer_pages


@pytest.mark.parametrize("opener", [
    lambda store: store.iter_batches(2),
    lambda store: store.iter_positions(list(range(0, 40, 3)), 2),
], ids=["iter_batches", "iter_positions"])
def test_abandoned_reader_leaves_no_pin(tmp_path, opener):
    manager, _, store = _open(str(tmp_path), 2, 128)
    for i in range(40):
        store.append((i, f"row-{i:04d}"))
    reader = opener(store)
    next(reader)
    assert not _no_pins(manager)
    reader.close()
    assert _no_pins(manager)


def test_oversized_row_gets_a_page_to_itself(tmp_path):
    manager, _, store = _open(str(tmp_path), 1, 64)
    rows = [(1, "a"), (2, "w" * 300), (3, "b")]
    for row in rows:
        store.append(row)
    assert [handle.row_count for handle in store.handles] == [1, 1, 1]
    assert store.starts == [0, 1, 2]
    assert store.fetch_rows([0, 1, 2]) == rows
