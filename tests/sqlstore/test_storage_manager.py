"""StorageManager + PagedRowStore: packing, scan stability, commit/reopen."""

import os

import pytest

import repro
from repro.lang.parser import parse_statement
from repro.server.protocol import rowset_dump
from repro.sqlstore.engine import Database
from repro.sqlstore.schema import ColumnSchema, TableSchema
from repro.sqlstore.storage import ListRowStore, StorageManager
from repro.sqlstore.types import LONG, TEXT

PAGE_BYTES = 256


def _manager(tmp_path, buffer_pages=2, **kwargs):
    return StorageManager(str(tmp_path), buffer_pages=buffer_pages,
                          page_bytes=PAGE_BYTES, **kwargs)


def _database(manager):
    database = Database()
    database.store_factory = manager.make_store
    return database


def _schema(name="T"):
    return TableSchema(name, [ColumnSchema("id", LONG),
                              ColumnSchema("name", TEXT)])


def _rows(n, tag="row"):
    return [(i, f"{tag}-{i:04d}-" + "x" * 30) for i in range(n)]


def _fill(table, n, tag="row"):
    for row in _rows(n, tag):
        table.insert(list(row))


def _page_files(root):
    found = []
    for dirpath, _, filenames in os.walk(os.path.join(root, "pages")):
        found.extend(name for name in filenames if name.endswith(".pg"))
    return sorted(found)


# -- packing and reads ---------------------------------------------------------

def test_appends_span_pages_and_snapshot_preserves_order(tmp_path):
    manager = _manager(tmp_path)
    table = _database(manager).create_table(_schema())
    _fill(table, 40)
    assert len(table.store.handles) > 3, "rows must spill across pages"
    assert table.rows == _rows(40)
    assert len(table.store) == 40


def test_pool_stays_within_budget_under_load(tmp_path):
    manager = _manager(tmp_path, buffer_pages=2)
    table = _database(manager).create_table(_schema())
    _fill(table, 60)
    assert table.rows == _rows(60)
    assert len(manager.pool) <= 2
    assert manager.pool.evictions > 0


def test_fetch_rows_crosses_page_boundaries(tmp_path):
    manager = _manager(tmp_path)
    table = _database(manager).create_table(_schema())
    _fill(table, 35)
    expected = _rows(35)
    picks = [0, 7, 8, 20, 34]
    assert table.store.fetch_rows(picks) == [expected[p] for p in picks]


def test_iter_positions_batches_exactly(tmp_path):
    manager = _manager(tmp_path)
    table = _database(manager).create_table(_schema())
    _fill(table, 30)
    batches = list(table.store.iter_positions(list(range(0, 30, 2)), 4))
    assert [len(b) for b in batches] == [4, 4, 4, 3]
    assert [row[0] for batch in batches for row in batch] == \
        list(range(0, 30, 2))


def test_replace_all_repacks(tmp_path):
    manager = _manager(tmp_path)
    table = _database(manager).create_table(_schema())
    _fill(table, 30)
    replacement = _rows(9, tag="new")
    table.store.replace_all(replacement)
    assert table.rows == replacement
    assert len(table.store) == 9


# -- scan stability ------------------------------------------------------------

def test_scan_does_not_see_concurrent_appends(tmp_path):
    manager = _manager(tmp_path)
    table = _database(manager).create_table(_schema())
    _fill(table, 20)
    scan = table.store.iter_batches(6)
    collected = list(next(scan))
    _fill(table, 10, tag="late")      # arrives after the scan snapshot
    for batch in scan:
        collected.extend(batch)
    assert collected == _rows(20)
    assert len(table.store) == 30


def test_scan_survives_replace_all_mid_flight(tmp_path):
    """A scan started before DELETE/UPDATE keeps reading the pre-mutation
    rows: retired page files stay on disk until open/close GC."""
    manager = _manager(tmp_path, buffer_pages=2)
    table = _database(manager).create_table(_schema())
    _fill(table, 30)
    scan = table.store.iter_batches(6)
    collected = list(next(scan))
    table.store.replace_all(_rows(3, tag="post"))
    for batch in scan:
        collected.extend(batch)
    assert collected == _rows(30)
    assert table.rows == _rows(3, tag="post")


def test_append_survives_pin_pressure(tmp_path):
    """Append while every other frame is pinned must not lose the row.

    With a one-frame pool and a scan pinning the first page, the append's
    load of the last page overflows the budget and eviction's only
    unpinned candidate is that freshly loaded page itself.  Unpinned, it
    would be dropped clean and the append would mutate an orphan object —
    never flushed, ``row_count`` diverging from the on-disk page, and
    later scans silently skipping the phantom row.  The append must pin
    the page for the duration instead.
    """
    manager = _manager(tmp_path, buffer_pages=1)
    table = _database(manager).create_table(_schema())
    _fill(table, 21)                   # last page holds one row: has room
    scan = table.store.iter_batches(3)
    next(scan)                         # pins the first page; last is evicted
    extra = (21, "row-0021-" + "x" * 30)
    table.store.append(extra)          # loads last page under full pins
    scan.close()
    assert table.rows == _rows(21) + [extra]
    assert len(table.store) == 22


def test_abandoned_scan_releases_its_pin(tmp_path):
    manager = _manager(tmp_path, buffer_pages=2)
    table = _database(manager).create_table(_schema())
    _fill(table, 30)
    scan = table.store.iter_batches(5)
    next(scan)
    assert any(page.pins > 0 for _, page in manager.pool.resident())
    scan.close()                       # TOP / CANCEL / dropped wire session
    assert all(page.pins == 0 for _, page in manager.pool.resident())


# -- commit / reopen (shadow paging) -------------------------------------------

def test_commit_then_reopen_round_trips(tmp_path):
    manager = _manager(tmp_path)
    database = _database(manager)
    table = database.create_table(_schema())
    _fill(table, 25)
    table.create_index("IX_NAME", "name")
    database.views["V"] = parse_statement("SELECT id FROM T")
    committed_version = database.data_version
    manager.close(database)

    reopened = _manager(tmp_path)
    database2 = _database(reopened)
    reopened.open_into(database2)
    table2 = database2.table("T")
    assert table2.rows == _rows(25)
    assert "IX_NAME" in table2.indexes
    assert table2.indexes["IX_NAME"].entries == 25
    assert "V" in database2.views
    # advance_data_version is a floor: a restored catalog can never hand
    # out a data version older than the one it committed.
    assert database2.data_version >= committed_version


def test_close_sweeps_superseded_page_versions(tmp_path):
    manager = _manager(tmp_path)
    database = _database(manager)
    table = database.create_table(_schema())
    _fill(table, 30)
    manager.commit(database)
    before = _page_files(str(tmp_path))
    table.store.replace_all(_rows(30, tag="v2"))   # every page superseded
    manager.close(database)
    after = _page_files(str(tmp_path))
    assert not set(before) & set(after), \
        "close() must garbage-collect retired page versions"
    assert {h.current_file for h in table.store.handles} == set(after)


def test_dropped_table_files_are_swept_at_close(tmp_path):
    manager = _manager(tmp_path)
    database = _database(manager)
    table = database.create_table(_schema())
    _fill(table, 30)
    manager.commit(database)
    database.drop_table("T")
    manager.close(database)
    assert _page_files(str(tmp_path)) == []


def test_ephemeral_manager_wipes_and_leaves_nothing(tmp_path):
    manager = _manager(tmp_path)
    database = _database(manager)
    _fill(database.create_table(_schema()), 20)
    manager.close(database)
    assert _page_files(str(tmp_path)) != []

    ephemeral = _manager(tmp_path, ephemeral=True)
    assert _page_files(str(tmp_path)) == [], \
        "ephemeral storage is spill space only: prior contents wiped"
    database2 = _database(ephemeral)
    _fill(database2.create_table(_schema()), 20)
    ephemeral.close(database2)
    assert _page_files(str(tmp_path)) == []
    assert not os.path.exists(os.path.join(str(tmp_path), "catalog.json"))


# -- introspection -------------------------------------------------------------

def test_pool_rows_names_tables_lru_first(tmp_path):
    manager = _manager(tmp_path, buffer_pages=4)
    database = _database(manager)
    table = database.create_table(_schema())
    _fill(table, 30)
    rows = manager.pool_rows(database)
    assert rows and len(rows) <= 4
    for name, page_id, row_count, dirty, pins, size in rows:
        assert name == "T"
        assert isinstance(page_id, int) and row_count > 0
        assert isinstance(dirty, bool) and pins == 0 and size > 0


def test_seek_expectation_counts_buffered_pages(tmp_path):
    manager = _manager(tmp_path, buffer_pages=2)
    table = _database(manager).create_table(_schema())
    _fill(table, 40)
    store = table.store
    detail = store.seek_expectation(list(range(40)))
    hot, total = detail.split(" ")[0].split("/")
    assert detail.endswith("pages buffered")
    assert int(total) == len(store.handles)
    assert int(hot) <= 2
    assert ListRowStore([(1,)]).seek_expectation([0]) is None


# -- a join's index side is one sequential read --------------------------------

def _join_pair(tmp_path):
    """A memory and a paged provider holding the same two tables: NULL and
    duplicate join keys on both sides, left rows without a match, and an
    index on the build (right) side's join column."""
    memory = repro.connect(statistics=False)
    paged = repro.connect(statistics=False, storage_path=str(tmp_path),
                          buffer_pages=2, storage_page_bytes=PAGE_BYTES)
    keys = [None if i % 11 == 0 else i % 40 for i in range(120)]
    for conn in (memory, paged):
        conn.execute("CREATE TABLE L (id INT, k INT)")
        conn.execute("CREATE TABLE R (k INT, name TEXT)")
        conn.execute("INSERT INTO L VALUES " + ", ".join(
            f"({i}, {'NULL' if i % 7 == 0 else i % 50})"
            for i in range(60)))
        conn.execute("INSERT INTO R VALUES " + ", ".join(
            f"({'NULL' if k is None else k}, 'name-{i:04d}-{'x' * 20}')"
            for i, k in enumerate(keys)))
        conn.execute("CREATE INDEX IX_R_K ON R (k)")
    return memory, paged


@pytest.mark.parametrize("kind", ["INNER", "LEFT"])
def test_index_built_join_reads_each_page_once(tmp_path, kind):
    memory, paged = _join_pair(tmp_path)
    try:
        statement = (f"SELECT l.id, l.k, r.name FROM L AS l {kind} JOIN R "
                     f"AS r ON l.k = r.k")
        plan = "\n".join(str(row) for row in
                         paged.execute("EXPLAIN " + statement).rows)
        assert "right side index IX_R_K" in plan
        tables = paged.database.tables
        pages = sum(len(tables[name].store.handles) for name in ("L", "R"))
        assert len(tables["R"].store.handles) > 10
        pool = paged.provider.storage.pool
        probes = tables["R"].indexes["IX_R_K"].join_probes
        fetches = pool.hits + pool.misses
        result = paged.execute(statement)
        # One fetch per page of either side (not one per distinct key).
        assert pool.hits + pool.misses - fetches <= pages + 2
        assert tables["R"].indexes["IX_R_K"].join_probes == probes + 1
        assert rowset_dump(result) == rowset_dump(memory.execute(statement))
        assert len(result.rows) > 60     # duplicates matched, NULLs not
    finally:
        memory.close()
        paged.close()
