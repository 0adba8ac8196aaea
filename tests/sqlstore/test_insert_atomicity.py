"""A multi-row INSERT that fails leaves nothing behind.

``INSERT INTO T VALUES (1,'a'),(2,'b'),(1,'dup'),(3,'c')`` used to raise
with rows 1 and 2 already stored: on a durable provider the statement is
not journaled, so the live table and the recovered one disagreed, and on
the paged store the orphan rows rode along with the next statement's commit.
``Table.insert_many`` now checks every row before it stores the first —
on the memory store, the paged store, a durable provider and over the wire,
for VALUES and for INSERT … SELECT, with every failure kind's error text as
it was.  DELETE and UPDATE build their whole new row list before they touch
the table, its indexes or its statistics, and UPDATE checks that list as
INSERT checks its rows: NOT NULL, and PRIMARY KEY over the result.
"""

import shutil

import pytest

import repro
from repro.core.persistence import dump_provider
from repro.errors import Error, SchemaError, TypeError_
from repro.sqlstore.schema import ColumnSchema, TableSchema
from repro.sqlstore.storage import ListRowStore, StorageManager
from repro.sqlstore.table import Table
from repro.sqlstore.types import LONG, TEXT

CREATE = "CREATE TABLE T (id INT PRIMARY KEY, name TEXT NOT NULL)"
SEED = "INSERT INTO T VALUES (10, 'ten'), (11, 'eleven')"

# (statement, error type, the error text as the single-row path words it)
FAILURES = [
    ("INSERT INTO T VALUES (1,'a'),(2,'b'),(1,'dup'),(3,'c')",
     SchemaError, "duplicate primary key 1 in table 'T'"),
    ("INSERT INTO T VALUES (1,'a'),(2,'b'),(10,'in the table'),(3,'c')",
     SchemaError, "duplicate primary key 10 in table 'T'"),
    ("INSERT INTO T VALUES (1,'a'),(2,NULL),(3,'c')",
     TypeError_, "column 'name' of table 'T' is NOT NULL"),
    ("INSERT INTO T VALUES (1,'a'),('two','b'),(3,'c')",
     TypeError_, "cannot coerce 'two' to LONG"),
    ("INSERT INTO T VALUES (1,'a'),(2,'b',3),(3,'c')",
     SchemaError, "INSERT expects 2 values, got 3"),
    ("INSERT INTO T SELECT id - 9, name FROM T",
     SchemaError, "duplicate primary key 1 in table 'T'"),
]
IDS = ["pk-in-batch", "pk-in-table", "not-null", "coercion", "arity",
       "insert-select"]


def _setup(conn):
    conn.execute(CREATE)
    conn.execute(SEED)


def _rows(conn):
    return sorted(conn.execute("SELECT id, name FROM T").rows)


@pytest.fixture(params=["memory", "paged"])
def conn(request, tmp_path):
    kwargs = {} if request.param == "memory" else {
        "storage_path": str(tmp_path / "store"), "buffer_pages": 2,
        "storage_page_bytes": 64}
    connection = repro.connect(**kwargs)
    _setup(connection)
    yield connection
    connection.close()


@pytest.mark.parametrize("statement, error, text", FAILURES, ids=IDS)
def test_a_failed_insert_changes_nothing(conn, statement, error, text):
    if statement.startswith("INSERT INTO T SELECT"):
        # The select yields ids 1 and 2; with 1 stored its first row fails.
        conn.execute("INSERT INTO T VALUES (1, 'one')")
    before = _rows(conn)
    version = conn.database.table("T").version
    with pytest.raises(error) as raised:
        conn.execute(statement)
    assert text in str(raised.value)
    assert _rows(conn) == before
    assert conn.database.table("T").version == version
    # The table still takes rows, the failed statement's keys included.
    conn.execute("INSERT INTO T VALUES (2, 'b'), (3, 'c')")
    assert _rows(conn) == sorted(before + [(2, "b"), (3, "c")])
    with pytest.raises(SchemaError, match="duplicate primary key 3"):
        conn.execute("INSERT INTO T VALUES (3, 'again')")


def test_the_first_bad_row_in_statement_order_is_the_error(conn):
    """Row 2 repeats a key, row 3 has a NULL: checked row by row, as the
    single-row path met them."""
    with pytest.raises(SchemaError, match="duplicate primary key 1"):
        conn.execute("INSERT INTO T VALUES (1,'a'),(1,'dup'),(3,NULL)")
    with pytest.raises(TypeError_, match="NOT NULL"):
        conn.execute("INSERT INTO T VALUES (1,'a'),(3,NULL),(1,'dup')")


# Four-row shapes: the error of row 2 or 3 must win over row 4's arity.
# Row 1 is a tuple of values, or an expression row beside tuple rows.
FIRST_BAD_ROW = [
    ("INSERT INTO T VALUES ({}, 'a'), ('two', 'b'), (3, 'c'), (4, 'd', 'x')",
     TypeError_, "cannot coerce 'two' to LONG"),
    ("INSERT INTO T VALUES ({}, 'a'), (2, 'b'), (1, 'c'), (3, 'd', 'x')",
     SchemaError, "duplicate primary key 1 in table 'T'"),
    ("INSERT INTO T VALUES ({}, 'a'), (2, 'b'), (3, NULL), (4, 'd', 'x')",
     TypeError_, "column 'name' of table 'T' is NOT NULL"),
    ("INSERT INTO T VALUES ({}, 'a'), (2, 'b'), (3, 'c'), (4, 'd', 'x')",
     SchemaError, "INSERT expects 2 values, got 3"),
]


@pytest.mark.parametrize("first", ["1", "0 + 1"], ids=["values", "expression"])
@pytest.mark.parametrize("shape, error, text", FIRST_BAD_ROW,
                         ids=["coercion", "pk-in-batch", "not-null", "arity"])
def test_the_first_bad_row_wins_on_a_template_miss_and_hit(
        conn, first, shape, error, text):
    """The same shape twice: parsed on the miss, made from the template on
    the hit; either way the rows reach the table in statement order."""
    metrics = conn.provider.metrics
    before = _rows(conn)
    version = conn.database.table("T").version
    hits = []
    for _ in range(2):
        counted = metrics.value("lang.template_hits")
        with pytest.raises(error) as raised:
            conn.execute(shape.format(first))
        hits.append(metrics.value("lang.template_hits") - counted)
        assert text in str(raised.value)
        assert _rows(conn) == before
        assert conn.database.table("T").version == version
    assert hits == [0, 1]


@pytest.mark.parametrize("statement, named", [
    ("INSERT INTO T (id, id) VALUES (1, 2)", "id"),
    ("INSERT INTO T (name, id, NAME) VALUES ('a', 1, 'b')", "NAME"),
    ("INSERT INTO T ([id], name, ID) SELECT id, name, id FROM T", "ID"),
], ids=["values", "case-folded", "select"])
def test_a_column_named_twice_in_the_column_list_is_an_error(
        conn, statement, named):
    """It used to be accepted, the last value winning; SQL and PostgreSQL
    reject it.  Names match as ``TableSchema.index_of`` matches them."""
    before = _rows(conn)
    version = conn.database.table("T").version
    with pytest.raises(SchemaError) as raised:
        conn.execute(statement)
    assert f"column {named!r} appears twice" in str(raised.value)
    assert _rows(conn) == before
    assert conn.database.table("T").version == version


def test_recovery_stops_at_a_journaled_column_named_twice(tmp_path):
    """An earlier version accepted, and so journaled, such a statement;
    replaying it now raises, and the store does not open until that
    version checkpoints the journal into the snapshot."""
    from repro.store.journal import JournalWriter

    path = str(tmp_path / "durable")
    conn = repro.connect(durable_path=path)
    conn.execute("CREATE TABLE U (a LONG, b LONG)")
    store = conn.provider.store
    journal, seq = store.journal_path, store.last_seq
    conn.close()
    writer = JournalWriter(journal)
    writer.append({"seq": seq + 1, "kind": "INSERT",
                   "stmt": "INSERT INTO U (a, a) VALUES (1, 2)"})
    writer.close()
    with pytest.raises(SchemaError, match="column 'a' appears twice"):
        repro.connect(durable_path=path)


def test_paged_orphans_do_not_ride_the_next_commit(tmp_path):
    path = str(tmp_path / "store")
    conn = repro.connect(storage_path=path, buffer_pages=2,
                         storage_page_bytes=64)
    _setup(conn)
    with pytest.raises(Error):
        conn.execute(FAILURES[0][0])
    conn.execute("INSERT INTO T VALUES (20, 'twenty')")
    expected = _rows(conn)
    copy = str(tmp_path / "copy")
    shutil.copytree(path, copy)
    conn.close()
    reopened = repro.connect(storage_path=copy, buffer_pages=2,
                             storage_page_bytes=64)
    try:
        assert _rows(reopened) == expected == \
            [(10, "ten"), (11, "eleven"), (20, "twenty")]
    finally:
        reopened.close()


@pytest.mark.parametrize("statement, error, text", FAILURES[:5], ids=IDS[:5])
def test_durable_live_state_equals_recovered_state(tmp_path, statement,
                                                   error, text):
    path = str(tmp_path / "durable")
    conn = repro.connect(durable_path=path)
    _setup(conn)
    with pytest.raises(error):
        conn.execute(statement)
    live = dump_provider(conn.provider)
    copy = str(tmp_path / "copy")
    shutil.copytree(path, copy)               # the crash: no clean close
    conn.close()
    recovered = repro.connect(durable_path=copy)
    try:
        assert dump_provider(recovered.provider) == live
        assert _rows(recovered) == [(10, "ten"), (11, "eleven")]
    finally:
        recovered.close()


def test_over_the_wire(tmp_path):
    from repro.client import connect as net_connect
    from repro.server import DmxServer

    connection = repro.connect(storage_path=str(tmp_path / "store"))
    try:
        _setup(connection)
        with DmxServer(connection.provider, port=0) as server, \
                net_connect("127.0.0.1", server.port) as wire:
            for statement, _, text in FAILURES[:5]:
                with pytest.raises(Error) as raised:
                    wire.execute(statement)
                assert text in str(raised.value)
                assert sorted(wire.execute(
                    "SELECT id, name FROM T").rows) == \
                    [(10, "ten"), (11, "eleven")]
            assert wire.execute(
                "INSERT INTO T VALUES (1,'a'),(2,'b')") == 2
        assert server.thread_errors == []
    finally:
        connection.close()


# -- the row stores' batch append ------------------------------------------------

def _schema():
    return TableSchema("T", [ColumnSchema("id", LONG),
                             ColumnSchema("name", TEXT)])


def test_extend_packs_like_append(tmp_path):
    """One ``extend`` of n rows and n ``append`` calls leave the same pages;
    the batch fetches the tail page once, not once per row."""
    rows = [(i, f"row-{i:04d}-" + "x" * (i % 17)) for i in range(90)]
    layouts = []
    for name, batched in (("one", False), ("many", True)):
        manager = StorageManager(str(tmp_path / name), buffer_pages=2,
                                 page_bytes=256)
        store = manager.make_store(_schema())
        store.extend(rows[:7])
        fetches = manager.pool.hits + manager.pool.misses
        if batched:
            store.extend(rows[7:])
            assert manager.pool.hits + manager.pool.misses == fetches + 1
        else:
            for row in rows[7:]:
                store.append(row)
        assert store.snapshot() == rows and len(store) == len(rows)
        layouts.append([handle.row_count for handle in store.handles])
        store.extend([])
        assert len(store) == len(rows)
    assert layouts[0] == layouts[1] and len(layouts[0]) > 5


def test_insert_is_insert_many_of_one():
    table = Table(_schema())
    table.insert([1, "a"])
    assert table.insert_many([[2, "b"], (3, "c")]) == 2
    assert table.insert_many([]) == 0
    assert table.rows == [(1, "a"), (2, "b"), (3, "c")]
    assert table.version == 3
    assert isinstance(table.store, ListRowStore)
    with pytest.raises(SchemaError, match="expects 2 values, got 1"):
        table.insert_many([[4, "d"], [5]])
    assert len(table) == 3


# -- DELETE and UPDATE: all or none, statistics and keys included ---------------

@pytest.fixture(params=["memory", "paged"])
def store_kwargs(request, tmp_path):
    return {} if request.param == "memory" else {
        "storage_path": str(tmp_path / "store"), "buffer_pages": 2,
        "storage_page_bytes": 64}


def _statistics(conn, name):
    table = conn.database.table(name)
    return table.rows, table.statistics().snapshot()


@pytest.mark.parametrize("statement", [
    "DELETE FROM U WHERE k + (CASE WHEN k = 3 THEN s ELSE 0 END) > 0",
    "UPDATE U SET k = s"], ids=["delete", "update"])
def test_a_failed_delete_or_update_leaves_the_statistics(store_kwargs,
                                                         statement):
    """Both fail at row 3, after rows 1 and 2 qualified: the statistics
    used to count those two as deleted (row_count 1) or as updated (``k``
    spanning 3..8) while the table kept all three rows unchanged."""
    conn = repro.connect(**store_kwargs)
    try:
        conn.execute("CREATE TABLE U (k LONG, s TEXT)")
        conn.execute("INSERT INTO U VALUES (1, '7'), (2, '8'), (3, 'zz')")
        before = _statistics(conn, "U")
        with pytest.raises(Error):
            conn.execute(statement)
        rows, stats = _statistics(conn, "U")
        assert (rows, stats) == before
        assert stats[0]["rows"] == 3
        assert (stats[0]["min"], stats[0]["max"]) == (1, 3)
    finally:
        conn.close()


@pytest.mark.parametrize("statement, error, text", [
    ("UPDATE T SET id = 1 WHERE id = 2", SchemaError,
     "duplicate primary key 1 in table 'T'"),
    ("UPDATE T SET n = NULL WHERE id = 3", TypeError_,
     "column 'n' of table 'T' is NOT NULL"),
], ids=["primary-key", "not-null"])
def test_update_checks_the_result_as_insert_does(store_kwargs, statement,
                                                 error, text):
    conn = repro.connect(**store_kwargs)
    try:
        conn.execute("CREATE TABLE T (id LONG PRIMARY KEY, n LONG NOT NULL, "
                     "s TEXT)")
        conn.execute("INSERT INTO T VALUES (1, 10, 'a'), (2, 20, 'b'), "
                     "(3, 30, 'c')")
        before = _statistics(conn, "T")
        with pytest.raises(error) as raised:
            conn.execute(statement)
        assert text in str(raised.value)
        assert _statistics(conn, "T") == before
        # Keys that collide only on the way are fine: the result is unique.
        assert conn.execute("UPDATE T SET id = id + 1") == 3
        table = conn.database.table("T")
        assert sorted(table.rows) == [(2, 10, "a"), (3, 20, "b"),
                                      (4, 30, "c")]
        with pytest.raises(SchemaError, match="duplicate primary key 4"):
            conn.execute("INSERT INTO T VALUES (4, 40, 'd')")
        conn.execute("INSERT INTO T VALUES (1, 40, 'd')")    # 1 is free
    finally:
        conn.close()


# -- an integer past the DOUBLE range -----------------------------------------

BIG = "1" + "0" * 400  # 10**400: no float holds it


def test_an_int_past_the_double_range_is_refused_and_stores_nothing(conn):
    """A LONG or DOUBLE cell is a number a DOUBLE holds (every comparison,
    key and statistic of the column takes its float): an integer past that
    range is a typed error, as NOT NULL refuses a NULL.  The batch was
    stored before it was keyed, so the failed INSERT left its rows behind
    and every later seek and GROUP BY of the column raised OverflowError."""
    conn.execute("CREATE TABLE W (a LONG, b DOUBLE)")
    conn.execute("INSERT INTO W VALUES (1, 2.0)")
    for statement in (f"INSERT INTO W VALUES (5, 1.0), ({BIG}, 1.0)",
                      f"INSERT INTO W VALUES (5, {BIG})",
                      f"INSERT INTO W VALUES ('{BIG}', 1.0)",
                      f"INSERT INTO W SELECT a * {BIG}, b FROM W",
                      f"UPDATE W SET a = {BIG}",
                      f"INSERT INTO T VALUES (5, 'five'), ({BIG}, 'big')"):
        with pytest.raises(TypeError_, match="past the DOUBLE range"):
            conn.execute(statement)
    assert conn.execute("SELECT * FROM W").rows == [(1, 2.0)]
    assert conn.execute("SELECT a FROM W WHERE a = 5").rows == []
    assert conn.execute("SELECT a, COUNT(*) FROM W GROUP BY a").rows == \
        [(1, 1)]
    assert _rows(conn) == [(10, "ten"), (11, "eleven")]


@pytest.mark.parametrize("indexed", [False, True], ids=["scan", "index"])
def test_equality_with_an_int_past_the_double_range_answers(conn, indexed):
    """``=``, ``<>`` and ``IN`` against such a literal compare exactly, as
    ``<`` and ``>`` always have; they used to raise a raw OverflowError."""
    if indexed:
        conn.execute("CREATE INDEX ix_t_id ON T (id)")
    answers = {f"id = {BIG}": [], f"id <> {BIG}": [10, 11],
               f"id IN (11, {BIG})": [11], f"id NOT IN (11, {BIG})": [10],
               f"id < {BIG}": [10, 11], f"id > {BIG}": [],
               f"{BIG} = id": [], f"id + 0 = {BIG}": []}
    for where, ids in answers.items():
        rows = conn.execute(f"SELECT id FROM T WHERE {where}").rows
        assert sorted(row[0] for row in rows) == ids, where


# An int *computed* past the DOUBLE range: ``a * 10**400`` over W.  Where
# its float decides nothing it answers; where it would be keyed or averaged
# as a DOUBLE it is the TypeError_ an INSERT of it raises.  Each used to
# raise a raw OverflowError past every ``except Error``.
HUGE = f"a * {BIG}"


@pytest.fixture
def huge(conn):
    conn.execute("CREATE TABLE W (a LONG, b DOUBLE)")
    conn.execute("INSERT INTO W VALUES (2, 3.0), (1, 2.0)")
    return conn


def test_order_by_a_computed_int_past_the_double_range_answers(huge):
    assert huge.execute(f"SELECT {HUGE} AS x FROM W ORDER BY x").rows == \
        [(10 ** 400,), (2 * 10 ** 400,)]
    assert huge.execute(f"SELECT a FROM W ORDER BY {HUGE} DESC").rows == \
        [(2,), (1,)]


def test_group_by_a_computed_int_past_the_double_range_is_a_type_error(huge):
    with pytest.raises(TypeError_, match="past the DOUBLE range"):
        huge.execute(f"SELECT COUNT(*) FROM W GROUP BY {HUGE}")


def test_distinct_of_a_computed_int_past_the_double_range_is_a_type_error(
        huge):
    with pytest.raises(TypeError_, match="past the DOUBLE range"):
        huge.execute(f"SELECT DISTINCT {HUGE} AS x FROM W")


def test_avg_of_a_computed_int_past_the_double_range_is_a_type_error(huge):
    with pytest.raises(TypeError_, match="past the DOUBLE range"):
        huge.execute(f"SELECT AVG({HUGE}) FROM W")
    assert huge.execute(f"SELECT MAX({HUGE}) FROM W").rows == \
        [(2 * 10 ** 400,)]


def test_equality_with_a_computed_int_past_the_double_range_answers(huge):
    assert huge.execute(f"SELECT a FROM W WHERE {HUGE} = 5").rows == []
    assert huge.execute(f"SELECT a FROM W WHERE {HUGE} = {BIG}").rows == \
        [(1,)]
    assert huge.execute(f"SELECT a FROM W WHERE {HUGE} <> 5").rows == \
        [(2,), (1,)]
