"""Secondary indexes: sargability rules, seek correctness, EXPLAIN flip."""

import math

import pytest

import repro
from repro.errors import Error, SchemaError
from repro.lang.parser import parse_statement
from repro.obs.explain import is_plan_rowset
from repro.sqlstore.indexes import choose_index
from repro.sqlstore.schema import ColumnSchema, TableSchema
from repro.sqlstore.table import Table
from repro.sqlstore.types import BOOLEAN, DATE, DOUBLE, LONG, TEXT


def _table(rows, extra=()):
    schema = TableSchema("T", [ColumnSchema("id", LONG),
                               ColumnSchema("name", TEXT),
                               ColumnSchema("score", DOUBLE),
                               ColumnSchema("flag", BOOLEAN),
                               ColumnSchema("seen", DATE)] + list(extra))
    table = Table(schema)
    for row in rows:
        table.insert(list(row))
    return table


ROWS = [
    (3, "carol", 9.5, True, None),
    (1, "alice", 2.0, False, None),
    (2, "bob", 9.5, None, None),
    (1, "alice", 7.0, True, None),
    (None, None, None, None, None),
]


def _where(condition):
    return parse_statement(f"SELECT * FROM T WHERE {condition}").where


def _choice(table, condition):
    return choose_index(_where(condition), table, "T")


@pytest.fixture
def indexed():
    table = _table(ROWS)
    for name, column in [("IX_ID", "id"), ("IX_NAME", "name"),
                         ("IX_SCORE", "score"), ("IX_FLAG", "flag"),
                         ("IX_SEEN", "seen")]:
        table.create_index(name, column)
    return table


# -- structure -----------------------------------------------------------------

def test_index_kinds_by_type(indexed):
    kinds = {name: index.kind for name, index in indexed.indexes.items()}
    assert kinds["IX_ID"] == "hash+sorted"
    assert kinds["IX_NAME"] == "hash+sorted"
    assert kinds["IX_SCORE"] == "hash+sorted"
    assert kinds["IX_FLAG"] == "hash"       # BOOLEAN: no total order
    assert kinds["IX_SEEN"] == "hash"       # DATE: never range-seeks


def test_entries_and_keys_count_rows_and_distinct_values(indexed):
    index = indexed.indexes["IX_NAME"]
    assert index.entries == 5               # every row, NULLs included
    assert index.keys == 4                  # carol/alice/bob/NULL


# -- seek positions are always ascending ---------------------------------------

def test_point_positions_ascending(indexed):
    assert indexed.indexes["IX_ID"].positions_equal(1) == [1, 3]


def test_in_positions_dedup_and_sort(indexed):
    index = indexed.indexes["IX_ID"]
    assert index.positions_in([3, 1, 3, 2]) == [0, 1, 2, 3]


def test_range_positions_inclusive_and_ascending(indexed):
    index = indexed.indexes["IX_SCORE"]
    assert index.positions_range(7.0, 9.5) == [0, 2, 3]
    assert index.positions_range(None, 2.0) == [1]
    assert index.positions_range(9.5, None) == [0, 2]
    # NULL cells never enter the ordered run.
    assert index.positions_range(None, None) == [0, 1, 2, 3]


# -- sargability: what refuses to seek -----------------------------------------

@pytest.mark.parametrize("condition", [
    "id = 'five'",          # str literal on LONG: string-compare semantics
    "id = TRUE",            # bool literal on LONG: group_key splits them
    "name = 5",             # number literal on TEXT
    "id = NULL",            # NULL never matches by index
    "name > 'a' OR id = 1", # OR is not a conjunct
    "id = name",            # no literal side
    "id NOT IN (1, 2)",     # negated IN
    "id NOT BETWEEN 1 AND 2",
    "flag > TRUE",          # BOOLEAN is equality-only
    "flag BETWEEN FALSE AND TRUE",
    "seen = '2020-01-01'",  # DATE columns never seek from literals
    "id + 1 = 2",           # computed left side
    "id IN (1, name)",      # non-literal member poisons the whole IN
])
def test_unsargable_conditions_fall_back_to_scan(indexed, condition):
    assert _choice(indexed, condition) is None


def test_point_in_and_range_are_sargable(indexed):
    assert _choice(indexed, "id = 1").access == "point"
    assert _choice(indexed, "id IN (1, 3)").access == "in"
    assert _choice(indexed, "id > 1").access == "range"
    assert _choice(indexed, "id BETWEEN 1 AND 2").access == "range"
    assert _choice(indexed, "flag = TRUE").access == "point"


def test_literal_on_left_mirrors_the_operator(indexed):
    choice = _choice(indexed, "2 >= id")    # means id <= 2
    assert choice.access == "range"
    assert set(choice.positions) >= {1, 2, 3}
    assert 0 not in choice.positions        # id=3 is out of range


def test_leftmost_sargable_conjunct_wins(indexed):
    choice = _choice(indexed, "score > 100.0 AND id = 1")
    assert choice.index.name == "IX_SCORE"
    choice = _choice(indexed, "seen = 'x' AND id = 1")
    assert choice.index.name == "IX_ID"     # first conjunct unsargable


def test_range_positions_are_a_superset_of_strict_matches(indexed):
    """Inclusive bounds over-include the boundary; the WHERE re-filter
    removes it.  Never may a true match be missing."""
    choice = _choice(indexed, "score > 7.0")
    true_matches = [i for i, row in enumerate(ROWS)
                    if row[2] is not None and row[2] > 7.0]
    assert set(true_matches) <= set(choice.positions)


def test_nan_disables_range_but_not_point():
    table = _table([(1, "a", float("nan"), None, None),
                    (2, "b", 5.0, None, None)])
    table.create_index("IX_SCORE", "score")
    assert _choice(table, "score > 1.0") is None
    choice = _choice(table, "score = 5.0")
    assert choice is not None and choice.positions == [1]
    assert math.isnan(table.rows[0][2])


def test_no_indexes_means_no_choice():
    assert _choice(_table(ROWS), "id = 1") is None


# -- engine integration: DDL, maintenance, EXPLAIN flip ------------------------

DDL = [
    "CREATE TABLE People (id INT, age INT, city TEXT)",
    "INSERT INTO People VALUES (1, 25, 'Oslo'), (2, 62, 'Rome'), "
    "(3, 41, 'Oslo'), (4, 70, 'Pisa'), (5, 33, 'Rome')",
    "CREATE INDEX IX_AGE ON People (age)",
    "CREATE INDEX IX_CITY ON People (city)",
]


@pytest.fixture
def conn():
    connection = repro.connect()
    for statement in DDL:
        connection.execute(statement)
    yield connection
    connection.close()


def _plan(conn, statement):
    rowset = conn.execute(f"EXPLAIN {statement}")
    assert is_plan_rowset(rowset)
    names = [c.name for c in rowset.columns]
    return [dict(zip(names, row)) for row in rowset.rows]


def test_seek_results_match_predicate(conn):
    assert conn.execute(
        "SELECT id FROM People WHERE age = 41").rows == [(3,)]
    assert conn.execute(
        "SELECT id FROM People WHERE age > 40 ORDER BY id").rows == \
        [(2,), (3,), (4,)]
    assert conn.execute(
        "SELECT id FROM People WHERE city IN ('Oslo', 'Pisa') "
        "ORDER BY id").rows == [(1,), (3,), (4,)]


def test_explain_shows_index_seek_until_drop(conn):
    """Acceptance criterion: the plan shows an index seek, and DROP INDEX
    turns the very same statement back into a table scan."""
    statement = "SELECT * FROM People WHERE age = 41"
    seek = _plan(conn, statement)[-1]
    assert seek["OPERATOR"] == "index seek"
    assert "IX_AGE" in seek["STRATEGY"] and "(point)" in seek["STRATEGY"]
    assert "point lookup on age" in seek["DETAIL"]

    conn.execute("DROP INDEX IX_AGE ON People")
    scan = _plan(conn, statement)[-1]
    assert scan["OPERATOR"] == "table scan"


def test_explain_range_seek_estimates_candidates(conn):
    node = _plan(conn, "SELECT * FROM People WHERE age >= 41")[-1]
    assert node["OPERATOR"] == "index seek"
    assert "(range)" in node["STRATEGY"]
    assert node["EST_ROWS"] == 3


def test_insert_maintains_index(conn):
    conn.execute("INSERT INTO People VALUES (6, 41, 'Kiev')")
    assert conn.execute(
        "SELECT id FROM People WHERE age = 41 ORDER BY id").rows == \
        [(3,), (6,)]
    entries = {row[0]: row[1] for row in conn.execute(
        "SELECT INDEX_NAME, ENTRIES FROM $SYSTEM.DM_INDEXES").rows}
    assert entries["IX_AGE"] == 6


def test_update_and_delete_rebuild_index(conn):
    conn.execute("UPDATE People SET age = 99 WHERE id = 3")
    assert conn.execute(
        "SELECT id FROM People WHERE age = 41").rows == []
    assert conn.execute(
        "SELECT id FROM People WHERE age = 99").rows == [(3,)]
    conn.execute("DELETE FROM People WHERE age = 99")
    assert conn.execute(
        "SELECT id FROM People WHERE age = 99").rows == []


def test_dm_indexes_counts_seeks(conn):
    conn.execute("SELECT * FROM People WHERE age = 41")
    conn.execute("SELECT * FROM People WHERE age > 40")
    rows = {row[0]: (row[1], row[2]) for row in conn.execute(
        "SELECT INDEX_NAME, SEEKS, RANGE_SEEKS "
        "FROM $SYSTEM.DM_INDEXES").rows}
    seeks, range_seeks = rows["IX_AGE"]
    assert seeks >= 1 and range_seeks >= 1


def test_join_build_side_uses_index(conn):
    conn.execute("CREATE TABLE Orders (cid INT, total INT)")
    conn.execute("INSERT INTO Orders VALUES (1, 10), (3, 20), (3, 30)")
    conn.execute("CREATE INDEX IX_OCID ON Orders (cid)")
    rows = conn.execute(
        "SELECT p.id, o.total FROM People AS p JOIN Orders AS o "
        "ON p.id = o.cid ORDER BY p.id, o.total").rows
    assert rows == [(1, 10), (3, 20), (3, 30)]
    probes = {row[0]: row[1] for row in conn.execute(
        "SELECT INDEX_NAME, JOIN_PROBES FROM $SYSTEM.DM_INDEXES").rows}
    assert probes["IX_OCID"] >= 1


def test_duplicate_index_name_rejected(conn):
    with pytest.raises(Error):
        conn.execute("CREATE INDEX IX_AGE ON People (age)")


def test_drop_missing_index(conn):
    with pytest.raises(Error):
        conn.execute("DROP INDEX IX_NOPE ON People")
    conn.execute("DROP INDEX IF EXISTS IX_NOPE ON People")  # no error


def test_index_on_missing_column_rejected(conn):
    with pytest.raises(Error):
        conn.execute("CREATE INDEX IX_BAD ON People (ghost)")


def test_indexes_survive_provider_snapshot(conn):
    from repro.core.persistence import dump_provider, load_provider
    restored = load_provider(dump_provider(conn.provider))
    table = restored.database.table("People")
    assert set(table.indexes) == {"IX_AGE", "IX_CITY"}
    assert table.indexes["IX_AGE"].entries == 5


# -- a planned seek outlives a mutation ---------------------------------------

RANGE = "SELECT id, v FROM S WHERE id >= 100 AND id < 104"


@pytest.fixture(params=["memory", "paged"])
def seek_table(request, tmp_path):
    # Without statistics every sargable WHERE seeks: the pages of 300 rows
    # are too few for the cost gate to prefer the seek on the paged store.
    if request.param == "paged":
        connection = repro.connect(storage_path=str(tmp_path),
                                   buffer_pages=1, statistics=False)
    else:
        connection = repro.connect(statistics=False)
    connection.execute("CREATE TABLE S (id LONG PRIMARY KEY, v LONG)")
    connection.execute("INSERT INTO S VALUES " + ", ".join(
        f"({i}, {i * 10})" for i in range(300)))
    connection.execute("CREATE INDEX ix ON S (id)")
    yield connection
    connection.close()


@pytest.mark.parametrize("mutation", [
    "DELETE FROM S WHERE id = 250",       # outside the range
    "DELETE FROM S WHERE id < 5",         # shifts every position after it
    "DELETE FROM S WHERE id = 101",       # inside the range
    "UPDATE S SET id = 1000 WHERE id = 102",   # a key leaves the range
    "UPDATE S SET v = 0 WHERE id = 101",       # a value, not the key
    "INSERT INTO S VALUES (-1, 7), (-2, 8)",
])
def test_a_planned_seek_reads_the_table_as_it_is_when_run(seek_table,
                                                          mutation):
    """Seek positions are derived as planned; a mutation between planning
    and running derives them again, so the plan neither raises
    ``IndexError`` nor reads rows that moved."""
    database = seek_table.database
    plan = database.plan(parse_statement(RANGE))
    assert plan.children[0].operator == "index seek"
    seek_table.execute(mutation)
    rows = plan.run(database.batch_size).materialize().rows
    expected = [row for row in seek_table.execute("SELECT id, v FROM S").rows
                if 100 <= row[0] < 104]
    assert rows == expected


def test_a_planned_seek_finds_rows_inserted_into_its_range(seek_table):
    database = seek_table.database
    plan = database.plan(parse_statement(RANGE.replace("S WHERE",
                                                       "S AS s WHERE")))
    seek_table.execute("DELETE FROM S WHERE id = 102")
    seek_table.execute("INSERT INTO S VALUES (102, -5)")
    rows = plan.run(database.batch_size).materialize().rows
    assert rows == [(100, 1000), (101, 1010), (103, 1030), (102, -5)]


def test_a_planned_seek_scans_once_no_index_serves(seek_table):
    database = seek_table.database
    plan = database.plan(parse_statement(RANGE))
    seek_table.execute("DROP INDEX ix ON S")
    seek_table.execute("DELETE FROM S WHERE id = 250")
    rows = plan.run(database.batch_size).materialize().rows
    assert rows == [(100, 1000), (101, 1010), (102, 1020), (103, 1030)]


def test_an_update_keeps_the_indexes_whose_keys_it_left_alone(seek_table):
    """An UPDATE moves no row: an index whose column's keys it left as
    they were stays as it is, and one whose keys it changed is rebuilt.
    An UPDATE onto a taken key changes nothing."""
    table = seek_table.database.table("S")
    index = table.indexes["IX"]
    buckets = index.hash
    assert seek_table.execute("UPDATE S SET v = v + 1 WHERE id = 7") == 1
    assert index.hash is buckets

    seek_table.execute("UPDATE S SET id = 1000 WHERE id = 7")
    assert index.positions_equal(1000) == [7]
    assert index.positions_equal(7) == []
    assert seek_table.execute(
        "SELECT id, v FROM S WHERE id = 1000").rows == [(1000, 71)]
    assert seek_table.execute("SELECT id, v FROM S WHERE id = 7").rows == []

    def state():
        return (table.rows, set(table._pk_keys),
                {key: list(bucket) for key, bucket in index.hash.items()},
                list(index._ordered))

    before = state()
    with pytest.raises(SchemaError, match="duplicate primary key 8"):
        seek_table.execute("UPDATE S SET id = 8 WHERE id = 1000")
    assert state() == before


@pytest.mark.xfail(strict=True, reason="a kept plan holds the dropped "
                   "Table object and reads its rows (ROADMAP item 18)")
def test_a_kept_plan_reads_a_table_created_again():
    conn = repro.connect(statistics=False)
    conn.execute("CREATE TABLE S (id LONG PRIMARY KEY, v LONG)")
    conn.execute("INSERT INTO S VALUES " + ", ".join(
        f"({i}, {i * 10})" for i in range(300)))
    plan = conn.database.plan(parse_statement(RANGE))
    conn.execute("DROP TABLE S")
    conn.execute("CREATE TABLE S (id LONG PRIMARY KEY, v LONG)")
    conn.execute("INSERT INTO S VALUES " + ", ".join(
        f"({i}, {-i})" for i in range(300)))
    rows = plan.run(conn.database.batch_size).materialize().rows
    assert rows == conn.execute(RANGE).rows == [
        (100, -100), (101, -101), (102, -102), (103, -103)]


@pytest.mark.parametrize("mutation", [
    "DELETE FROM S WHERE id < 5 OR id = 101",
    "UPDATE S SET v = 0 WHERE id = 101",
    "INSERT INTO S VALUES (-1, 1005)",
])
@pytest.mark.parametrize("statement", [
    RANGE,                                               # index seek
    "SELECT id, v FROM S WHERE v >= 1000 AND v < 1040",  # table scan
])
def test_an_opened_stream_reads_the_rows_it_was_opened_on(seek_table,
                                                          statement,
                                                          mutation):
    """Opening a seek derives its positions and opening a scan takes its
    rows; either reads the rows as of the open, though the stream reads
    no row until it is pulled."""
    stream = seek_table.execute_stream(statement)
    seek_table.execute(mutation)
    assert list(stream) == [(100, 1000), (101, 1010), (102, 1020),
                            (103, 1030)]


def test_a_seek_opened_as_a_scan_reads_the_rows_it_was_opened_on(
        seek_table):
    """A planned seek that no index serves any longer opens a scan, which
    reads the rows as of the open too."""
    database = seek_table.database
    plan = database.plan(parse_statement(RANGE))
    seek_table.execute("DROP INDEX ix ON S")
    seek_table.execute("DELETE FROM S WHERE id = 250")
    stream = plan.run(database.batch_size)
    assert [leaf.operator for leaf in plan.children] == ["index seek"]
    seek_table.execute("DELETE FROM S WHERE id < 5 OR id = 101")
    assert stream.materialize().rows == [(100, 1000), (101, 1010),
                                         (102, 1020), (103, 1030)]
