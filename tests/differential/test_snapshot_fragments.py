"""Differential: the fragment-assembling ``dump_provider`` vs the tree builder.

``core.persistence.dump_provider`` concatenates one cached text fragment per
table and per trained model, re-encoding only what its owner changed since
the last dump.  ``tests/reference/reference_snapshot.reference_dump_provider`` is
the encoder it replaced — nested lists, one ``json.dumps`` — and remembers
nothing.  After *every* statement of a sequence the two must be string-equal,
whichever of the three ways a table's rows were produced (fragment reused,
new tail spliced on, table re-encoded) and whether a model's entry was cached
or rebuilt; ``store.snapshot_rows_encoded`` says which way was taken.
"""

import datetime
import math

from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.core.persistence import dump_provider
from repro.sqlstore.schema import ColumnSchema, TableSchema
from repro.sqlstore.types import DATE, DOUBLE, LONG, TEXT

from tests.reference.reference_snapshot import reference_dump_provider
from tests.differential.test_stream_vs_materialize import STATEMENTS, _load

ROWS = "store.snapshot_rows_encoded"
CASES = "store.snapshot_cases_encoded"


class Checked:
    """A connection that compares the two encoders after every statement."""

    def __init__(self, **kwargs):
        self.conn = repro.connect(**kwargs)
        self.statements = 0

    def execute(self, statement):
        result = self.conn.execute(statement)
        self.statements += 1
        self.check()
        return result

    def check(self):
        provider = self.conn.provider
        assert dump_provider(provider, self.statements) == \
            reference_dump_provider(provider, self.statements)

    def moved(self, name, statement):
        """How far one statement and its dump moved a counter."""
        metrics = self.conn.provider.metrics
        before = metrics.value(name)
        self.execute(statement)
        return metrics.value(name) - before


NB_DDL = ("CREATE MINING MODEL NB (cid LONG KEY, city TEXT DISCRETE, "
          "product TEXT DISCRETE PREDICT) USING Repro_Naive_Bayes")
NB_TRAIN = ("INSERT INTO NB (cid, city, product) SELECT c.cid, c.city, "
            "o.product FROM Customers AS c JOIN Orders AS o "
            "ON c.cid = o.cid WHERE o.oid {}")


def test_statement_sequence_matches_reference(tmp_path):
    checked = Checked(statistics=False)
    _load(checked)
    customers = len(checked.conn.database.table("Customers"))
    orders = len(checked.conn.database.table("Orders"))

    # Reads change nothing, so nothing is encoded for them.
    for statement in STATEMENTS:
        assert checked.moved(ROWS, statement) == 0

    # What is not the rows is spelled by every dump: no row is encoded.
    for statement in (
            "CREATE INDEX IX_AGE ON Customers (age)",
            "CREATE INDEX IX_CITY ON Customers (city)",
            "DROP INDEX IX_AGE ON Customers",
            "UPDATE STATISTICS Customers",
            "CREATE VIEW Young AS SELECT cid, name FROM Customers "
            "WHERE age < 30"):
        assert checked.moved(ROWS, statement) == 0

    # Appends cost their rows, anything else the table, other tables nothing.
    assert checked.moved(
        ROWS, "INSERT INTO Customers VALUES (61, 'c061', 33, 'Omaha', 9.5)"
    ) == 1
    assert checked.moved(
        ROWS, "INSERT INTO Customers VALUES (62, 'c062', 34, NULL, 1.5), "
              "(63, 'ç063 ☃', 35, 'Austin', 2.5)") == 2
    assert checked.moved(
        ROWS, "UPDATE Customers SET spend = 0 WHERE cid = 61"
    ) == customers + 3
    assert checked.moved(ROWS, "DELETE FROM Customers WHERE cid = 0") == 0
    assert checked.moved(ROWS, "DELETE FROM Orders WHERE oid > 170") == \
        orders - 10

    # A new table under an old name starts without a fragment.
    checked.execute("DROP TABLE Stores")
    checked.execute("CREATE TABLE Stores (id INT, opened DATE)")
    assert checked.moved(
        ROWS, "INSERT INTO Stores VALUES (1, '2001-04-02'), (2, NULL)") == 2

    # A model's entry is rebuilt by whatever changes the model, and only
    # by that.
    metrics = checked.conn.provider.metrics
    checked.execute(NB_DDL)
    first = checked.moved(CASES, NB_TRAIN.format("<= 120"))
    assert first == checked.conn.model("NB").case_count > 0
    assert checked.moved(CASES, "SELECT * FROM NB.CONTENT") == 0
    assert checked.moved(
        CASES, "INSERT INTO Stores VALUES (3, '2001-04-03')") == 0
    absorbed = checked.moved(CASES, NB_TRAIN.format("> 120"))
    model = checked.conn.model("NB")
    assert model.insert_count == 2 and model.algorithm.SUPPORTS_INCREMENTAL
    assert absorbed == model.case_count > first

    path = tmp_path / "nb.pmml"
    checked.execute(f"EXPORT MINING MODEL NB TO '{path}'")
    assert checked.moved(
        CASES, f"IMPORT MINING MODEL FROM '{path}' AS [NB copy]") == 0
    checked.execute("DELETE FROM NB")
    assert checked.moved(CASES, NB_TRAIN.format("<= 60")) == \
        checked.conn.model("NB").case_count
    checked.execute("DROP MINING MODEL NB")
    checked.execute(NB_DDL)
    checked.execute(NB_TRAIN.format("> 60"))
    checked.execute("DROP MINING MODEL [NB copy]")
    assert metrics.value(ROWS) > 0 and metrics.value(CASES) > 0
    checked.conn.close()


def test_pooled_refit_matches_reference():
    checked = Checked(max_workers=2, pool_mode="thread")
    _load(checked)
    checked.execute(NB_DDL)
    encoded = checked.moved(CASES, NB_TRAIN.format("<= 120"))
    assert encoded == checked.conn.model("NB").case_count
    # The refit dropped the first entry; the second INSERT is absorbed.
    assert checked.moved(CASES, NB_TRAIN.format("> 120")) == \
        checked.conn.model("NB").case_count
    assert checked.moved(CASES, "SELECT * FROM NB.CONTENT") == 0
    checked.conn.close()


def test_paged_tables_are_encoded_by_every_dump(tmp_path):
    checked = Checked(storage_path=str(tmp_path / "pages"), buffer_pages=2)
    _load(checked)
    rows = sum(len(table)
               for table in checked.conn.database.tables.values())
    assert checked.moved(ROWS, "SELECT * FROM Stores") == rows
    assert all(table.snapshot_rows is None
               for table in checked.conn.database.tables.values())
    checked.conn.close()


# -- one table, any sequence of mutations --------------------------------------

CELLS = st.tuples(
    st.one_of(st.none(), st.integers(-2 ** 40, 2 ** 40)),
    st.one_of(st.none(), st.text(max_size=6),
              st.sampled_from(["ünï", "☃", '"', "\\", "\x00", "]"])),
    st.one_of(st.none(),
              st.dates(),
              st.datetimes(min_value=datetime.datetime(1900, 1, 1),
                           max_value=datetime.datetime(2100, 1, 1))),
    st.one_of(st.none(), st.floats(allow_nan=True, allow_infinity=True),
              st.just(float("nan"))),
)
OPS = st.one_of(
    st.tuples(st.just("insert"), CELLS),
    st.tuples(st.just("insert_many"), st.lists(CELLS, max_size=4)),
    st.tuples(st.just("delete"), st.sampled_from(["none", "some", "all"])),
    st.tuples(st.just("update"), st.sampled_from(["none", "some", "all"])),
    st.tuples(st.just("truncate"), st.none()),
)
PICK = {
    "none": lambda row: False,
    "some": lambda row: row[0] is not None and row[0] % 2 == 0,
    "all": lambda row: True,
}


def _apply(table, op, argument):
    """Run one mutation; what it did to the table: ``None`` (nothing),
    a number of appended rows, or ``"rewritten"``."""
    if op == "insert":
        table.insert(argument)
        return 1
    if op == "insert_many":
        return table.insert_many(argument) or None
    if op in ("delete", "update"):
        positions = [i for i, r in enumerate(table.rows) if PICK[argument](r)]
        changed = (table.delete_at(positions) if op == "delete" else
                   table.update_at(positions,
                                   lambda row: (row[0], "u", row[2], row[3])))
        return "rewritten" if changed else None
    table.truncate()
    return "rewritten"


@given(st.lists(st.lists(OPS, min_size=0, max_size=3), max_size=12))
def test_table_mutation_sequence_matches_reference(steps):
    conn = repro.connect()
    provider = conn.provider
    table = conn.database.create_table(TableSchema("T", [
        ColumnSchema("Id", LONG), ColumnSchema("Txt", TEXT),
        ColumnSchema("D", DATE), ColumnSchema("X", DOUBLE)]))
    # A second table nothing touches: encoded by the first dump only.
    other = conn.database.create_table(TableSchema("Other", [
        ColumnSchema("Id", LONG)]))
    other.insert_many([(1,), (2,), (3,)])
    metrics = provider.metrics
    assert dump_provider(provider) == reference_dump_provider(provider)
    assert metrics.value(ROWS) == 3
    for step in steps:
        appended = 0     # since the last dump: a row count, or "rewritten"
        for op, argument in step:
            did = _apply(table, op, argument)
            if did == "rewritten" or appended == "rewritten":
                appended = "rewritten"
            elif did is not None:
                appended += did
        before = metrics.value(ROWS)
        assert dump_provider(provider) == reference_dump_provider(provider)
        expected = len(table) if appended == "rewritten" else appended
        assert metrics.value(ROWS) - before == expected
    conn.close()


def test_nan_and_temporal_cells_are_spelled_as_before():
    conn = repro.connect()
    conn.execute("CREATE TABLE T (D DATE, X DOUBLE)")
    table = conn.database.table("T")
    table.insert((datetime.datetime(2001, 4, 2, 9, 30), float("nan")))
    table.insert((datetime.date(2001, 4, 2), math.inf))
    text = dump_provider(conn.provider)
    assert text == reference_dump_provider(conn.provider)
    assert ('"rows": [[{"$datetime": "2001-04-02T09:30:00"}, NaN], '
            '[{"$date": "2001-04-02"}, Infinity]]') in text
    conn.close()
