"""Schemas, table storage, indexes, and rowset access."""

import pytest

from repro.errors import BindError, SchemaError, TypeError_
from repro.sqlstore.rowset import Rowset, RowsetColumn
from repro.sqlstore.schema import ColumnSchema, TableSchema
from repro.sqlstore.table import Table
from repro.sqlstore.types import DOUBLE, LONG, TEXT


def customer_schema():
    return TableSchema("Customers", [
        ColumnSchema("Customer ID", LONG, primary_key=True),
        ColumnSchema("Gender", TEXT),
        ColumnSchema("Age", DOUBLE),
    ])


def _positions(table, predicate):
    """The positions of the rows ``predicate`` holds for, as a DELETE's or
    UPDATE's access path hands them to the table."""
    return [i for i, r in enumerate(table.rows) if predicate(r)]


class TestSchema:
    def test_case_insensitive_lookup(self):
        schema = customer_schema()
        assert schema.index_of("customer id") == 0
        assert schema.column("GENDER").name == "Gender"

    def test_unknown_column(self):
        with pytest.raises(BindError):
            customer_schema().index_of("Salary")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [ColumnSchema("a", LONG),
                              ColumnSchema("A", TEXT)])

    def test_primary_key_index(self):
        assert customer_schema().primary_key_index() == 0

    def test_spaced_names_preserved(self):
        assert customer_schema().column_names()[0] == "Customer ID"


class TestTable:
    def test_insert_coerces(self):
        table = Table(customer_schema())
        table.insert(("1", "Male", 35))
        assert table.rows[0] == (1, "Male", 35.0)

    def test_wrong_arity(self):
        table = Table(customer_schema())
        with pytest.raises(SchemaError):
            table.insert((1, "Male"))

    def test_primary_key_uniqueness(self):
        table = Table(customer_schema())
        table.insert((1, "Male", 35.0))
        with pytest.raises(SchemaError):
            table.insert((1, "Female", 28.0))

    def test_pk_not_nullable(self):
        table = Table(customer_schema())
        with pytest.raises(TypeError_):
            table.insert((None, "Male", 35.0))

    def test_delete_at_rebuilds_pk(self):
        table = Table(customer_schema())
        table.insert_many([(1, "Male", 35.0), (2, "Female", 28.0)])
        removed = table.delete_at(_positions(table, lambda row: row[0] == 1))
        assert removed == 1
        table.insert((1, "Male", 35.0))  # pk slot freed
        assert len(table) == 2

    def test_update_at(self):
        table = Table(customer_schema())
        table.insert_many([(1, "Male", 35.0), (2, "Female", 28.0)])
        changed = table.update_at(
            _positions(table, lambda row: row[1] == "Male"),
            lambda row: (row[0], row[1], 99.0))
        assert changed == 1
        assert table.rows == [(1, "Male", 99.0), (2, "Female", 28.0)]

    def test_truncate(self):
        table = Table(customer_schema())
        table.insert((1, "Male", 35.0))
        table.truncate()
        assert len(table) == 0

    def test_version_and_row_count_rise_together_only_on_insert(self):
        """What the snapshot's append rule rests on: an insert adds one to
        ``version`` and one row; every other mutation that does anything
        adds one to ``version`` and no row — so the two have risen by the
        same amount exactly when nothing but inserts happened."""
        table = Table(customer_schema())

        def moved(mutate):
            before = (table.version, len(table))
            mutate()
            return (table.version - before[0], len(table) - before[1])

        assert moved(lambda: table.insert((1, "Male", 35.0))) == (1, 1)
        assert moved(lambda: table.insert_many(
            [(2, "Female", 28.0), (3, "Male", 41.0)])) == (2, 2)
        with pytest.raises(SchemaError):
            moved(lambda: table.insert((3, "Male", 1.0)))   # duplicate key
        assert (table.version, len(table)) == (3, 3)
        keep = lambda row: (row[0], row[1], row[2] + 1)
        assert moved(lambda: table.update_at(
            _positions(table, lambda row: row[0] == 1), keep)) == (1, 0)
        assert moved(lambda: table.update_at(
            _positions(table, lambda row: False), keep)) == (0, 0)
        assert moved(lambda: table.delete_at(
            _positions(table, lambda row: row[0] == 2))) == (1, -1)
        assert moved(lambda: table.delete_at(
            _positions(table, lambda row: False))) == (0, 0)
        assert moved(table.truncate) == (1, -2)
        assert moved(table.truncate) == (1, 0)    # of an empty table too

    def test_rowset_columns_and_rows(self):
        table = Table(customer_schema())
        table.insert((1, "Male", 35.0))
        assert [column.name for column in table.rowset_columns()] == \
            ["Customer ID", "Gender", "Age"]
        assert table.rows == [(1, "Male", 35.0)]


class TestRowset:
    def test_column_access(self):
        rowset = Rowset([RowsetColumn("a", LONG), RowsetColumn("b", TEXT)],
                        [(1, "x"), (2, "y")])
        assert rowset.column_values("B") == ["x", "y"]
        assert rowset.index_of("a") == 0
        assert len(rowset) == 2

    def test_unknown_column(self):
        rowset = Rowset([RowsetColumn("a", LONG)], [])
        with pytest.raises(BindError):
            rowset.index_of("z")

    def test_duplicate_names_first_wins(self):
        rowset = Rowset([RowsetColumn("a", LONG), RowsetColumn("a", TEXT)],
                        [(1, "x")])
        assert rowset.index_of("a") == 0

    def test_single_value(self):
        rowset = Rowset([RowsetColumn("n", LONG)], [(5,)])
        assert rowset.single_value() == 5

    def test_single_value_requires_1x1(self):
        rowset = Rowset([RowsetColumn("n", LONG)], [(5,), (6,)])
        with pytest.raises(BindError):
            rowset.single_value()

    def test_nested_rowsets_in_to_dicts(self):
        inner = Rowset([RowsetColumn("p", TEXT)], [("TV",)])
        outer = Rowset(
            [RowsetColumn("id", LONG),
             RowsetColumn("items", nested_columns=list(inner.columns))],
            [(1, inner)])
        dicts = outer.to_dicts()
        assert dicts == [{"id": 1, "items": [{"p": "TV"}]}]

    def test_from_dicts_infers_columns(self):
        rowset = Rowset.from_dicts([{"a": 1, "b": "x"}, {"a": 2}])
        assert rowset.column_names() == ["a", "b"]
        assert rowset.rows[1] == (2, None)

    def test_pretty_renders_nested(self):
        inner = Rowset([RowsetColumn("p", TEXT)], [("TV",)])
        outer = Rowset(
            [RowsetColumn("id", LONG),
             RowsetColumn("items", nested_columns=list(inner.columns))],
            [(1, inner)])
        text = outer.pretty()
        assert "<TABLE 1 rows>" in text
        assert "TV" in text

    def test_pretty_truncates(self):
        rowset = Rowset([RowsetColumn("n", LONG)],
                        [(i,) for i in range(100)])
        assert "more rows" in rowset.pretty(max_rows=10)
