"""The Data Shaping Service: SHAPE execution, nested cells, flattening."""

import pytest

from repro.errors import BindError
from repro.lang.parser import Parser
from repro.server.protocol import rowset_dump
from repro.shaping import execute_shape, flatten_rowset
from repro.sqlstore import Database
from repro.sqlstore.rowset import Rowset


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE Customers (id LONG PRIMARY KEY, "
                     "Gender TEXT)")
    database.execute("INSERT INTO Customers VALUES (1, 'Male'), "
                     "(2, 'Female'), (3, 'Male')")
    database.execute("CREATE TABLE Sales (cid LONG, Product TEXT, "
                     "Quantity DOUBLE)")
    database.execute("INSERT INTO Sales VALUES (1, 'TV', 1.0), "
                     "(1, 'Beer', 6.0), (2, 'Ham', 2.0)")
    database.execute("CREATE TABLE Cars (cid LONG, Car TEXT)")
    database.execute("INSERT INTO Cars VALUES (1, 'Truck'), (1, 'Van')")
    return database


def shape_of(text):
    return Parser(text).parse_shape()


class TestShapeExecution:
    def test_one_append(self, db):
        rowset = execute_shape(shape_of(
            "SHAPE {SELECT id, Gender FROM Customers ORDER BY id} "
            "APPEND ({SELECT cid, Product, Quantity FROM Sales} "
            "RELATE id TO cid) AS Purchases"), db)
        assert rowset.column_names() == ["id", "Gender", "Purchases"]
        assert len(rowset) == 3
        purchases = rowset.rows[0][2]
        assert isinstance(purchases, Rowset)
        assert len(purchases) == 2

    def test_childless_case_gets_empty_nested_rowset(self, db):
        rowset = execute_shape(shape_of(
            "SHAPE {SELECT id FROM Customers ORDER BY id} "
            "APPEND ({SELECT cid, Product FROM Sales} RELATE id TO cid) "
            "AS P"), db)
        assert len(rowset.rows[2][1]) == 0  # customer 3 bought nothing

    def test_two_appends(self, db):
        rowset = execute_shape(shape_of(
            "SHAPE {SELECT id FROM Customers ORDER BY id} "
            "APPEND ({SELECT cid, Product FROM Sales} RELATE id TO cid) "
            "AS P, ({SELECT cid, Car FROM Cars} RELATE id TO cid) AS C"),
            db)
        assert rowset.column_names() == ["id", "P", "C"]
        assert len(rowset.rows[0][2]) == 2  # two cars for customer 1

    def test_nested_shape(self, db):
        db.execute("CREATE TABLE Details (Product TEXT, Fact TEXT)")
        db.execute("INSERT INTO Details VALUES ('TV', 'big'), "
                   "('Beer', 'cold')")
        rowset = execute_shape(shape_of(
            "SHAPE {SELECT id FROM Customers ORDER BY id} "
            "APPEND ({SHAPE {SELECT cid, Product FROM Sales} "
            "APPEND ({SELECT Product AS p2, Fact FROM Details} "
            "RELATE Product TO p2) AS D} RELATE id TO cid) AS P"), db)
        purchases = rowset.rows[0][1]
        assert purchases.column_names() == ["cid", "Product", "D"]
        details = purchases.rows[0][2]
        assert details.rows[0][1] == "big"

    def test_unknown_relate_column(self, db):
        with pytest.raises(BindError):
            execute_shape(shape_of(
                "SHAPE {SELECT id FROM Customers} "
                "APPEND ({SELECT cid FROM Sales} RELATE nope TO cid) "
                "AS P"), db)

    def test_unknown_child_relate_column(self, db):
        with pytest.raises(BindError):
            execute_shape(shape_of(
                "SHAPE {SELECT id FROM Customers} "
                "APPEND ({SELECT cid FROM Sales} RELATE id TO nope) "
                "AS P"), db)

    def test_shape_via_database_select(self, db):
        # a SHAPE can be a FROM source of a plain SELECT
        from repro.core.provider import Provider
        provider = Provider()
        provider.database.tables = db.tables
        rowset = provider.execute(
            "SELECT id, Gender FROM (SHAPE {SELECT id, Gender FROM "
            "Customers ORDER BY id} APPEND ({SELECT cid, Product FROM "
            "Sales} RELATE id TO cid) AS P) AS x WHERE id < 3")
        assert len(rowset) == 2


class TestNestedCellsShareTheirBuckets:
    """``_open_shape`` builds its cells with ``Rowset.over``: nothing is
    copied per case, and a cell still reads like one built the copying
    way."""

    SHAPE = ("SHAPE {SELECT cid, Product FROM Sales} "
             "APPEND ({SELECT cid, Product, Quantity FROM Sales} "
             "RELATE cid TO cid) AS Same, "
             "({SELECT cid, Car FROM Cars} RELATE cid TO cid) AS Cars")

    def test_one_relate_key_one_row_list(self, db):
        rowset = execute_shape(shape_of(self.SHAPE), db)
        tv, beer, ham = rowset.rows       # master cid: 1, 1, 2
        assert tv[2].rows is beer[2].rows and tv[3].rows is beer[3].rows
        assert tv[2] is not beer[2]       # DISTINCT keys a cell by identity
        assert tv[2].rows is not ham[2].rows
        assert tv[2].columns is ham[2].columns is \
            rowset.columns[2].nested_columns
        assert ham[3].rows == []          # a miss: the arm's empty cell

    def test_an_adopted_cell_equals_a_copied_one(self, db):
        rowset = execute_shape(shape_of(self.SHAPE), db)
        for row in rowset.rows:
            for cell in row[2:]:
                copied = Rowset(cell.columns, cell.rows)
                assert cell.columns == copied.columns
                assert cell.rows == copied.rows and len(cell) == len(copied)
                for name in cell.column_names():
                    assert cell.index_of(name.lower()) == \
                        copied.index_of(name.lower())
                    assert cell.has_column(name.upper())
                assert cell.to_dicts() == copied.to_dicts()
                assert rowset_dump(cell) == rowset_dump(copied)
        rebuilt = Rowset(rowset.columns, [
            row[:2] + tuple(Rowset(cell.columns, cell.rows)
                            for cell in row[2:])
            for row in rowset.rows])
        assert rowset_dump(rowset) == rowset_dump(rebuilt)
        assert rowset_dump(flatten_rowset(rowset)) == \
            rowset_dump(flatten_rowset(rebuilt))


class TestFlatten:
    def test_flatten_cross_products_nested_tables(self, db):
        rowset = execute_shape(shape_of(
            "SHAPE {SELECT id FROM Customers ORDER BY id} "
            "APPEND ({SELECT cid, Product FROM Sales} RELATE id TO cid) "
            "AS P, ({SELECT cid, Car FROM Cars} RELATE id TO cid) AS C"),
            db)
        flat = flatten_rowset(rowset)
        # customer 1: 2 products x 2 cars = 4; customer 2: 1x1(empty car ->1);
        # customer 3: empty x empty -> 1
        assert len(flat) == 4 + 1 + 1
        assert "P.Product" in flat.column_names()
        assert "C.Car" in flat.column_names()

    def test_flatten_keeps_empty_cases_with_nulls(self, db):
        rowset = execute_shape(shape_of(
            "SHAPE {SELECT id FROM Customers ORDER BY id} "
            "APPEND ({SELECT cid, Product FROM Sales} RELATE id TO cid) "
            "AS P"), db)
        flat = flatten_rowset(rowset)
        last = flat.rows[-1]
        assert last[0] == 3 and last[1] is None and last[2] is None

    def test_flatten_without_nested_is_identity(self, db):
        rowset = db.execute("SELECT id FROM Customers")
        flat = flatten_rowset(rowset)
        assert flat.rows == rowset.rows
