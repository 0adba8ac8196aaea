"""The relational engine: SELECT, joins, grouping, DML, views."""

import pytest

import repro
from repro.errors import BindError, CatalogError, Error, SchemaError
from repro.lang.parser import parse_statement
from repro.sqlstore import Database


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE Customers ([Customer ID] LONG PRIMARY "
                     "KEY, Gender TEXT, Age DOUBLE)")
    database.execute("INSERT INTO Customers VALUES "
                     "(1, 'Male', 35.0), (2, 'Female', 28.0), "
                     "(3, 'Male', NULL), (4, 'Female', 52.0)")
    database.execute("CREATE TABLE Sales (CustID LONG, Product TEXT, "
                     "Quantity DOUBLE)")
    database.execute("INSERT INTO Sales VALUES "
                     "(1, 'TV', 1.0), (1, 'Beer', 6.0), (2, 'Ham', 2.0), "
                     "(4, 'Wine', 3.0), (4, 'TV', 1.0)")
    return database


class TestSelectBasics:
    def test_select_star(self, db):
        rowset = db.execute("SELECT * FROM Customers")
        assert len(rowset) == 4
        assert rowset.column_names() == ["Customer ID", "Gender", "Age"]

    def test_projection_and_alias(self, db):
        rowset = db.execute(
            "SELECT [Customer ID] AS id, Age * 2 AS doubled FROM Customers "
            "WHERE [Customer ID] = 1")
        assert rowset.column_names() == ["id", "doubled"]
        assert rowset.rows == [(1, 70.0)]

    def test_where_null_never_matches(self, db):
        rowset = db.execute("SELECT * FROM Customers WHERE Age > 0")
        assert len(rowset) == 3  # customer 3 (NULL age) excluded

    def test_where_is_null(self, db):
        rowset = db.execute(
            "SELECT [Customer ID] FROM Customers WHERE Age IS NULL")
        assert rowset.rows == [(3,)]

    def test_order_by_nulls_first_asc(self, db):
        rowset = db.execute("SELECT Age FROM Customers ORDER BY Age")
        assert rowset.column_values("Age") == [None, 28.0, 35.0, 52.0]

    def test_order_by_desc(self, db):
        rowset = db.execute(
            "SELECT [Customer ID] FROM Customers ORDER BY Age DESC")
        assert rowset.column_values("Customer ID") == [4, 1, 2, 3]

    def test_multi_key_order(self, db):
        rowset = db.execute("SELECT Gender, [Customer ID] FROM Customers "
                            "ORDER BY Gender, [Customer ID] DESC")
        assert rowset.rows == [("Female", 4), ("Female", 2),
                               ("Male", 3), ("Male", 1)]

    def test_order_by_expression(self, db):
        rowset = db.execute("SELECT [Customer ID] FROM Customers "
                            "WHERE Age IS NOT NULL ORDER BY Age * -1")
        assert rowset.column_values("Customer ID") == [4, 1, 2]

    def test_top(self, db):
        rowset = db.execute("SELECT TOP 2 [Customer ID] FROM Customers "
                            "ORDER BY [Customer ID]")
        assert rowset.rows == [(1,), (2,)]

    def test_distinct(self, db):
        rowset = db.execute("SELECT DISTINCT Gender FROM Customers")
        assert sorted(rowset.column_values("Gender")) == ["Female", "Male"]

    def test_select_without_from(self, db):
        rowset = db.execute("SELECT 1 + 1 AS two, 'x' AS s")
        assert rowset.rows == [(2, "x")]

    def test_select_without_from_runs_subqueries(self, db):
        rowset = db.execute(
            "SELECT (SELECT MAX(Age) FROM Customers) AS oldest, "
            "2 IN (SELECT CustID FROM Sales) AS sold, -(1 + 1) AS n")
        assert rowset.rows == [(52.0, True, -2)]
        assert rowset.column_names() == ["oldest", "sold", "n"]

    def test_select_star_without_from(self, db):
        with pytest.raises(BindError,
                           match=r"SELECT \* requires a FROM clause"):
            db.execute("SELECT *")
        with pytest.raises(BindError, match="cannot resolve column 'x'"):
            db.execute("SELECT x, *")  # item by item, left to right

    def test_qualified_star(self, db):
        rowset = db.execute(
            "SELECT c.* FROM Customers c JOIN Sales s "
            "ON c.[Customer ID] = s.CustID WHERE s.Product = 'TV'")
        assert rowset.column_names() == ["Customer ID", "Gender", "Age"]
        assert len(rowset) == 2


class TestJoins:
    @pytest.mark.parametrize("statistics", [True, False])
    def test_a_qualified_column_its_source_lacks_is_a_bind_error(
            self, statistics):
        """``a.y`` where A has no ``y`` once read B's ``y`` by its bare
        name — with statistics in a filter pushed to A, without them above
        the join.  Either way it names no column."""
        database = Database(statistics=statistics)
        database.execute("CREATE TABLE A (id LONG, x LONG)")
        database.execute("CREATE TABLE B (id LONG, y LONG)")
        database.execute("INSERT INTO A VALUES (1, 7), (2, 8)")
        database.execute("INSERT INTO B VALUES (1, 7), (2, 9)")
        join = "SELECT a.id FROM A AS a JOIN B AS b ON a.id = b.id WHERE "
        with pytest.raises(BindError, match="'a.y'"):
            database.execute(join + "a.y = 7")
        assert database.execute(join + "b.y = 7").rows == [(1,)]
        assert database.execute(join + "y = 9").rows == [(2,)]

    @pytest.mark.parametrize("statistics", [True, False])
    @pytest.mark.parametrize("store", ["memory", "paged"])
    def test_a_qualifier_that_names_no_source_is_a_bind_error(
            self, tmp_path, statistics, store):
        """``b.x`` where no source is called ``b`` once read the bare
        ``x``: a DELETE removed the rows it held 7 for, an UPDATE changed
        them.  Each is a BindError and changes nothing."""
        paged = {"storage_path": str(tmp_path)} if store == "paged" else {}
        conn = repro.connect(statistics=statistics, **paged)
        conn.execute("CREATE TABLE A (id LONG, x LONG)")
        conn.execute("INSERT INTO A VALUES (1, 7), (2, 7), (3, 8)")
        for statement in ("SELECT a.id FROM A AS a WHERE b.x = 7",
                          "SELECT b.x FROM A",
                          "DELETE FROM A WHERE b.x = 7",
                          "UPDATE A SET x = 0 WHERE zz.x = 8",
                          "UPDATE A SET x = zz.x"):
            with pytest.raises(BindError, match="cannot resolve column"):
                conn.execute(statement)
        assert sorted(conn.execute("SELECT * FROM A").rows) == \
            [(1, 7), (2, 7), (3, 8)]
        assert conn.execute("DELETE FROM A WHERE A.x = 7") == 2
        conn.close()

    def test_inner_join(self, db):
        rowset = db.execute(
            "SELECT c.[Customer ID], s.Product FROM Customers c "
            "JOIN Sales s ON c.[Customer ID] = s.CustID "
            "ORDER BY c.[Customer ID], s.Product")
        assert rowset.rows == [(1, "Beer"), (1, "TV"), (2, "Ham"),
                               (4, "TV"), (4, "Wine")]

    def test_left_join_pads_nulls(self, db):
        rowset = db.execute(
            "SELECT c.[Customer ID], s.Product FROM Customers c "
            "LEFT JOIN Sales s ON c.[Customer ID] = s.CustID "
            "WHERE c.[Customer ID] = 3")
        assert rowset.rows == [(3, None)]

    def test_left_join_with_residual_predicate(self, db):
        rowset = db.execute(
            "SELECT c.[Customer ID], s.Product FROM Customers c "
            "LEFT JOIN Sales s ON c.[Customer ID] = s.CustID "
            "AND s.Quantity > 2 ORDER BY c.[Customer ID]")
        assert rowset.rows == [(1, "Beer"), (2, None), (3, None),
                               (4, "Wine")]

    def test_cross_join(self, db):
        rowset = db.execute(
            "SELECT COUNT(*) FROM Customers CROSS JOIN Sales")
        assert rowset.single_value() == 20

    def test_implicit_cross_join_comma(self, db):
        rowset = db.execute(
            "SELECT COUNT(*) FROM Customers, Sales")
        assert rowset.single_value() == 20

    def test_non_equi_join_falls_back_to_nested_loop(self, db):
        rowset = db.execute(
            "SELECT COUNT(*) FROM Customers c JOIN Sales s "
            "ON c.[Customer ID] < s.CustID")
        # pairs: (1, s2) (1, s4x2) (2, s4x2) (3, s4x2) = 1+2+2+2 = 7... compute
        assert rowset.single_value() == 7

    def test_three_way_join(self, db):
        db.execute("CREATE TABLE Regions (CustID LONG, Region TEXT)")
        db.execute("INSERT INTO Regions VALUES (1, 'West'), (2, 'East')")
        rowset = db.execute(
            "SELECT c.[Customer ID], s.Product, r.Region FROM Customers c "
            "JOIN Sales s ON c.[Customer ID] = s.CustID "
            "JOIN Regions r ON c.[Customer ID] = r.CustID "
            "ORDER BY c.[Customer ID], s.Product")
        assert rowset.rows == [(1, "Beer", "West"), (1, "TV", "West"),
                               (2, "Ham", "East")]

    def test_subquery_source(self, db):
        rowset = db.execute(
            "SELECT t.Product FROM (SELECT Product, Quantity FROM Sales "
            "WHERE Quantity > 2) AS t ORDER BY t.Product")
        assert rowset.column_values("Product") == ["Beer", "Wine"]


class TestGrouping:
    def test_group_by_with_aggregates(self, db):
        rowset = db.execute(
            "SELECT Gender, COUNT(*) AS n, AVG(Age) AS avg_age "
            "FROM Customers GROUP BY Gender ORDER BY Gender")
        assert rowset.rows == [("Female", 2, 40.0), ("Male", 2, 35.0)]

    def test_count_ignores_nulls_but_star_does_not(self, db):
        rowset = db.execute(
            "SELECT COUNT(*) AS rows, COUNT(Age) AS ages FROM Customers")
        assert rowset.rows == [(4, 3)]

    def test_count_distinct(self, db):
        rowset = db.execute(
            "SELECT COUNT(DISTINCT Product) FROM Sales")
        assert rowset.single_value() == 4

    def test_sum_min_max(self, db):
        rowset = db.execute(
            "SELECT SUM(Quantity), MIN(Quantity), MAX(Quantity) FROM Sales")
        assert rowset.rows == [(13.0, 1.0, 6.0)]

    def test_stdev_var(self, db):
        rowset = db.execute("SELECT VAR(Quantity) FROM Sales")
        assert rowset.single_value() == pytest.approx(4.3, abs=0.01)

    def test_having(self, db):
        rowset = db.execute(
            "SELECT CustID, COUNT(*) AS n FROM Sales GROUP BY CustID "
            "HAVING COUNT(*) > 1 ORDER BY CustID")
        assert rowset.rows == [(1, 2), (4, 2)]

    def test_aggregate_without_group_by_on_empty_input(self, db):
        rowset = db.execute(
            "SELECT COUNT(*), SUM(Quantity) FROM Sales WHERE CustID = 99")
        assert rowset.rows == [(0, None)]

    def test_group_order_by_aggregate(self, db):
        rowset = db.execute(
            "SELECT CustID, SUM(Quantity) AS total FROM Sales "
            "GROUP BY CustID ORDER BY SUM(Quantity) DESC")
        assert rowset.column_values("CustID") == [1, 4, 2]

    def test_aggregate_expression(self, db):
        rowset = db.execute(
            "SELECT SUM(Quantity) / COUNT(*) AS mean FROM Sales")
        assert rowset.single_value() == pytest.approx(13.0 / 5)

    def test_aggregate_under_in_select_makes_the_query_grouped(self, db):
        # Was ``BindError: unknown function 'COUNT'``: the walk that looks
        # for aggregates forgot the operand of IN (SELECT ...).
        rowset = db.execute("SELECT COUNT(*) IN (SELECT 5) AS x FROM Sales")
        assert rowset.rows == [(True,)]
        rowset = db.execute(
            "SELECT COUNT(*) NOT IN (SELECT 5) AS x FROM Sales")
        assert rowset.rows == [(False,)]

    def test_having_aggregate_in_select_filters_groups(self, db):
        rowset = db.execute(
            "SELECT CustID FROM Sales GROUP BY CustID "
            "HAVING COUNT(*) IN (SELECT 2) ORDER BY CustID")
        assert rowset.rows == [(1,), (4,)]
        rowset = db.execute(
            "SELECT CustID FROM Sales GROUP BY CustID "
            "ORDER BY COUNT(*) IN (SELECT 2), CustID")
        assert rowset.rows == [(2,), (1,), (4,)]

    @pytest.mark.parametrize("statement, message", [
        ("SELECT CustID FROM {t} GROUP BY CustID HAVING Nope > 1",
         "cannot resolve column 'Nope'"),
        ("SELECT CustID FROM {t} GROUP BY CustID HAVING NOSUCH(CustID) = 1",
         "unknown function 'NOSUCH'"),
        ("SELECT CustID, Nope FROM {t} GROUP BY CustID",
         "cannot resolve column 'Nope'"),
        ("SELECT COUNT(*), NOSUCH(COUNT(*)) FROM {t}",
         "unknown function 'NOSUCH'"),
        ("SELECT CustID FROM {t} GROUP BY CustID ORDER BY Nope",
         "cannot resolve column 'Nope'"),
        ("SELECT CustID FROM {t} GROUP BY CustID ORDER BY NOSUCH(COUNT(*))",
         "unknown function 'NOSUCH'"),
        ("SELECT CustID FROM {t} GROUP BY CustID "
         "HAVING FALSE AND Nope > 1", "cannot resolve column 'Nope'"),
    ])
    @pytest.mark.parametrize("table", ["Sales", "Nothing"])
    def test_grouped_clauses_bind_at_open(self, db, statement, message,
                                          table):
        """HAVING, a grouped select item and a grouped ORDER BY bind before
        a row is read — on an empty table and behind a short-circuit too,
        the rule every other clause has followed since it compiled."""
        db.execute("CREATE TABLE Nothing (CustID LONG, Quantity DOUBLE)")
        with pytest.raises(BindError, match=message):
            db.execute(statement.format(t=table))

    def test_a_where_binds_at_open(self, db):
        """A WHERE that names no column plans — EXPLAIN renders its tree —
        and is the BindError when that tree opens, as every clause is."""
        plan = db.plan(parse_statement(
            "SELECT CustID FROM Sales WHERE Nope = 1"))
        assert [node.operator for node, _ in plan.walk()] == \
            ["select", "table scan"]
        with pytest.raises(BindError, match="cannot resolve column 'Nope'"):
            plan.run(db.batch_size)

    def test_non_aggregated_column_reads_the_groups_first_row(self, db):
        rowset = db.execute(
            "SELECT CustID, Product, UPPER(Product) || '!' AS loud "
            "FROM Sales GROUP BY CustID ORDER BY CustID")
        assert rowset.rows == [(1, "TV", "TV!"), (2, "Ham", "HAM!"),
                               (4, "Wine", "WINE!")]


class TestDml:
    def test_update(self, db):
        count = db.execute("UPDATE Customers SET Age = 30.0 "
                           "WHERE Gender = 'Male'")
        assert count == 2
        rowset = db.execute("SELECT Age FROM Customers WHERE Gender = "
                            "'Male'")
        assert rowset.column_values("Age") == [30.0, 30.0]

    def test_delete_where(self, db):
        count = db.execute("DELETE FROM Sales WHERE Quantity >= 3")
        assert count == 2
        assert db.execute("SELECT COUNT(*) FROM Sales").single_value() == 3

    def test_delete_all(self, db):
        count = db.execute("DELETE FROM Sales")
        assert count == 5

    def test_insert_select(self, db):
        db.execute("CREATE TABLE Archive (CustID LONG, Product TEXT, "
                   "Quantity DOUBLE)")
        count = db.execute("INSERT INTO Archive SELECT * FROM Sales")
        assert count == 5

    def test_insert_partial_columns(self, db):
        db.execute("INSERT INTO Sales (CustID, Product) VALUES (9, 'Gum')")
        rowset = db.execute("SELECT Quantity FROM Sales WHERE CustID = 9")
        assert rowset.single_value() is None

    def test_insert_arity_mismatch(self, db):
        with pytest.raises(SchemaError):
            db.execute("INSERT INTO Sales (CustID) VALUES (9, 'Gum')")

    def test_insert_values_cells_are_expressions(self, db):
        count = db.execute(
            "INSERT INTO Sales VALUES (1 + 1, UPPER('a'), -5), "
            "((SELECT MAX(CustID) FROM Sales), 'b' || 'c', (SELECT 2))")
        assert count == 2
        rowset = db.execute("SELECT * FROM Sales WHERE Quantity IN (-5, 2) "
                            "AND Product <> 'Ham'")
        assert rowset.rows == [(2, "A", -5.0), (4, "bc", 2.0)]

    def test_insert_values_cell_cannot_read_a_column(self, db):
        with pytest.raises(BindError, match="cannot resolve column 'CustID'"):
            db.execute("INSERT INTO Sales VALUES (CustID, 'x', 1)")
        assert db.execute("SELECT COUNT(*) FROM Sales").single_value() == 5


class TestCatalog:
    def test_duplicate_table(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE Customers (x LONG)")

    def test_drop_table(self, db):
        db.execute("DROP TABLE Sales")
        with pytest.raises(BindError):
            db.execute("SELECT * FROM Sales")

    def test_drop_missing_table(self, db):
        with pytest.raises(CatalogError):
            db.execute("DROP TABLE Nope")
        db.execute("DROP TABLE IF EXISTS Nope")  # no raise

    def test_views_expand_at_query_time(self, db):
        db.execute("CREATE VIEW Men AS SELECT * FROM Customers "
                   "WHERE Gender = 'Male'")
        assert db.execute("SELECT COUNT(*) FROM Men").single_value() == 2
        db.execute("INSERT INTO Customers VALUES (5, 'Male', 61.0)")
        assert db.execute("SELECT COUNT(*) FROM Men").single_value() == 3

    def test_view_name_conflicts(self, db):
        db.execute("CREATE VIEW V AS SELECT * FROM Sales")
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE V (x LONG)")

    def test_unknown_table(self, db):
        with pytest.raises(BindError):
            db.execute("SELECT * FROM Missing")

    def test_dmx_statement_without_provider(self, db):
        with pytest.raises(Error):
            db.execute("DROP MINING MODEL m")


class TestDistinctOrderInteraction:
    def test_distinct_then_order_by_source_expression(self, db):
        db.execute("CREATE TABLE Words (g TEXT)")
        db.execute("INSERT INTO Words VALUES ('bbb'), ('a'), ('bbb'), "
                   "('cc'), ('a')")
        rowset = db.execute(
            "SELECT DISTINCT g FROM Words ORDER BY LENGTH(g)")
        assert rowset.rows == [("a",), ("cc",), ("bbb",)]

    def test_distinct_order_by_output_column(self, db):
        rowset = db.execute(
            "SELECT DISTINCT Gender FROM Customers ORDER BY Gender DESC")
        assert rowset.column_values("Gender") == ["Male", "Female"]

    def test_distinct_with_top(self, db):
        rowset = db.execute(
            "SELECT DISTINCT TOP 1 Gender FROM Customers ORDER BY Gender")
        assert rowset.rows == [("Female",)]


class TestViewRecursion:
    def test_self_referencing_view_fails_cleanly(self, db):
        # The name is not yet defined at CREATE VIEW time, so creation
        # succeeds; querying must fail with a provider error, not a
        # RecursionError.
        db.execute("CREATE VIEW Loop AS SELECT * FROM Loop")
        with pytest.raises(Error, match="recursive"):
            db.execute("SELECT * FROM Loop")

    def test_mutually_recursive_views_fail_cleanly(self, db):
        db.execute("CREATE VIEW A2 AS SELECT * FROM B2")
        db.execute("CREATE VIEW B2 AS SELECT * FROM A2")
        with pytest.raises(Error, match="recursive"):
            db.execute("SELECT * FROM A2")

    def test_deep_but_finite_view_chain_works(self, db):
        db.execute("CREATE VIEW V0 AS SELECT Gender FROM Customers")
        for i in range(1, 10):
            db.execute(f"CREATE VIEW V{i} AS SELECT * FROM V{i - 1}")
        assert len(db.execute("SELECT * FROM V9")) == 4


class TestUnion:
    def test_union_dedups(self, db):
        rowset = db.execute(
            "SELECT Gender FROM Customers UNION SELECT Gender FROM "
            "Customers")
        assert sorted(rowset.column_values("Gender")) == ["Female", "Male"]

    def test_union_all_keeps_duplicates(self, db):
        rowset = db.execute(
            "SELECT Gender FROM Customers UNION ALL SELECT Gender FROM "
            "Customers")
        assert len(rowset) == 8

    def test_left_associative_mixed_semantics(self, db):
        db.execute("CREATE TABLE U1 (x LONG)")
        db.execute("INSERT INTO U1 VALUES (1), (1)")
        db.execute("CREATE TABLE U2 (x LONG)")
        db.execute("INSERT INTO U2 VALUES (1), (1)")
        # (U1 UNION U1) dedups to {1}; then UNION ALL U2 appends both 1s.
        rowset = db.execute("SELECT x FROM U1 UNION SELECT x FROM U1 "
                            "UNION ALL SELECT x FROM U2")
        assert len(rowset) == 3

    def test_width_mismatch_rejected(self, db):
        with pytest.raises(SchemaError):
            db.execute("SELECT Gender FROM Customers UNION "
                       "SELECT Gender, Age FROM Customers")

    def test_first_branch_names_columns(self, db):
        rowset = db.execute(
            "SELECT Gender AS g FROM Customers UNION "
            "SELECT Product FROM Sales")
        assert rowset.column_names() == ["g"]

    def test_union_of_literals(self, db):
        rowset = db.execute("SELECT 1 AS n UNION SELECT 2 UNION SELECT 1")
        assert sorted(rowset.column_values("n")) == [1, 2]

    def test_union_through_provider_with_model_content(self):
        import repro
        conn = repro.connect()
        conn.execute("CREATE TABLE T (Id LONG, G TEXT, L TEXT)")
        conn.execute("INSERT INTO T VALUES (1,'a','x'), (2,'b','y')")
        conn.execute("CREATE MINING MODEL M (Id LONG KEY, G TEXT "
                     "DISCRETE, L TEXT DISCRETE PREDICT) "
                     "USING Repro_Naive_Bayes")
        conn.execute("INSERT INTO M SELECT Id, G, L FROM T")
        rowset = conn.execute(
            "SELECT NODE_CAPTION FROM M.CONTENT "
            "WHERE NODE_UNIQUE_NAME = '0' "
            "UNION SELECT G FROM T")
        assert len(rowset) == 3


class TestResultTail:
    """Every SELECT ends in one tail: the output columns typed by one rule,
    then DISTINCT (the first occurrence of each row), ORDER BY and TOP."""

    @pytest.fixture
    def late(self):
        import repro
        conn = repro.connect()
        conn.execute("CREATE TABLE L (i LONG, x DOUBLE)")
        conn.execute("INSERT INTO L VALUES " + ", ".join(
            f"({i}, {'NULL' if i < 25 else i / 2})" for i in range(40)))
        yield conn
        conn.close()

    @pytest.mark.parametrize("suffix", ["", " ORDER BY i"])
    @pytest.mark.parametrize("transport", ["materialized", "stream", "wire"])
    def test_an_expression_column_is_typed_by_its_first_value(
            self, late, transport, suffix):
        """NULL in its first 25 rows: a sample of the head saw none."""
        from repro.client import connect as net_connect
        from repro.server import DmxServer

        statement = "SELECT i, x * 2 AS y, x IS NULL AS n FROM L" + suffix
        if transport == "wire":
            with DmxServer(late.provider, port=0) as server, \
                    net_connect("127.0.0.1", server.port) as wire:
                result = wire.execute(statement)
            assert server.thread_errors == []
        elif transport == "stream":
            result = late.execute_stream(statement, batch_size=4)
            result = result.materialize()
        else:
            result = late.execute(statement)
        assert [(c.name, c.type.name) for c in result.columns] == [
            ("i", "LONG"), ("y", "DOUBLE"), ("n", "BOOLEAN")]
        assert result.rows[24:26] == [(24, None, True), (25, 25.0, False)]

    def test_a_stream_of_declared_columns_reads_no_row_when_opened(
            self, late):
        stream = late.execute_stream("SELECT x, i FROM L", batch_size=5)
        assert [c.type.name for c in stream.columns] == ["DOUBLE", "LONG"]
        del stream   # closed unread
        log = late.execute("SELECT STATEMENT, ROWS_SCANNED, ROWS_OUT "
                           "FROM $SYSTEM.DM_QUERY_LOG")
        assert ("SELECT x, i FROM L", 0, 0) in log.rows

    def test_a_grouped_select_keeps_first_occurrences_before_it_sorts(
            self, db):
        db.execute("CREATE TABLE G (g LONG, h TEXT, v LONG)")
        db.execute("INSERT INTO G VALUES (1, 'a', 5), (2, 'a', 1), "
                   "(1, 'b', 0)")
        # Groups (1, a) 5, (2, a) 1, (1, b) 0: DISTINCT keeps g = 1 of the
        # first group, whose key is 5.
        assert db.execute("SELECT DISTINCT g FROM G GROUP BY g, h "
                          "ORDER BY SUM(v)").rows == [(2,), (1,)]
        assert db.execute("SELECT DISTINCT TOP 1 g FROM G GROUP BY g, h "
                          "ORDER BY SUM(v) DESC").rows == [(1,)]

    @pytest.mark.parametrize("statement", [
        "SELECT DISTINCT a FROM K ORDER BY SQRT(b)",
        "SELECT DISTINCT a FROM K GROUP BY a, b ORDER BY SQRT(b)",
    ])
    def test_a_hidden_key_is_evaluated_for_the_rows_distinct_keeps(
            self, db, statement):
        """DISTINCT runs before the hidden ORDER BY key is evaluated: the
        duplicate whose key cannot be evaluated is gone by then."""
        db.execute("CREATE TABLE K (a LONG, b DOUBLE)")
        db.execute("INSERT INTO K VALUES (1, 4.0), (2, 9.0), (1, -1.0)")
        assert db.execute(statement).rows == [(1,), (2,)]
        with pytest.raises(Error, match="math domain error"):
            db.execute(statement.replace("DISTINCT ", ""))

    def test_a_select_without_from_ends_in_the_tail(self, db):
        assert db.execute("SELECT TOP 0 1 AS one").rows == []
        result = db.execute("SELECT DISTINCT TOP 3 1 AS one, NULL, 2.5 "
                            "ORDER BY one")
        assert result.rows == [(1, None, 2.5)]
        assert [c.type.name for c in result.columns] == \
            ["LONG", "TEXT", "DOUBLE"]

    def test_a_grouped_column_read_as_it_is_keeps_its_declared_type(
            self, db):
        db.execute("CREATE TABLE E (g DOUBLE, v LONG)")
        result = db.execute("SELECT g, COUNT(*) AS n FROM E GROUP BY g")
        # No group: the count has no value to be typed by.
        assert [(c.name, c.type.name) for c in result.columns] == [
            ("g", "DOUBLE"), ("n", "TEXT")]
