"""Provider-level behaviours not covered elsewhere: scripts, facets,
connection semantics, dispatch corners."""

import gc
import weakref

import pytest

import repro
from repro.errors import BindError, Error, NotTrainedError
from repro.sqlstore.rowset import Rowset


class TestConnection:
    def test_context_manager_closes(self):
        with repro.connect() as conn:
            conn.execute("SELECT 1")
        with pytest.raises(Error):
            conn.execute("SELECT 1")

    def test_closing_frees_tables_and_provider_by_reference_count(self):
        """No statement kind leaves a reference cycle through the database
        behind: executed plan trees are handed their node (``PlanNode.
        open``) rather than closing over it, and the provider's two hooks
        are held weakly.  So a closed connection's memory is returned at
        ``del``, not whenever a gen-2 collection next runs."""
        gc.disable()
        try:
            conn = repro.connect()
            conn.execute_script("""
                CREATE TABLE T (a LONG, b TEXT);
                CREATE TABLE U (a LONG, b TEXT);
                INSERT INTO T VALUES (1, 'x'), (2, 'y'), (3, 'x');
                INSERT INTO U VALUES (1, 'p'), (2, 'q');
                CREATE VIEW V AS SELECT a, b FROM T WHERE a > 1;
                CREATE MINING MODEL M (a LONG KEY, b TEXT DISCRETE PREDICT)
                    USING Microsoft_Decision_Trees;
                SELECT a FROM T WHERE a IN (SELECT a FROM U);
                SELECT T.a, U.b FROM T INNER JOIN U ON T.a = U.a;
                SELECT T.a FROM T LEFT JOIN V ON T.a = V.a AND V.b <> 'q';
                SELECT a FROM T UNION SELECT a FROM U;
                SELECT a FROM T UNION ALL SELECT a FROM V;
                SELECT b, COUNT(*) FROM T GROUP BY b HAVING COUNT(*) > 0
                    ORDER BY b;
                SELECT * FROM (SHAPE {SELECT a, b FROM T ORDER BY a}
                    APPEND ({SELECT a, b FROM U ORDER BY a}
                            RELATE a TO a) AS N) AS s;
                INSERT INTO M (a, b) SELECT a, b FROM T;
                INSERT INTO M (a, b) SELECT a, b FROM U;
                SELECT t.a, M.b, PredictProbability(b) FROM M
                    NATURAL PREDICTION JOIN (SELECT a, b FROM T) AS t
                    WHERE t.a IN (SELECT a FROM U);
                SELECT M.b FROM M NATURAL PREDICTION JOIN
                    (SELECT 4 AS a, 'x' AS b) AS t;
                SELECT * FROM M.CONTENT;
                SELECT * FROM $SYSTEM.DM_QUERY_LOG;
                EXPLAIN ANALYZE SELECT T.a FROM T INNER JOIN U ON T.a = U.a;
                EXPLAIN ANALYZE INSERT INTO M (a, b) SELECT a, b FROM T
            """)
            stream = conn.execute_stream("SELECT a FROM T", batch_size=1)
            assert next(stream.batches()) == [(1,)]
            del stream
            table = weakref.ref(conn.database.table("T"))
            database = weakref.ref(conn.database)
            provider = weakref.ref(conn.provider)
            conn.close()
            del conn
            assert table() is None
            assert database() is None
            assert provider() is None
        finally:
            gc.enable()

    def test_a_grouped_select_leaves_no_reference_cycle(self, conn):
        conn.execute("CREATE TABLE T (a LONG, b TEXT)")
        conn.execute("INSERT INTO T VALUES (1, 'x'), (2, 'y'), (3, 'x')")
        grouped = ("SELECT b, COUNT(*), SUM(a) FROM T GROUP BY b "
                   "HAVING MAX(a) > 0 ORDER BY SUM(a)")
        conn.execute(grouped)
        gc.collect()
        gc.disable()
        try:
            assert conn.execute(grouped).rows == [("y", 1, 2), ("x", 2, 4)]
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("drop", ["DROP TABLE T", "DROP MINING MODEL M"])
    def test_a_kept_plan_frees_what_a_drop_removed(self, conn, drop):
        """A DDL that moves the catalog version, or a DROP MINING MODEL,
        drops every kept plan: a kept point SELECT held its ``Table``, a
        kept singleton prediction its model and the model's caseset."""
        conn.execute("CREATE TABLE T (a LONG, b TEXT)")
        conn.execute("INSERT INTO T VALUES (1, 'x'), (2, 'y')")
        conn.execute("CREATE MINING MODEL M (a LONG KEY, b TEXT DISCRETE "
                     "PREDICT) USING Repro_Naive_Bayes")
        conn.execute("INSERT INTO M (a, b) SELECT a, b FROM T")
        for key in (1, 2, 1):       # a miss, then hits of the kept plans
            conn.execute(f"SELECT * FROM T WHERE a = {key}")
            conn.execute(f"SELECT M.b FROM M NATURAL PREDICTION JOIN "
                         f"(SELECT {key} AS a) AS t")
        dropped = weakref.ref(conn.database.table("T") if "TABLE" in drop
                              else conn.provider.model("M"))
        conn.execute(drop)
        gc.collect()
        assert dropped() is None

    def test_execute_script_returns_each_result(self, conn):
        results = conn.execute_script("""
            CREATE TABLE T (a LONG);
            INSERT INTO T VALUES (1), (2);
            SELECT COUNT(*) AS n FROM T;
        """)
        assert results[0] == 0
        assert results[1] == 2
        assert results[2].single_value() == 2

    def test_models_listing_sorted(self, conn):
        conn.execute("CREATE MINING MODEL Zeta (k LONG KEY, a TEXT "
                     "DISCRETE) USING Repro_Decision_Trees")
        conn.execute("CREATE MINING MODEL Alpha (k LONG KEY, a TEXT "
                     "DISCRETE) USING Repro_Decision_Trees")
        assert [m.name for m in conn.models()] == ["Alpha", "Zeta"]


class TestModelFacets:
    @pytest.fixture
    def trained(self, conn):
        conn.execute("CREATE TABLE T (Id LONG, G TEXT, L TEXT)")
        conn.execute("INSERT INTO T VALUES (1,'a','x'), (2,'b','y'), "
                     "(3,'a','x'), (4,'b','y')")
        conn.execute("CREATE MINING MODEL M (Id LONG KEY, G TEXT "
                     "DISCRETE, L TEXT DISCRETE PREDICT) "
                     "USING Repro_Decision_Trees(MINIMUM_SUPPORT=1)")
        conn.execute("INSERT INTO M SELECT Id, G, L FROM T")
        return conn

    def test_cases_facet_drillthrough(self, trained):
        rowset = trained.execute("SELECT * FROM M.CASES")
        assert len(rowset) == 4
        assert "G" in rowset.column_names()

    def test_cases_requires_training(self, conn):
        conn.execute("CREATE MINING MODEL M (Id LONG KEY, G TEXT "
                     "DISCRETE) USING Repro_Decision_Trees")
        with pytest.raises(NotTrainedError):
            conn.execute("SELECT * FROM M.CASES")

    def test_pmml_facet(self, trained):
        rowset = trained.execute(
            "SELECT MODEL_NAME, PMML FROM M.PMML")
        assert rowset.rows[0][0] == "M"
        assert "<PMML" in rowset.rows[0][1]

    def test_content_facet_with_alias(self, trained):
        rowset = trained.execute(
            "SELECT c.NODE_CAPTION FROM M.CONTENT AS c "
            "WHERE c.NODE_UNIQUE_NAME = '0'")
        assert rowset.single_value() == "M"

    def test_content_joins_with_sql(self, trained):
        # The content rowset is a first-class FROM source: join it.
        rowset = trained.execute("""
            SELECT a.NODE_CAPTION, b.NODE_CAPTION
            FROM M.CONTENT a JOIN M.CONTENT b
            ON a.NODE_UNIQUE_NAME = b.PARENT_UNIQUE_NAME
        """)
        assert len(rowset) >= 1


class TestDispatchCorners:
    def test_drop_table_statement_removes_model(self, conn):
        # "model as table": DROP TABLE on a model name drops the model.
        conn.execute("CREATE MINING MODEL M (k LONG KEY, a TEXT "
                     "DISCRETE) USING Repro_Decision_Trees")
        conn.execute("DROP TABLE M")
        assert not conn.provider.has_model("M")

    def test_flattened_plain_select(self, conn):
        conn.execute("CREATE TABLE C (Id LONG)")
        conn.execute("CREATE TABLE S (Cid LONG, P TEXT)")
        conn.execute("INSERT INTO C VALUES (1), (2)")
        conn.execute("INSERT INTO S VALUES (1,'x'), (1,'y')")
        rowset = conn.execute("""
            SELECT FLATTENED * FROM (SHAPE {SELECT Id FROM C ORDER BY Id}
            APPEND ({SELECT Cid, P FROM S} RELATE Id TO Cid) AS N) AS t
        """)
        assert not any(isinstance(v, Rowset)
                       for row in rowset.rows for v in row)
        assert len(rowset) == 3  # 2 rows for customer 1, NULL row for 2

    def test_insert_select_into_model_via_generic_insert(self, conn):
        conn.execute("CREATE TABLE T (Id LONG, A TEXT)")
        conn.execute("INSERT INTO T VALUES (1, 'x'), (2, 'y')")
        conn.execute("CREATE MINING MODEL M (Id LONG KEY, A TEXT "
                     "DISCRETE) USING Repro_Decision_Trees")
        # No binding list at all: by-name mapping.
        count = conn.execute("INSERT INTO M SELECT Id, A FROM T")
        assert count == 2

    def test_shape_as_top_level_command(self, conn):
        conn.execute("CREATE TABLE C (Id LONG)")
        conn.execute("INSERT INTO C VALUES (1)")
        conn.execute("CREATE TABLE S (Cid LONG, P TEXT)")
        rowset = conn.execute(
            "SHAPE {SELECT Id FROM C} APPEND ({SELECT Cid, P FROM S} "
            "RELATE Id TO Cid) AS N")
        assert rowset.column_names() == ["Id", "N"]

    def test_unknown_model_errors_name_it(self, conn):
        with pytest.raises(BindError, match="Ghost"):
            conn.execute("SELECT * FROM Ghost.CONTENT")

    def test_prediction_join_requires_model_not_table(self, conn):
        conn.execute("CREATE TABLE T (a LONG)")
        with pytest.raises(BindError):
            conn.execute("SELECT 1 FROM T NATURAL PREDICTION JOIN "
                         "(SELECT 1 AS a) AS s")


class TestPredictionCorners:
    @pytest.fixture
    def nb(self, conn):
        conn.execute("CREATE TABLE T (Id LONG, G TEXT, L TEXT)")
        conn.execute("INSERT INTO T VALUES (1,'a','x'), (2,'b','y'), "
                     "(3,'a','x'), (4,'b','y')")
        conn.execute("CREATE MINING MODEL M (Id LONG KEY, G TEXT "
                     "DISCRETE, L TEXT DISCRETE PREDICT) "
                     "USING Repro_Naive_Bayes")
        conn.execute("INSERT INTO M SELECT Id, G, L FROM T")
        return conn

    def test_predict_on_input_column_falls_back_to_marginal(self, nb):
        rowset = nb.execute(
            "SELECT Predict([G]) FROM M NATURAL PREDICTION JOIN "
            "(SELECT 'x' AS L) AS t")
        assert rowset.single_value() in ("a", "b")

    def test_distinct_prediction_rows(self, nb):
        rowset = nb.execute(
            "SELECT DISTINCT [M].[L] FROM M NATURAL PREDICTION JOIN "
            "(SELECT G FROM T) AS t")
        assert len(rowset) == 2

    def test_prediction_filter_and_order_combo(self, nb):
        rowset = nb.execute(
            "SELECT t.Id FROM M NATURAL PREDICTION JOIN "
            "(SELECT Id, G FROM T) AS t "
            "WHERE [M].[L] = 'x' ORDER BY t.Id DESC")
        assert rowset.column_values("Id") == [3, 1]

    def test_expression_over_prediction(self, nb):
        rowset = nb.execute(
            "SELECT UPPER([M].[L]) || '!' FROM M NATURAL PREDICTION "
            "JOIN (SELECT 'a' AS G) AS t")
        assert rowset.single_value() == "X!"

    def test_case_expression_in_prediction(self, nb):
        rowset = nb.execute(
            "SELECT CASE WHEN PredictProbability([L]) > 0.5 "
            "THEN 'confident' ELSE 'unsure' END FROM M "
            "NATURAL PREDICTION JOIN (SELECT 'a' AS G) AS t")
        assert rowset.single_value() in ("confident", "unsure")
