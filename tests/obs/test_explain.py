"""EXPLAIN / EXPLAIN ANALYZE: plan shapes, purity, and actuals."""

import pytest

from repro.errors import Error, ParseError
from repro.lang.formatter import format_statement
from repro.lang.parser import parse_statement as parse
from repro.obs.explain import is_plan_rowset

SETUP = [
    "CREATE TABLE People (id INT, age INT, risk TEXT)",
    "INSERT INTO People VALUES (1, 25, 'low'), (2, 62, 'high'), "
    "(3, 41, 'low'), (4, 70, 'high'), (5, 33, 'low')",
    "CREATE MINING MODEL Risk (id LONG KEY, age LONG CONTINUOUS, "
    "risk TEXT DISCRETE PREDICT) USING Microsoft_Decision_Trees",
]

TRAIN = "INSERT INTO Risk (id, age, risk) SELECT id, age, risk FROM People"
PREDICT = ("SELECT t.id, Risk.risk FROM Risk NATURAL PREDICTION JOIN "
           "(SELECT id, age FROM People) AS t")


def _rows(conn, statement):
    rowset = conn.execute(statement)
    assert is_plan_rowset(rowset)
    names = [c.name for c in rowset.columns]
    return [dict(zip(names, row)) for row in rowset.rows]


@pytest.fixture
def loaded(conn):
    for statement in SETUP:
        conn.execute(statement)
    return conn


class TestPlanShapes:
    def test_streamed_select_over_table_scan(self, loaded):
        rows = _rows(loaded, "EXPLAIN SELECT * FROM People WHERE age > 30")
        root, scan = rows[0], rows[1]
        assert root["OPERATOR"] == "select"
        assert root["STRATEGY"].startswith("streamed")
        assert root["DETAIL"] == "filtered"
        assert scan["OPERATOR"] == "table scan"
        assert scan["TARGET"] == "People"
        assert scan["EST_ROWS"] == 5
        assert scan["PARENT_ID"] == root["OP_ID"]

    def test_group_by_is_materialized(self, loaded):
        rows = _rows(loaded,
                     "EXPLAIN SELECT risk, COUNT(*) FROM People GROUP BY "
                     "risk")
        assert rows[0]["STRATEGY"].startswith("materialized")

    def test_top_clamps_the_estimate(self, loaded):
        rows = _rows(loaded, "EXPLAIN SELECT TOP 2 * FROM People")
        assert rows[0]["EST_ROWS"] == 2

    def test_hash_join_vs_nested_loop(self, loaded):
        loaded.execute("CREATE TABLE Cities (id INT, city TEXT)")
        hashed = _rows(loaded,
                       "EXPLAIN SELECT * FROM People AS p JOIN Cities AS c "
                       "ON p.id = c.id")
        nested = _rows(loaded,
                       "EXPLAIN SELECT * FROM People AS p JOIN Cities AS c "
                       "ON p.id > c.id")
        join_of = lambda rows: [r for r in rows
                                if r["OPERATOR"] == "join"][0]
        assert "hash" in join_of(hashed)["STRATEGY"]
        assert "nested loop" in join_of(nested)["STRATEGY"]

    def test_train_plan_names_algorithm_and_cache(self, loaded):
        rows = _rows(loaded, f"EXPLAIN {TRAIN}")
        root = rows[0]
        assert root["OPERATOR"] == "train"
        assert root["TARGET"] == "Risk"
        assert root["CACHE"] in ("miss expected", "hit expected", "disabled")
        operators = [r["OPERATOR"] for r in rows]
        assert "fit" in operators
        assert "bind cases" in operators
        assert "table scan" in operators

    def test_prediction_plan_shows_flow_and_cache(self, loaded):
        loaded.execute(TRAIN)
        rows = _rows(loaded, f"EXPLAIN {PREDICT}")
        root = rows[0]
        assert root["OPERATOR"] == "prediction join"
        assert root["TARGET"] == "Risk"
        assert "streamed" in root["STRATEGY"] or \
            "materialized" in root["STRATEGY"]
        assert "expected" in root["CACHE"] or root["CACHE"] == "disabled"

    def test_ddl_plans_are_catalog_only(self, loaded):
        rows = _rows(loaded, "EXPLAIN CREATE TABLE Extra (x INT)")
        assert rows[0]["STRATEGY"] == "catalog only"
        rows = _rows(loaded, "EXPLAIN DROP MINING MODEL Risk")
        assert rows[0]["OPERATOR"] == "drop mining model"

    def test_unsupported_statement_is_an_error(self, loaded):
        with pytest.raises(ParseError):
            loaded.execute("EXPLAIN TRACE ON")


class TestPlainExplainPurity:
    """Plain EXPLAIN must execute no data-path work at all."""

    def test_explain_train_leaves_the_model_untrained(self, loaded):
        loaded.execute(f"EXPLAIN {TRAIN}")
        assert not loaded.provider.model("Risk").is_trained

    def test_explain_insert_leaves_the_table_unchanged(self, loaded):
        loaded.execute("EXPLAIN INSERT INTO People VALUES (9, 9, 'x')")
        assert len(loaded.database.tables["PEOPLE"]) == 5

    def test_explain_create_does_not_create(self, loaded):
        loaded.execute("EXPLAIN CREATE TABLE Ghost (x INT)")
        assert "GHOST" not in loaded.database.tables

    def test_explain_opens_no_engine_or_train_spans(self, loaded):
        loaded.execute("TRACE ON")
        loaded.execute(f"EXPLAIN {TRAIN}")
        record = loaded.provider.tracer.last()
        assert record.kind == "EXPLAIN"
        # A plan node that ran would be a span named by its operator.
        names = {row[3] for row in record.trace_rows()}
        assert names == {"statement", "parse"}

    def test_explain_delete_keeps_rows(self, loaded):
        loaded.execute("EXPLAIN DELETE FROM People")
        assert len(loaded.database.tables["PEOPLE"]) == 5


class TestExplainAnalyze:
    def test_actuals_match_execution(self, loaded):
        rows = _rows(loaded,
                     "EXPLAIN ANALYZE SELECT * FROM People WHERE age > 30")
        root = rows[0]
        assert root["ACTUAL_ROWS"] == 4
        scan = [r for r in rows if r["OPERATOR"] == "table scan"][0]
        assert scan["ACTUAL_ROWS"] == 5  # rows scanned, pre-filter
        assert root["WALL_MS"] is not None and root["WALL_MS"] >= 0

    def test_analyze_train_trains_and_reports_observations(self, loaded):
        rows = _rows(loaded, f"EXPLAIN ANALYZE {TRAIN}")
        assert loaded.provider.model("Risk").is_trained
        fit = [r for r in rows if r["OPERATOR"] == "fit"][0]
        assert fit["ACTUAL_ROWS"] is not None and fit["ACTUAL_ROWS"] > 0
        bind = [r for r in rows if r["OPERATOR"] == "bind cases"][0]
        assert bind["ACTUAL_ROWS"] == 5

    def test_analyze_reports_cache_transition(self, loaded):
        loaded.execute(TRAIN)
        first = _rows(loaded, f"EXPLAIN ANALYZE {PREDICT}")[0]
        second = _rows(loaded, f"EXPLAIN ANALYZE {PREDICT}")[0]
        assert "actual miss" in first["CACHE"]
        assert "actual hit" in second["CACHE"]

    def test_analyze_reports_batches(self, loaded):
        rows = _rows(loaded, "EXPLAIN ANALYZE SELECT * FROM People")
        scan = [r for r in rows if r["OPERATOR"] == "table scan"][0]
        assert rows[0]["ACTUAL_BATCHES"] >= 1 or \
            scan["ACTUAL_BATCHES"] is None

    def test_plain_explain_carries_no_actuals(self, loaded):
        rows = _rows(loaded, "EXPLAIN SELECT * FROM People")
        assert all(r["ACTUAL_ROWS"] is None and r["WALL_MS"] is None
                   for r in rows)

    def test_analyze_restores_tracer_state(self, loaded):
        assert not loaded.provider.tracer.enabled
        loaded.execute("EXPLAIN ANALYZE SELECT * FROM People")
        assert not loaded.provider.tracer.enabled
        loaded.execute("TRACE ON")
        loaded.execute("EXPLAIN ANALYZE SELECT * FROM People")
        assert loaded.provider.tracer.enabled

    def test_analyze_kind_lands_in_the_query_log(self, loaded):
        loaded.execute("EXPLAIN ANALYZE SELECT * FROM People")
        kinds = [row[2] for row in loaded.execute(
            "SELECT * FROM $SYSTEM.DM_QUERY_LOG").rows]
        assert "EXPLAIN_ANALYZE" in kinds


class TestParserAndFormatter:
    def test_bare_explain_is_rejected(self):
        with pytest.raises(ParseError, match="expected a statement"):
            parse("EXPLAIN")

    def test_nested_explain_is_rejected(self):
        with pytest.raises(ParseError, match="cannot be nested"):
            parse("EXPLAIN EXPLAIN SELECT 1 AS x")

    def test_explain_trace_is_rejected(self):
        with pytest.raises(ParseError, match="cannot wrap the TRACE verb"):
            parse("EXPLAIN TRACE LAST")

    def test_formatter_round_trip(self):
        for text in ("EXPLAIN SELECT * FROM T",
                     "EXPLAIN ANALYZE SELECT * FROM T"):
            statement = parse(text)
            formatted = format_statement(statement)
            assert format_statement(parse(formatted)) == formatted
            assert formatted.upper().startswith("EXPLAIN")

    def test_kind_classification(self, conn):
        from repro.core.provider import _statement_kind
        assert _statement_kind(
            parse("EXPLAIN SELECT 1 AS x"), conn.provider) == "EXPLAIN"
        assert _statement_kind(
            parse("EXPLAIN ANALYZE SELECT 1 AS x"),
            conn.provider) == "EXPLAIN_ANALYZE"


class TestExplainErrors:
    def test_unknown_table_is_the_same_bind_error(self, conn):
        with pytest.raises(Error, match="nowhere"):
            conn.execute("EXPLAIN SELECT * FROM nowhere")

    def test_unknown_model_delete(self, conn):
        with pytest.raises(Error):
            conn.execute("EXPLAIN DELETE FROM MINING MODEL nope")
