"""End-to-end observability: telemetry rowsets, the TRACE verb, the CLI."""

import os
import subprocess
import sys

import pytest

import repro
from repro.errors import BindError, CatalogError, ParseError

SETUP = [
    "CREATE TABLE People (id INT, age INT, risk TEXT)",
    "INSERT INTO People VALUES (1, 25, 'low'), (2, 62, 'high'), "
    "(3, 41, 'low'), (4, 70, 'high'), (5, 33, 'low')",
    "CREATE MINING MODEL Risk (id LONG KEY, age LONG CONTINUOUS, "
    "risk TEXT DISCRETE PREDICT) USING Microsoft_Decision_Trees",
    "INSERT INTO Risk (id, age, risk) SELECT id, age, risk FROM People",
]

PREDICT = ("SELECT t.id, Risk.risk FROM Risk NATURAL PREDICTION JOIN "
           "(SELECT id, age FROM People) AS t")


@pytest.fixture
def traced_conn(conn):
    conn.execute("TRACE ON")
    for statement in SETUP:
        conn.execute(statement)
    conn.execute(PREDICT)
    return conn


def _log_rows(conn):
    """The finished rows of the log: the one running row is the statement
    reading it."""
    rowset = conn.execute(
        "SELECT * FROM $SYSTEM.DM_QUERY_LOG WHERE STATUS <> 'running'")
    return [dict(zip((c.name for c in rowset.columns), row))
            for row in rowset.rows]


class TestQueryLog:
    def test_round_trip_populates_the_log(self, traced_conn):
        rows = _log_rows(traced_conn)
        kinds = [row["KIND"] for row in rows]
        assert kinds == ["CREATE_TABLE", "INSERT", "CREATE_MODEL",
                         "TRAIN", "PREDICT"]
        assert all(row["STATUS"] == "ok" for row in rows)
        assert all(row["DURATION_MS"] >= 0 for row in rows)

    def test_training_row_counts_rows_and_cases(self, traced_conn):
        train = [r for r in _log_rows(traced_conn)
                 if r["KIND"] == "TRAIN"][0]
        assert train["ROWS_SCANNED"] == 5
        assert train["CASES"] == 5
        assert train["SPAN_COUNT"] > 1

    def test_prediction_row_counts_cases(self, traced_conn):
        predict = [r for r in _log_rows(traced_conn)
                   if r["KIND"] == "PREDICT"][0]
        assert predict["CASES"] == 5
        # The rows the plan's root returned, not its source's as well.
        assert predict["ROWS_OUT"] == 5
        assert predict["ROWS_SCANNED"] == 5

    def test_counters_populate_without_trace_on(self, conn):
        for statement in SETUP:
            conn.execute(statement)
        train = [r for r in _log_rows(conn) if r["KIND"] == "TRAIN"][0]
        # Span capture is off (SPAN_COUNT 1), totals still roll up.
        assert train["SPAN_COUNT"] == 1
        assert train["ROWS_SCANNED"] == 5
        assert train["CASES"] == 5

    def test_log_is_queryable_with_sql(self, traced_conn):
        rowset = traced_conn.execute(
            "SELECT KIND, COUNT(*) AS n FROM $SYSTEM.DM_QUERY_LOG "
            "WHERE STATUS = 'ok' GROUP BY KIND ORDER BY KIND")
        assert len(rowset) >= 5


class TestErrorRows:
    def test_bind_error_logged_with_statement_text(self, conn):
        bad = "SELECT nothing FROM nowhere"
        with pytest.raises(BindError) as excinfo:
            conn.execute(bad)
        assert bad in str(excinfo.value)
        row = _log_rows(conn)[-1]
        assert row["STATUS"] == "error"
        assert "nowhere" in row["ERROR"]

    def test_parse_error_logged_as_unknown_kind(self, conn):
        with pytest.raises(ParseError) as excinfo:
            conn.execute("SELEC oops")
        assert "[in statement: SELEC oops]" in str(excinfo.value)
        row = _log_rows(conn)[-1]
        assert row["STATUS"] == "error"
        assert row["KIND"] == "UNKNOWN"

    def test_wrapping_preserves_error_attributes(self, conn):
        with pytest.raises(ParseError) as excinfo:
            conn.execute("SELEC oops")
        assert excinfo.value.line is not None

    def test_non_bind_errors_are_not_rewrapped(self, conn):
        with pytest.raises(CatalogError) as excinfo:
            conn.execute("DROP MINING MODEL nope")
        assert "[in statement:" not in str(excinfo.value)
        assert _log_rows(conn)[-1]["STATUS"] == "error"


class TestTraceEvents:
    def test_every_layer_reports_nonzero_counters(self, traced_conn):
        rowset = traced_conn.execute(
            "SELECT * FROM $SYSTEM.DM_TRACE_EVENTS")
        rows = [dict(zip((c.name for c in rowset.columns), row))
                for row in rowset.rows]
        by_span = {}
        for row in rows:
            by_span.setdefault(row["SPAN"], []).extend(
                (row["COUNTERS"], row["ATTRIBUTES"]))

        def counters_of(span):
            return " ".join(c for c in by_span.get(span, []) if c)

        # Counters are the statement's, on its root row.
        assert "tokens=" in counters_of("statement")
        assert "observations=" in counters_of("statement")
        assert "template=" in counters_of("parse")
        # A plan node's span is named by its operator and carries its rows.
        assert "rows=5" in counters_of("table scan")
        assert "rows=5" in counters_of("bind cases")
        assert "rows=5" in counters_of("fit")
        assert "service=" in counters_of("algorithm.train")
        assert "rows=5" in counters_of("prediction join")

    def test_span_ids_encode_nesting(self, traced_conn):
        rowset = traced_conn.execute(
            "SELECT SPAN_ID, PARENT_SPAN_ID, DEPTH "
            "FROM $SYSTEM.DM_TRACE_EVENTS WHERE DEPTH > 0")
        for span_id, parent_id, depth in rowset.rows:
            assert span_id.startswith(parent_id + ".")
            assert span_id.count(".") == depth

    def test_no_child_spans_without_trace_on(self, conn):
        for statement in SETUP:
            conn.execute(statement)
        rowset = conn.execute(
            "SELECT * FROM $SYSTEM.DM_TRACE_EVENTS WHERE DEPTH > 0")
        assert len(rowset) == 0


class TestProviderMetrics:
    def test_statement_and_training_metrics(self, traced_conn):
        rowset = traced_conn.execute(
            "SELECT * FROM $SYSTEM.DM_PROVIDER_METRICS")
        rows = {row[0]: dict(zip((c.name for c in rowset.columns), row))
                for row in rowset.rows}
        assert rows["statements.total"]["VALUE"] >= 5
        assert rows["statements.train.count"]["VALUE"] == 1
        assert rows["training.cases_total"]["VALUE"] == 5
        assert rows["model.Risk.case_count"]["VALUE"] == 5
        assert rows["activity.rows_scanned"]["VALUE"] > 0

    def test_latency_histogram_has_percentiles(self, traced_conn):
        rowset = traced_conn.execute(
            "SELECT * FROM $SYSTEM.DM_PROVIDER_METRICS "
            "WHERE METRIC = 'statements.latency_ms'")
        row = dict(zip((c.name for c in rowset.columns), rowset.rows[0]))
        assert row["KIND"] == "histogram"
        assert row["COUNT"] >= 5
        assert row["P50"] is not None
        assert row["P50"] <= row["P95"] <= row["P99"]

    def test_errors_counter(self, conn):
        with pytest.raises(BindError):
            conn.execute("SELECT x FROM nowhere")
        assert conn.provider.metrics.counter("statements.errors").value == 1


class TestTraceVerb:
    def test_on_off_status(self, conn):
        assert "ON" in conn.execute("TRACE ON")
        assert conn.provider.tracer.enabled
        assert "OFF" in conn.execute("TRACE OFF")
        assert not conn.provider.tracer.enabled
        assert "tracing is OFF" in conn.execute("TRACE STATUS")
        assert "tracing is OFF" in conn.execute("TRACE")

    def test_trace_statements_stay_out_of_the_log(self, conn):
        conn.execute("TRACE ON")
        conn.execute("TRACE STATUS")
        assert len(conn.provider.tracer) == 0

    def test_last_renders_a_span_tree(self, traced_conn):
        report = traced_conn.execute("TRACE LAST")
        assert "PREDICT [ok]" in report
        assert "parse" in report
        assert "prediction join" in report
        assert "bind cases" in report
        assert "rows=5" in report

    def test_last_with_empty_ring(self, conn):
        assert "no traced statement in the ring" in \
            conn.execute("TRACE LAST")


class TestRingConfiguration:
    def test_query_log_respects_ring_size(self, conn):
        conn.provider.tracer.resize_ring(3)
        for index in range(6):
            conn.execute(f"SELECT {index} AS v")
        rows = _log_rows(conn)
        assert len(rows) == 3
        assert "SELECT 3" in rows[0]["STATEMENT"]
        assert "SELECT 5" in rows[-1]["STATEMENT"]


class TestUnknownRowsetHint:
    def test_available_rowsets_are_sorted(self, conn):
        with pytest.raises(BindError) as excinfo:
            conn.execute("SELECT * FROM $SYSTEM.BOGUS")
        message = str(excinfo.value)
        listing = message.split("available: ")[1].split(")")[0]
        names = [n.strip() for n in listing.split(",")]
        assert names == sorted(names)
        assert "DM_QUERY_LOG" in names

    def test_close_miss_gets_a_did_you_mean(self, conn):
        with pytest.raises(BindError) as excinfo:
            conn.execute("SELECT * FROM $SYSTEM.MINING_MODEL")
        assert "did you mean MINING_MODELS?" in str(excinfo.value)

    def test_far_miss_gets_no_hint(self, conn):
        with pytest.raises(BindError) as excinfo:
            conn.execute("SELECT * FROM $SYSTEM.ZZZZZZ")
        assert "did you mean" not in str(excinfo.value)


class TestCliTraceLast:
    """Both empty-ring paths print the actionable no-trace message."""

    def _run(self, connection, command):
        import io
        from repro.cli import run_command
        out = io.StringIO()
        run_command(connection, command, out=out)
        return out.getvalue()

    def test_fresh_session_prints_the_hint(self, conn):
        output = self._run(conn, "TRACE LAST")
        assert "no traced statement in the ring" in output
        assert "TRACE ON" in output

    def test_cleared_ring_prints_the_hint(self, conn):
        conn.execute("TRACE ON")
        conn.execute("SELECT 1 AS v")
        assert "no traced statement" not in self._run(conn, "TRACE LAST")
        conn.provider.tracer.clear()
        output = self._run(conn, "TRACE LAST")
        assert "no traced statement in the ring" in output


class TestCliPlanRendering:
    def test_explain_renders_as_a_tree_not_a_table(self, conn):
        import io
        from repro.cli import run_command
        conn.execute("CREATE TABLE T (x INT)")
        conn.execute("INSERT INTO T VALUES (1), (2)")
        out = io.StringIO()
        run_command(conn, "EXPLAIN SELECT * FROM T", out=out)
        output = out.getvalue()
        assert "select" in output
        assert "table scan [T]" in output
        assert "est=2" in output
        assert "OP_ID" not in output  # tree rendering, not the raw rowset
        out = io.StringIO()
        run_command(conn, "EXPLAIN ANALYZE SELECT * FROM T", out=out)
        assert "actual=2" in out.getvalue()


class TestCliTrace:
    def test_module_invocation_with_trace_flag(self, tmp_path):
        script = tmp_path / "smoke.dmx"
        script.write_text(
            "CREATE TABLE t (id INT, v TEXT);\n"
            "INSERT INTO t VALUES (1, 'a'), (2, 'b');\n"
            "SELECT * FROM t;\n"
            "TRACE STATUS;\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "repro", "--trace",
             "--script", str(script)],
            capture_output=True, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(
                os.path.dirname(os.path.abspath(__file__)))))
        assert result.returncode == 0, result.stderr
        assert "table scan" in result.stdout
        assert "rows=2" in result.stdout
        assert "tracing is ON" in result.stdout
