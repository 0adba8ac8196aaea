"""Expression failures over the wire: typed, and survivable.

A Python-level ``TypeError`` inside an expression used to escape every
``except Error`` boundary: the session thread died, the client saw
``server closed the connection mid-conversation`` and the server collected
a thread error.  Operator/function failures are :class:`TypeError_` now, so
they arrive as error frames and the *same* session keeps answering.  Bind
errors are raised when an operator opens — before the first row, even on an
empty table or behind a short-circuit — embedded and over the wire alike;
so are those of a PREDICTION JOIN's WHERE and select list (unknown model
columns, attributes and functions), bound when the join opens its source.
A reply over the frame cap is refused before its first byte is written, so
it too arrives as an error frame and the session keeps answering.
"""

import re

import pytest

import repro
from repro.client import connect as net_connect
from repro.errors import BindError, PredictionError, ProtocolError, TypeError_
from repro.server import DmxServer, protocol

TYPE_FAILURES = [
    ("SELECT -b FROM T", r"unary '-' cannot be applied to \(TEXT\)"),
    ("SELECT b + 1 FROM T",
     r"operator '\+' cannot be applied to \(TEXT, LONG\)"),
    ("SELECT LEN(b, 2) FROM T",
     r"function LEN cannot be applied to \(TEXT, LONG\)"),
    ("SELECT a FROM T WHERE b / 2 > 1",
     r"operator '/' cannot be applied to \(TEXT, LONG\)"),
]

# Each of these returned [] before expressions were bound at open.
BIND_FAILURES = [
    ("SELECT bogus FROM Empty", "cannot resolve column 'bogus'"),
    ("SELECT a FROM T WHERE a = 99 AND bogus = 1",
     "cannot resolve column 'bogus'"),
    ("SELECT NOSUCH(a) FROM Empty", "unknown function 'NOSUCH'"),
    ("SELECT a FROM Empty ORDER BY bogus", "cannot resolve column 'bogus'"),
]

_NO_CASES = "FROM M NATURAL PREDICTION JOIN (SELECT a, b FROM NoCases) AS t"
_CASES = "FROM M NATURAL PREDICTION JOIN (SELECT a, b FROM Cases) AS t"

# Each of these returned an empty rowset while errors were only met per
# case: over a source without rows, and behind a WHERE no row passes.
PREDICTION_BIND_FAILURES = [
    (f"SELECT [M].[NoSuch] {_NO_CASES}", BindError,
     "model 'M' has no column 'NoSuch'"),
    (f"SELECT NoSuchFn([M].[c]) {_NO_CASES}", BindError,
     "unknown function 'NoSuchFn'"),
    (f"SELECT t.a {_NO_CASES} ORDER BY [M].[NoSuch]", BindError,
     "model 'M' has no column 'NoSuch'"),
    (f"SELECT [M].[NoSuch] {_CASES} WHERE t.a = 99", BindError,
     "model 'M' has no column 'NoSuch'"),
    (f"SELECT t.a {_CASES} WHERE t.a = 99 AND NoSuchFn(t.a) = 1", BindError,
     "unknown function 'NoSuchFn'"),
    (f"SELECT CASE WHEN t.a = 99 THEN PredictProbability([M].[bogus]) "
     f"END {_CASES}", BindError, "model 'M' has no attribute 'bogus'"),
    (f"SELECT PredictProbability() {_NO_CASES}", PredictionError,
     "prediction functions take a model column reference, e.g. "
     "PredictProbability([Age])"),
    (f"SELECT RangeMin([M].[c]) {_NO_CASES}", PredictionError,
     "RangeMin/Mid/Max require a DISCRETIZED column; 'c' is not "
     "discretized"),
]


@pytest.fixture
def served():
    conn = repro.connect()
    conn.execute("CREATE TABLE T (a INT, b TEXT)")
    conn.execute("INSERT INTO T VALUES (1, 'x'), (2, 'y')")
    conn.execute("CREATE TABLE Empty (a INT)")
    conn.execute("CREATE TABLE Cases (a INT, b TEXT, c TEXT)")
    conn.execute("INSERT INTO Cases VALUES (1, 'x', 'p'), (2, 'y', 'q'), "
                 "(3, 'x', 'p')")
    conn.execute("CREATE TABLE NoCases (a INT, b TEXT)")
    conn.execute("CREATE MINING MODEL M (a LONG KEY, b TEXT DISCRETE, "
                 "c TEXT DISCRETE PREDICT) USING Repro_Naive_Bayes")
    conn.execute("INSERT INTO M (a, b, c) SELECT a, b, c FROM Cases")
    server = DmxServer(conn.provider, port=0)
    yield conn, server
    server.close()
    conn.close()
    assert server.thread_errors == []


@pytest.mark.parametrize("statement, message", TYPE_FAILURES)
def test_type_failure_is_typed_and_the_session_survives(
        served, statement, message):
    conn, server = served
    with pytest.raises(TypeError_, match=message):
        conn.execute(statement)
    with net_connect("127.0.0.1", server.port) as client:
        with pytest.raises(TypeError_, match=message):
            client.execute(statement)
        with pytest.raises(TypeError_, match=message):
            list(client.execute_stream(statement))
        assert client.execute("SELECT 1").rows == [(1,)]
    assert server.thread_errors == []


@pytest.mark.parametrize("statement, message", BIND_FAILURES)
def test_bind_failure_surfaces_before_the_first_row(
        served, statement, message):
    conn, server = served
    suffix = f"{message} [in statement: {statement}]"
    with pytest.raises(BindError) as embedded:
        conn.execute(statement)
    assert str(embedded.value) == suffix
    with net_connect("127.0.0.1", server.port) as client:
        with pytest.raises(BindError) as wired:
            client.execute(statement)
        assert str(wired.value) == suffix
        with pytest.raises(BindError):
            client.execute_stream(statement)
        assert client.execute("SELECT 1").rows == [(1,)]


@pytest.mark.parametrize("statement, error, message",
                         PREDICTION_BIND_FAILURES)
def test_prediction_bind_failure_does_not_depend_on_the_data(
        served, statement, error, message):
    conn, server = served
    with pytest.raises(error) as embedded:
        conn.execute(statement)
    # Bind errors quote their statement (elided when long).
    assert str(embedded.value).startswith(
        f"{message} [in statement: {statement[:100]}"
        if error is BindError else message)
    with pytest.raises(error, match=re.escape(message)):
        conn.execute_stream(statement)
    # EXPLAIN ANALYZE runs the tree; plain EXPLAIN only plans it.
    with pytest.raises(error, match=re.escape(message)):
        conn.execute(f"EXPLAIN ANALYZE {statement}")
    assert conn.execute(f"EXPLAIN {statement}").rows
    with net_connect("127.0.0.1", server.port) as client:
        with pytest.raises(error) as wired:
            client.execute(statement)
        assert str(wired.value) == str(embedded.value)
        with pytest.raises(error):
            client.execute_stream(statement)
        assert client.execute(f"SELECT t.a {_CASES}").rows == \
            [(1,), (2,), (3,)]
    assert server.thread_errors == []


def test_an_oversize_reply_is_a_statement_error(served, monkeypatch):
    conn, server = served
    conn.execute("INSERT INTO Empty VALUES " + ", ".join(
        f"({i})" for i in range(1000)))
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 2_000)
    with net_connect("127.0.0.1", server.port) as client:
        with pytest.raises(ProtocolError, match="2000-byte limit"):
            client.execute("SELECT a FROM Empty")
        assert client.execute("SELECT COUNT(*) AS n FROM Empty").rows == \
            [(1000,)]
    assert server.thread_errors == []


def test_cluster_id_out_of_range_is_a_typed_error():
    """``ClusterDistance(3)`` on a two-cluster k-means model indexed past
    the distance list: a raw IndexError."""
    conn = repro.connect()
    conn.execute("CREATE TABLE P (a INT, x DOUBLE)")
    conn.execute("INSERT INTO P VALUES (1, 1.0), (2, 1.5), (3, 9.0), "
                 "(4, 9.5)")
    conn.execute("CREATE MINING MODEL K (a LONG KEY, x DOUBLE CONTINUOUS) "
                 "USING Repro_KMeans(CLUSTER_COUNT = 2)")
    conn.execute("INSERT INTO K (a, x) SELECT a, x FROM P")
    scored = "FROM K NATURAL PREDICTION JOIN (SELECT a, x FROM P) AS t"
    assert len(conn.execute(f"SELECT ClusterDistance(2) {scored}").rows) == 4
    for call in ("ClusterDistance(3)", "ClusterDistance(0)",
                 "ClusterProbability(3)"):
        with pytest.raises(PredictionError,
                           match="cluster id . out of range 1..2"):
            conn.execute(f"SELECT {call} {scored}")
    conn.close()
