"""Expression failures over the wire: typed, and survivable.

A Python-level ``TypeError`` inside an expression used to escape every
``except Error`` boundary: the session thread died, the client saw
``server closed the connection mid-conversation`` and the server collected
a thread error.  Operator/function failures are :class:`TypeError_` now, so
they arrive as error frames and the *same* session keeps answering.  Bind
errors are raised when an operator opens — before the first row, even on an
empty table or behind a short-circuit — embedded and over the wire alike.
"""

import pytest

import repro
from repro.client import connect as net_connect
from repro.errors import BindError, TypeError_
from repro.server import DmxServer

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


@pytest.fixture
def served():
    conn = repro.connect()
    conn.execute("CREATE TABLE T (a INT, b TEXT)")
    conn.execute("INSERT INTO T VALUES (1, 'x'), (2, 'y')")
    conn.execute("CREATE TABLE Empty (a INT)")
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
