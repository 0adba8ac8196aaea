"""Differential harness: streaming execution vs effectively-materialized.

Every statement shape below runs twice against providers holding identical
data — once with a tiny batch size (7 rows, so every operator crosses many
batch boundaries) and once with a batch size far larger than any table
(one batch: the old materialize-everything behaviour).  Results must match
exactly: same column names and types, same rows, same order.

This pins the tentpole invariant of the streaming refactor: batching is an
execution detail, never an observable one.
"""

import json
import urllib.request
from collections import Counter

import pytest

import repro
from repro.sqlstore.rowset import Rowset

TINY_BATCH = 7
HUGE_BATCH = 10 ** 9

SETUP = [
    "CREATE TABLE Customers (cid INT, name TEXT, age INT, city TEXT, "
    "spend DOUBLE)",
    "CREATE TABLE Orders (oid INT, cid INT, product TEXT, qty INT, "
    "price DOUBLE)",
    "CREATE TABLE Stores (city TEXT, region TEXT)",
    "INSERT INTO Stores VALUES ('Seattle', 'West'), ('Austin', 'South'), "
    "('Boston', 'East'), ('Omaha', NULL)",
    "CREATE VIEW BigSpenders AS SELECT cid, name, spend FROM Customers "
    "WHERE spend > 120",
]

CITIES = ["Seattle", "Austin", "Boston", "Omaha", None]
PRODUCTS = ["TV", "VCR", "Ham", "Beer", "Milk", "Pepsi"]


def _load(conn):
    for statement in SETUP:
        conn.execute(statement)
    customers = []
    for cid in range(1, 61):
        name = f"'c{cid:03d}'"
        age = 18 + (cid * 7) % 60
        city = CITIES[cid % len(CITIES)]
        city_sql = "NULL" if city is None else f"'{city}'"
        spend = round((cid * 37) % 250 + cid / 8, 2)
        customers.append(f"({cid}, {name}, {age}, {city_sql}, {spend})")
    conn.execute("INSERT INTO Customers VALUES " + ", ".join(customers))
    orders = []
    for oid in range(1, 181):
        cid = (oid * 13) % 75 + 1  # some cids have no customer row
        product = PRODUCTS[oid % len(PRODUCTS)]
        qty = "NULL" if oid % 17 == 0 else str(oid % 9 + 1)
        price = round((oid * 3.5) % 80 + 0.99, 2)
        orders.append(f"({oid}, {cid}, '{product}', {qty}, {price})")
    conn.execute("INSERT INTO Orders VALUES " + ", ".join(orders))


def _make(batch_size):
    conn = repro.connect(batch_size=batch_size, caseset_cache_capacity=0)
    _load(conn)
    return conn


@pytest.fixture(scope="module")
def streaming():
    conn = _make(TINY_BATCH)
    yield conn
    conn.close()


@pytest.fixture(scope="module")
def materialized():
    conn = _make(HUGE_BATCH)
    yield conn
    conn.close()


STATEMENTS = [
    # -- scans, projection, WHERE -----------------------------------------
    "SELECT * FROM Customers",
    "SELECT name, age FROM Customers WHERE age > 40",
    "SELECT cid, spend * 2 AS doubled FROM Customers WHERE spend >= 100",
    "SELECT * FROM Customers WHERE city IS NULL",
    "SELECT * FROM Customers WHERE city = 'Austin' AND age < 50",
    "SELECT name FROM Customers WHERE name LIKE 'c05%'",
    "SELECT cid, CASE WHEN age < 30 THEN 'young' WHEN age < 55 THEN 'mid' "
    "ELSE 'senior' END AS bracket FROM Customers",
    # -- TOP (early stop) and DISTINCT ------------------------------------
    "SELECT TOP 5 * FROM Customers",
    "SELECT TOP 13 cid, name FROM Customers WHERE age > 25",
    "SELECT TOP 200 * FROM Orders",
    "SELECT DISTINCT city FROM Customers",
    "SELECT DISTINCT product, qty FROM Orders",
    "SELECT DISTINCT TOP 3 product FROM Orders",
    # -- equi joins (hash path) -------------------------------------------
    "SELECT c.name, o.product, o.qty FROM Customers AS c "
    "JOIN Orders AS o ON c.cid = o.cid",
    "SELECT c.name, o.product FROM Customers AS c "
    "LEFT JOIN Orders AS o ON c.cid = o.cid",
    "SELECT c.name, o.product, s.region FROM Customers AS c "
    "JOIN Orders AS o ON c.cid = o.cid "
    "JOIN Stores AS s ON c.city = s.city",
    "SELECT c.name, s.region FROM Customers AS c "
    "LEFT JOIN Stores AS s ON c.city = s.city WHERE c.age > 35",
    # -- residual / non-equi joins (nested-loop path) ---------------------
    "SELECT c.name, o.oid FROM Customers AS c "
    "JOIN Orders AS o ON c.cid = o.cid AND o.price > c.spend",
    "SELECT c.cid, o.oid FROM Customers AS c "
    "JOIN Orders AS o ON c.age < o.price",
    "SELECT TOP 40 c.name, s.region FROM Customers AS c CROSS JOIN Stores "
    "AS s",
    "SELECT c.name, s.city FROM Customers AS c, Stores AS s "
    "WHERE c.city = s.city AND s.region = 'West'",
    # -- GROUP BY / HAVING / aggregates -----------------------------------
    "SELECT city, COUNT(*) AS n FROM Customers GROUP BY city",
    "SELECT product, SUM(qty) AS total, AVG(price) AS avg_price "
    "FROM Orders GROUP BY product",
    "SELECT city, COUNT(*) AS n, MAX(spend) AS top_spend FROM Customers "
    "GROUP BY city HAVING COUNT(*) > 10",
    "SELECT product, COUNT(*) AS n FROM Orders WHERE qty IS NOT NULL "
    "GROUP BY product HAVING SUM(price) > 100 ORDER BY product",
    "SELECT COUNT(*) AS all_rows, MIN(age) AS youngest FROM Customers",
    # -- ORDER BY, including NULL and mixed-direction keys ----------------
    "SELECT name, age FROM Customers ORDER BY age DESC, name",
    "SELECT cid, city FROM Customers ORDER BY city, cid DESC",
    "SELECT product, qty FROM Orders ORDER BY qty, product, oid",
    "SELECT TOP 9 name, spend FROM Customers ORDER BY spend DESC",
    "SELECT name, CASE WHEN city IS NULL THEN age ELSE city END AS k "
    "FROM Customers ORDER BY k, cid",
    # -- UNION / UNION ALL -------------------------------------------------
    "SELECT name FROM Customers WHERE age < 25 UNION ALL "
    "SELECT name FROM Customers WHERE age > 70",
    "SELECT city FROM Customers UNION SELECT city FROM Stores",
    "SELECT cid FROM Customers WHERE spend > 200 UNION ALL "
    "SELECT cid FROM Orders WHERE price > 70 UNION ALL "
    "SELECT cid FROM Customers WHERE age = 30",
    # -- subqueries and views ----------------------------------------------
    "SELECT t.name FROM (SELECT name, age FROM Customers "
    "WHERE spend > 50) AS t WHERE t.age < 60",
    "SELECT x.product, x.n FROM (SELECT product, COUNT(*) AS n FROM Orders "
    "GROUP BY product) AS x WHERE x.n > 25",
    "SELECT u.name FROM (SELECT t.name, t.age FROM (SELECT * FROM "
    "Customers WHERE city = 'Boston') AS t WHERE t.age > 20) AS u",
    "SELECT * FROM BigSpenders WHERE spend < 200",
    "SELECT b.name, o.product FROM BigSpenders AS b "
    "JOIN Orders AS o ON b.cid = o.cid",
    "SELECT name FROM Customers WHERE cid IN "
    "(SELECT cid FROM Orders WHERE product = 'Beer')",
]

assert len(STATEMENTS) >= 30


def _canonical(rowset):
    """Columns and rows of ``rowset``, whose rows must be tuples: a
    materialized rowset adopts the rows its stream's batches held."""
    assert all(isinstance(row, tuple) for row in rowset.rows)
    columns = [(c.name, c.type.name if c.type is not None else None)
               for c in rowset.columns]
    rows = [tuple(_canonical(v) if isinstance(v, Rowset) else v
                  for v in row)
            for row in rowset.rows]
    return columns, rows


@pytest.mark.parametrize("statement", STATEMENTS)
def test_streaming_matches_materialized(streaming, materialized, statement):
    left = _canonical(streaming.execute(statement))
    right = _canonical(materialized.execute(statement))
    assert left == right


@pytest.mark.parametrize("statement", STATEMENTS)
def test_stream_api_matches_execute(streaming, statement):
    """conn.execute_stream drained batch-wise equals conn.execute."""
    expected = streaming.execute(statement)
    stream = streaming.execute_stream(statement)
    rows = [row for batch in stream.batches() for row in batch]
    assert all(isinstance(row, tuple) for row in rows)
    assert [c.name for c in stream.columns] == \
        [c.name for c in expected.columns]
    assert rows == list(expected.rows)


def test_every_view_of_a_statement_agrees(tmp_path):
    """The whole grid, blocking then streamed, on one provider, then a
    stream held open after its first batch: ``DM_QUERY_LOG``, the sink
    line and ``/queries`` give one row per statement, with the same values, whichever way it ran and
    whether it is still running."""
    conn = repro.connect(batch_size=TINY_BATCH, caseset_cache_capacity=0,
                         telemetry_path=str(tmp_path / "slow.jsonl"))
    server = conn.provider.serve_metrics(port=0)

    def by_id(rows):
        rows = list(rows)
        keyed = {row["statement_id"]: row for row in rows}
        assert len(keyed) == len(rows)  # every statement once
        return keyed

    def log():
        rowset = conn.execute("SELECT * FROM $SYSTEM.DM_QUERY_LOG")
        names = [column.name.lower() for column in rowset.columns]
        return by_id(dict(zip(names, row)) for row in rowset.rows)

    def queries():
        with urllib.request.urlopen(server.url + "/queries?limit=1000",
                                    timeout=5) as response:
            return by_id(json.loads(response.read()))

    try:
        _load(conn)
        pairs = []
        for statement in STATEMENTS:
            conn.execute(statement)
            blocking = conn.provider.tracer.last().statement_id
            for _ in conn.execute_stream(statement).batches():
                pass
            pairs.append((blocking, conn.provider.tracer.last().statement_id))
        last_id = pairs[-1][1]
        stats = dict(conn.execute(
            "SELECT FINGERPRINT, CALLS FROM $SYSTEM.DM_STATEMENT_STATS").rows)
        logged = log()
        sink = by_id(conn.provider.slow_sink.records())
        served = queries()

        batches = conn.execute_stream("SELECT * FROM Orders").batches()
        next(batches)
        (held,) = conn.provider.workload.active()
        live, live_served = log(), queries()
        for _ in batches:
            pass
        drained = log()
    finally:
        conn.close()

    grid = list(range(1, last_id + 1))
    for view in (logged, sink, served):
        assert [key for key in sorted(view) if key <= last_id] == grid
    for statement_id in grid:
        row = logged[statement_id]
        for line in (sink[statement_id], served[statement_id]):
            assert {key: line[key] for key in row} == row
            assert line["counters"].get("rows_out", 0) == row["rows_out"]
    for blocking, streamed in pairs:
        assert logged[streamed]["status"] == logged[blocking]["status"] \
            == "ok"
        for column in ("rows_scanned", "rows_out"):
            assert logged[streamed][column] == logged[blocking][column]
    carried = Counter(sink[key]["fingerprint"] for key in grid)
    assert set(carried) <= set(stats)
    for fingerprint, calls in stats.items():  # the stats query itself: 0
        assert calls == carried[fingerprint]

    # Mid-stream, the held statement is a running row (beside the reader's
    # own), the same in both views but for its clock; drained, it is one
    # row, ``ok``.
    row = live[held.statement_id]
    assert {key for key, value in live.items()
            if value["status"] == "running"} == \
        {held.statement_id, held.statement_id + 1}
    line = live_served[held.statement_id]
    assert line["status"] == "running"
    assert line["duration_ms"] >= row["duration_ms"] > 0
    assert {key: line[key] for key in row if key != "duration_ms"} == \
        {key: value for key, value in row.items() if key != "duration_ms"}
    assert drained[held.statement_id]["status"] == "ok"
    assert drained[held.statement_id]["rows_out"] == 180


SPEND_RISK_DDL = ("CREATE MINING MODEL SpendRisk (cid LONG KEY, "
                  "age LONG CONTINUOUS, city TEXT DISCRETE PREDICT) "
                  "USING Microsoft_Decision_Trees")
SPEND_RISK_TRAIN = ("INSERT INTO SpendRisk (cid, age, city) "
                    "SELECT cid, age, city FROM Customers "
                    "WHERE city IS NOT NULL")
SPEND_RISK_PREDICT = ("SELECT t.cid, SpendRisk.city FROM SpendRisk "
                      "NATURAL PREDICTION JOIN "
                      "(SELECT cid, age FROM Customers) AS t")


def test_prediction_join_streaming_matches(streaming, materialized):
    """PREDICTION JOIN over both providers produces identical rows."""
    for conn in (streaming, materialized):
        if not conn.provider.has_model("SpendRisk"):
            conn.execute(SPEND_RISK_DDL)
            conn.execute(SPEND_RISK_TRAIN)
    left = _canonical(streaming.execute(SPEND_RISK_PREDICT))
    right = _canonical(materialized.execute(SPEND_RISK_PREDICT))
    assert left == right


#: The grid — the derived tables and the ``IN (SELECT …)`` among it — plus
#: a derived table over a whole table and PREDICTION JOINs: streamed,
#: TOP-limited, filtered and ordered.
ROWS_OUT_STATEMENTS = STATEMENTS + [
    "SELECT * FROM (SELECT * FROM Customers) AS s",
    SPEND_RISK_PREDICT,
    SPEND_RISK_PREDICT.replace("SELECT ", "SELECT TOP 7 ", 1),
    SPEND_RISK_PREDICT + " WHERE t.age > 40 ORDER BY t.cid DESC",
]


@pytest.mark.parametrize("transport", ["embedded", "wire"])
def test_rows_out_is_the_rows_returned(transport):
    """``DM_QUERY_LOG.ROWS_OUT`` of every SELECT, UNION and PREDICTION
    JOIN — and the repository's ``ROWS_RETURNED``, summed per fingerprint —
    is the rows the statement returned: its plan root's, never a nested
    select's or a prediction source's as well."""
    from repro.client import connect as net_connect
    from repro.server import DmxServer

    conn = _make(TINY_BATCH)
    conn.execute(SPEND_RISK_DDL)
    conn.execute(SPEND_RISK_TRAIN)
    tracer = conn.provider.tracer
    returned, by_fingerprint = {}, Counter()

    def run(execute):
        for statement in ROWS_OUT_STATEMENTS:
            rows = len(_canonical(execute(statement))[1])
            record = tracer.last()
            returned[record.statement_id] = rows
            by_fingerprint[record.fingerprint] += rows
    try:
        if transport == "wire":
            with DmxServer(conn.provider, port=0) as server, \
                    net_connect("127.0.0.1", server.port) as wire:
                run(wire.execute)
            assert server.thread_errors == []
        else:
            run(conn.execute)
        log = dict(conn.execute(
            "SELECT STATEMENT_ID, ROWS_OUT FROM $SYSTEM.DM_QUERY_LOG").rows)
        stats = dict(conn.execute(
            "SELECT FINGERPRINT, ROWS_RETURNED "
            "FROM $SYSTEM.DM_STATEMENT_STATS").rows)
    finally:
        conn.close()
    assert {key: log[key] for key in returned} == returned
    assert {key: stats[key] for key in by_fingerprint} == by_fingerprint


#: One statement of each shape whose result is not a plan root's rows
#: alone, or comes from outside the engine.
RECEIVED_STATEMENTS = [
    "EXPLAIN SELECT * FROM Customers",
    "EXPLAIN ANALYZE SELECT * FROM Customers",
    "SELECT * FROM $SYSTEM.MINING_MODELS",
    "SELECT * FROM SpendRisk.CONTENT",
    "SELECT * FROM SHAPE {SELECT cid, name FROM Customers ORDER BY cid} "
    "APPEND ({SELECT cid, product FROM Orders ORDER BY cid} "
    "RELATE cid TO cid) AS Bought",
    SPEND_RISK_PREDICT,
    "SELECT name FROM Customers WHERE age > 40",
]


@pytest.mark.parametrize("transport", ["embedded", "wire"])
def test_rows_out_is_what_the_client_received(transport):
    """``DM_QUERY_LOG.ROWS_OUT`` is the rows the client received — for
    EXPLAIN the plan's rows, not none or the analyzed statement's — and
    over the wire the session's ``ROWS_SENT`` grows by as many."""
    from repro.client import connect as net_connect
    from repro.server import DmxServer

    conn = _make(TINY_BATCH)
    conn.execute(SPEND_RISK_DDL)
    conn.execute(SPEND_RISK_TRAIN)
    tracer = conn.provider.tracer
    received = {}

    def run(execute, rows_sent=None):
        for statement in RECEIVED_STATEMENTS:
            before = rows_sent and rows_sent()
            rows = len(execute(statement).rows)
            received[tracer.last().statement_id] = rows
            if rows_sent:
                assert rows_sent() - before == rows, statement

    def session_rows_sent():
        (sent,), = conn.execute(
            "SELECT ROWS_SENT FROM $SYSTEM.DM_SESSIONS").rows
        return sent

    try:
        if transport == "wire":
            with DmxServer(conn.provider, port=0) as server, \
                    net_connect("127.0.0.1", server.port) as wire:
                run(wire.execute, session_rows_sent)
            assert server.thread_errors == []
        else:
            run(conn.execute)
        log = dict(conn.execute(
            "SELECT STATEMENT_ID, ROWS_OUT FROM $SYSTEM.DM_QUERY_LOG").rows)
    finally:
        conn.close()
    assert len(received) == len(RECEIVED_STATEMENTS)
    assert all(received.values())
    assert {key: log[key] for key in received} == received
