"""EXPLAIN under cost-based planning: estimates, costs, and decisions.

The optimizer's contract with EXPLAIN: with statistics on (the default),
every scan/select/join node carries a non-null ``EST_ROWS`` *and* a
non-null ``COST``, and the decisions the cost model makes — hash-join
build side, index seek vs table scan — are legible in ``STRATEGY``.  The
grid sweep runs every statement shape under EXPLAIN ANALYZE so estimates
sit next to actuals.
"""

import pytest

import repro
from repro.obs.explain import is_plan_rowset

from tests.differential.test_stream_vs_materialize import (
    STATEMENTS,
    TINY_BATCH,
    _load,
)

# Operators the estimator must always cover when statistics are on.
ESTIMATED_OPERATORS = {"table scan", "index seek", "select", "join", "view"}


def _plan_rows(conn, statement):
    rowset = conn.execute(statement)
    assert is_plan_rowset(rowset)
    names = [c.name for c in rowset.columns]
    return [dict(zip(names, row)) for row in rowset.rows]


@pytest.fixture(scope="module")
def grid_conn():
    conn = repro.connect(batch_size=TINY_BATCH, caseset_cache_capacity=0)
    _load(conn)
    yield conn
    conn.close()


@pytest.fixture(scope="module")
def skewed_conn():
    conn = _skewed(statistics=True)
    yield conn
    conn.close()


def _skewed(statistics):
    """Tables with a 20:1 cardinality skew, the smaller one on the left."""
    conn = repro.connect(statistics=statistics)
    conn.execute("CREATE TABLE Big (k INT, payload TEXT)")
    conn.execute("CREATE TABLE Small (k INT, tag TEXT)")
    conn.execute("INSERT INTO Big VALUES " + ", ".join(
        f"({i % 10}, 'p{i:03d}')" for i in range(200)))
    conn.execute("INSERT INTO Small VALUES " + ", ".join(
        f"({i}, 't{i}')" for i in range(10)))
    return conn


@pytest.mark.parametrize("statement", STATEMENTS)
def test_every_plan_node_is_estimated_and_costed(grid_conn, statement):
    for row in _plan_rows(grid_conn, f"EXPLAIN ANALYZE {statement}"):
        if row["OPERATOR"] not in ESTIMATED_OPERATORS:
            continue
        label = f"{row['OPERATOR']} [{row.get('TARGET')}] in {statement!r}"
        assert row["EST_ROWS"] is not None, f"no estimate on {label}"
        assert row["EST_ROWS"] >= 0
        assert row["COST"] is not None, f"no cost on {label}"
        assert row["COST"] >= 0


@pytest.mark.parametrize("statement", STATEMENTS)
def test_root_estimates_are_sane_vs_actuals(grid_conn, statement):
    """Estimates are estimates — but the grid is built from uniform-ish
    synthetic data, so the root estimate must stay within a generous
    factor of the actual rows (guards against wildly broken selectivity
    math, not against honest misestimates)."""
    root = _plan_rows(grid_conn, f"EXPLAIN ANALYZE {statement}")[0]
    if root["EST_ROWS"] is None or root["ACTUAL_ROWS"] is None:
        return
    actual = root["ACTUAL_ROWS"]
    estimate = root["EST_ROWS"]
    assert estimate <= max(50 * actual, 200)
    if actual > 0:
        assert estimate >= actual / 50 or estimate >= 1


SKEWED_JOIN = ("EXPLAIN SELECT s.tag, b.payload FROM Small AS s "
               "JOIN Big AS b ON s.k = b.k")


def test_build_side_follows_estimated_cardinality(skewed_conn):
    """Small (10 rows) on the left of Big (200): statistics estimate the
    left side smaller, yet the right side builds the hash, and the join
    returns the rows the ``statistics=False`` baseline returns."""
    rows = _plan_rows(skewed_conn, SKEWED_JOIN)
    join = next(r for r in rows if r["OPERATOR"] == "join")
    assert join["STRATEGY"] == "hash join (right side build)"
    baseline = _skewed(statistics=False)
    try:
        query = SKEWED_JOIN[len("EXPLAIN "):]
        expected = baseline.execute(query).rows
        assert len(expected) == 200
        assert skewed_conn.execute(query).rows == expected
    finally:
        baseline.close()


def test_build_side_keeps_heuristic_without_stats():
    conn = _skewed(statistics=False)
    rows = _plan_rows(conn, SKEWED_JOIN)
    join = next(r for r in rows if r["OPERATOR"] == "join")
    assert "right side" in join["STRATEGY"]
    conn.close()


def test_seek_declines_when_scan_is_cheaper(grid_conn):
    grid_conn.execute("CREATE INDEX ix_opt_age ON Customers (age)")
    try:
        selective = _plan_rows(
            grid_conn, "EXPLAIN SELECT * FROM Customers WHERE age = 25")
        assert any(r["OPERATOR"] == "index seek" for r in selective)
        # age > 0 matches every row: seek cost equals the scan, so the
        # cost model declines the index.
        full = _plan_rows(
            grid_conn, "EXPLAIN SELECT * FROM Customers WHERE age > 0")
        assert all(r["OPERATOR"] != "index seek" for r in full)
        assert any(r["OPERATOR"] == "table scan" for r in full)
    finally:
        grid_conn.execute("DROP INDEX ix_opt_age ON Customers")


def test_prediction_plan_estimates_through_where(grid_conn):
    grid_conn.execute(
        "CREATE MINING MODEL OptSpend (cid LONG KEY, city TEXT DISCRETE, "
        "spend DOUBLE CONTINUOUS PREDICT) USING Repro_Linear_Regression")
    grid_conn.execute("INSERT INTO OptSpend (cid, city, spend) "
                      "SELECT cid, city, spend FROM Customers")
    rows = _plan_rows(
        grid_conn,
        "EXPLAIN SELECT t.cid FROM OptSpend NATURAL PREDICTION JOIN "
        "(SELECT cid, city, spend FROM Customers) AS t "
        "WHERE t.city = 'Austin'")
    root = rows[0]
    assert root["OPERATOR"] == "prediction join"
    assert root["EST_ROWS"] is not None
    # 12 of 60 customers are in Austin; the estimate must reflect the
    # WHERE, not the full source.
    assert root["EST_ROWS"] < 60


def test_update_statistics_plan_and_rowset(grid_conn):
    rows = _plan_rows(grid_conn, "EXPLAIN UPDATE STATISTICS Customers")
    assert rows[0]["OPERATOR"] == "update statistics"
    grid_conn.execute("UPDATE STATISTICS Customers")
    stats = grid_conn.execute(
        "SELECT COLUMN_NAME, ROW_COUNT, NDV FROM "
        "$SYSTEM.DM_COLUMN_STATISTICS WHERE TABLE_NAME = 'Customers'").rows
    assert len(stats) == 5
    assert all(row_count == 60 for _, row_count, _ in stats)
