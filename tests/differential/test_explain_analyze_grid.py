"""Differential harness: EXPLAIN ANALYZE actuals vs direct execution.

For every statement shape in the stream-vs-materialize grid, running the
statement under ``EXPLAIN ANALYZE`` must report a root-operator actual row
count identical to what direct execution returns — each node counts what
it produces as it runs, so any drift means the profiler is lying.

The analyzed tree must also add up, over the grid and over every mining
statement of the characterisation golden on a one-worker and a four-worker
pool: a node that ran reports its rows and time (and its batches, unless
it returns a count), a node that did not run reports nothing, no node
reports more time than its parent, and a join's scan leaves report the
rows they read — the whole table, also under the ``filter`` that runs a
leaf's pushed WHERE conjuncts and keeps no more rows than it is handed.

A second sweep pins plain ``EXPLAIN`` to the planner path: with span
capture on, explaining every grid statement must open no span besides the
parser's — a plan node that ran would be one.
"""

import pytest

from repro.lang.parser import parse_statement
from repro.obs.explain import is_plan_rowset

from tests.differential.test_parallel_vs_serial import SCENARIOS
from tests.differential.test_stream_vs_materialize import (
    STATEMENTS,
    TINY_BATCH,
    _make,
)
from tests.obs.test_explain_golden import (
    MINING_POOLS,
    mining_connection,
    mining_statements,
)

#: The actual columns, all NULL on a node that did not run.
ACTUALS = ("ACTUAL_ROWS", "Q_ERROR", "ACTUAL_BATCHES", "WALL_MS",
           "POOL_TASKS")
#: Operators that return a count — what they consumed — not batches (``fit
#: schema`` a space, counted by the cases it read).
COUNTED = {"train", "fit schema", "fit", "incremental absorb"}
#: The grid's tables (``_load``) and their sizes.
TABLE_ROWS = {"Customers": 60, "Orders": 180, "Stores": 4}


@pytest.fixture(scope="module")
def grid_conn():
    conn = _make(TINY_BATCH)
    yield conn
    conn.close()


def _plan_rows(conn, statement):
    rowset = conn.execute(statement)
    assert is_plan_rowset(rowset)
    names = [c.name for c in rowset.columns]
    return [dict(zip(names, row)) for row in rowset.rows]


def _assert_tree_adds_up(plan):
    """The invariants of an analyzed tree; returns the rows that ran."""
    by_id = {row["OP_ID"]: row for row in plan}
    ran = {}
    for row in plan:  # pre-order: a parent comes before its children
        label = f"{row['OPERATOR']} [{row['TARGET']}]"
        if row["ACTUAL_ROWS"] is None:
            assert all(row[column] is None for column in ACTUALS), label
            continue
        ran[row["OP_ID"]] = row
        assert row["WALL_MS"] is not None, label
        assert (row["ACTUAL_BATCHES"] is None) == \
            (row["OPERATOR"] in COUNTED), label
        parent = by_id.get(row["PARENT_ID"])
        if parent is not None:
            assert parent["OP_ID"] in ran, f"{label} ran, its parent did not"
            assert row["WALL_MS"] <= parent["WALL_MS"], (
                f"{label}: {row['WALL_MS']} ms, its parent "
                f"{parent['OPERATOR']} {parent['WALL_MS']} ms")
    assert plan[0]["OP_ID"] in ran
    return ran


@pytest.mark.parametrize("statement", STATEMENTS)
def test_analyze_root_actuals_match_direct_execution(grid_conn, statement):
    expected = len(grid_conn.execute(statement).rows)
    root = _plan_rows(grid_conn, f"EXPLAIN ANALYZE {statement}")[0]
    assert root["ACTUAL_ROWS"] == expected
    assert root["WALL_MS"] is not None


@pytest.mark.parametrize("statement", STATEMENTS)
def test_analyzed_grid_tree_adds_up(grid_conn, statement):
    plan = _plan_rows(grid_conn, f"EXPLAIN ANALYZE {statement}")
    assert len(_assert_tree_adds_up(plan)) == len(plan)  # every node ran
    by_id = {row["OP_ID"]: row for row in plan}
    joins = {row["OP_ID"] for row in plan if row["OPERATOR"] == "join"}
    top = getattr(parse_statement(statement), "top", None)
    for row in plan:
        parent = by_id.get(row["PARENT_ID"])
        if parent is not None and parent["OPERATOR"] == "filter":
            # A filter runs the WHERE conjuncts pushed to its scan: it
            # keeps some of the rows the scan read.
            assert parent["ACTUAL_ROWS"] <= row["ACTUAL_ROWS"]
            parent = by_id.get(parent["PARENT_ID"])
        if parent is not None and parent["OP_ID"] in joins \
                and row["OPERATOR"] == "table scan":
            assert row["ACTUAL_BATCHES"] >= 1
            if top is None:
                assert row["ACTUAL_ROWS"] == TABLE_ROWS[row["TARGET"]]
            else:  # TOP stops pulling the probe side early
                assert row["ACTUAL_ROWS"] > 0


@pytest.mark.parametrize("pool", [label for label, _ in MINING_POOLS])
@pytest.mark.parametrize("service", sorted(SCENARIOS))
def test_analyzed_mining_tree_adds_up(service, pool):
    """ANALYZE runs each statement for real, in the golden's order, so a
    repeated INSERT absorbs and a repeated source hits the caseset cache:
    the nodes those skip report nothing."""
    conn = mining_connection(service, **dict(MINING_POOLS)[pool])
    try:
        for statement in mining_statements(service):
            _assert_tree_adds_up(
                _plan_rows(conn, f"EXPLAIN ANALYZE {statement}"))
    finally:
        conn.close()


@pytest.mark.parametrize("statement", STATEMENTS)
def test_plain_explain_opens_no_data_path_spans(grid_conn, statement):
    grid_conn.execute("TRACE ON")
    try:
        rows = _plan_rows(grid_conn, f"EXPLAIN {statement}")
        record = grid_conn.provider.tracer.last()
        assert record.kind == "EXPLAIN"
        names = {row[3] for row in record.trace_rows()}
        assert names == {"statement", "parse"}, (
            f"plain EXPLAIN touched the data path: {names}")
        # And it still produced a plan with no actuals.
        assert all(r["ACTUAL_ROWS"] is None for r in rows)
    finally:
        grid_conn.execute("TRACE OFF")


def test_analyze_prediction_join_actuals_match(grid_conn):
    ddl = ("CREATE MINING MODEL GridRisk (cid LONG KEY, "
           "age LONG CONTINUOUS, city TEXT DISCRETE PREDICT) "
           "USING Microsoft_Decision_Trees")
    train = ("INSERT INTO GridRisk (cid, age, city) "
             "SELECT cid, age, city FROM Customers WHERE city IS NOT NULL")
    query = ("SELECT t.cid, GridRisk.city FROM GridRisk "
             "NATURAL PREDICTION JOIN "
             "(SELECT cid, age FROM Customers) AS t")
    grid_conn.execute(ddl)

    # Plain EXPLAIN of the training statement must leave it untrained.
    grid_conn.execute(f"EXPLAIN {train}")
    assert not grid_conn.provider.model("GridRisk").is_trained

    # ANALYZE trains for real and reports the bound caseset size.
    rows = _plan_rows(grid_conn, f"EXPLAIN ANALYZE {train}")
    assert grid_conn.provider.model("GridRisk").is_trained
    assert rows[0]["ACTUAL_ROWS"] is not None

    expected = len(grid_conn.execute(query).rows)
    root = _plan_rows(grid_conn, f"EXPLAIN ANALYZE {query}")[0]
    assert root["OPERATOR"] == "prediction join"
    assert root["ACTUAL_ROWS"] == expected
