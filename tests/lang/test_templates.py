"""Shared templates: the tree a statement executes is read-only.

A template's nodes are shared by every statement made from it, so nothing in
the engine, prediction, shaping or EXPLAIN layers may write onto an AST
node, and their identity-keyed maps must live per execution.  Pinned here:

* after each statement of the differential grid (and the paper's DMX life
  cycle) has run blocking, streamed and under EXPLAIN [ANALYZE], the tree
  its template gives out is, attribute for attribute, a fresh parse;
* a statement with an uncorrelated subquery run twice through one template
  sees a row inserted in between;
* the template counters and the ``parse`` span's ``template`` attribute.

(Two threads running one template with different literals:
``tests/core/test_concurrency_smoke.py``.)
"""

import dataclasses

import pytest

import repro
from repro.lang.parser import parse_statement
from repro.obs.export import render_prometheus

from tests.conftest import AGE_PREDICTION_DDL, AGE_PREDICTION_INSERT
from tests.differential.test_stream_vs_materialize import STATEMENTS, _load
from tests.integration.test_paper_statements import (
    CONTENT_STATEMENT,
    PREDICTION_STATEMENT,
)

# The grid's 41st statement: its PREDICTION JOIN, with what it needs.
GRID_PREDICTION = [
    "CREATE MINING MODEL SpendRisk (cid LONG KEY, age LONG CONTINUOUS, "
    "city TEXT DISCRETE PREDICT) USING Microsoft_Decision_Trees",
    "INSERT INTO SpendRisk (cid, age, city) "
    "SELECT cid, age, city FROM Customers WHERE city IS NOT NULL",
    "SELECT t.cid, SpendRisk.city FROM SpendRisk NATURAL PREDICTION JOIN "
    "(SELECT cid, age FROM Customers) AS t",
]

DMX_LIFE_CYCLE = [
    AGE_PREDICTION_DDL,
    AGE_PREDICTION_INSERT,
    PREDICTION_STATEMENT,
    "SELECT FLATTENED TOP 5 t.[Customer ID], [Age Prediction].[Age], "
    "PredictProbability([Age]) FROM [Age Prediction] NATURAL PREDICTION "
    "JOIN (SELECT [Customer ID], [Gender] FROM Customers "
    "WHERE [Customer ID] < 40) AS t WHERE t.[Customer ID] > 3",
    "SELECT [Age Prediction].[Age] FROM [Age Prediction] NATURAL "
    "PREDICTION JOIN (SELECT 'Male' AS Gender) AS t",
    CONTENT_STATEMENT,
    "SELECT * FROM SHAPE {SELECT [Customer ID], Gender FROM Customers "
    "WHERE [Customer ID] < 5} APPEND ({SELECT CustID, [Product Name] "
    "FROM Sales} RELATE [Customer ID] TO CustID) AS Bought",
    "UPDATE Sales SET Quantity = Quantity + 1 WHERE CustID = 3",
    "DELETE FROM Sales WHERE CustID = 4 AND Quantity > 100",
]


def anatomy(node):
    """``node`` down to every attribute of every dataclass beneath it —
    fields or not, so a value cached onto a node shows."""
    if dataclasses.is_dataclass(node):
        return (type(node).__name__,
                {name: anatomy(value) for name, value in vars(node).items()})
    if isinstance(node, (list, tuple)):
        return (type(node).__name__, [anatomy(item) for item in node])
    return node


def assert_tree_untouched(conn, text):
    """Run ``text`` every way there is, then compare what its template
    gives out with a fresh parse."""
    conn.execute(text)
    statement = parse_statement(text)
    if type(statement).__name__ in ("SelectStatement", "UnionStatement"):
        for _ in conn.execute_stream(text, batch_size=7).batches():
            pass
        conn.execute(f"EXPLAIN {text}")
        conn.execute(f"EXPLAIN ANALYZE {text}")
    templates = conn.provider.templates
    for command in (text, f"EXPLAIN {text}", f"EXPLAIN ANALYZE {text}"):
        # The statement made from the template, and the template's own:
        # a kept plan runs that one.
        statement, _, slot = templates.parse(command)
        trees = [statement] if slot is None else \
            [slot[0].instantiate(slot[1]), slot[0].statement]
        for tree in trees:
            assert anatomy(tree) == anatomy(parse_statement(command))
    assert conn.provider.metrics.value("lang.template_hits") > 0 or \
        conn.provider.metrics.value("lang.template_unparameterizable") > 0


@pytest.fixture(scope="module")
def grid():
    conn = repro.connect(batch_size=7)
    _load(conn)
    yield conn
    conn.close()


@pytest.mark.parametrize("statement", STATEMENTS)
def test_grid_statement_leaves_its_tree_as_parsed(grid, statement):
    assert_tree_untouched(grid, statement)


def test_grid_prediction_join_leaves_its_tree_as_parsed(grid):
    for statement in GRID_PREDICTION:
        assert_tree_untouched(grid, statement)


def test_dmx_life_cycle_leaves_its_trees_as_parsed(warehouse):
    for statement in DMX_LIFE_CYCLE:
        assert_tree_untouched(warehouse, statement)


def test_subquery_results_are_cached_per_execution_not_per_template(conn):
    """``EvalContext._subquery_cache`` and the aggregate maps are keyed on
    ``id(node)`` of nodes a template shares: they must not outlive the
    execution, or the second run would answer from the first."""
    conn.execute("CREATE TABLE T (id INT, v INT)")
    conn.execute("INSERT INTO T VALUES (1, 10), (2, 20)")
    in_query = "SELECT id FROM T WHERE id IN (SELECT id FROM T WHERE v > {})"
    scalar = "SELECT id FROM T WHERE v = (SELECT MAX(v) FROM T WHERE id < {})"
    grouped = ("SELECT COUNT(*) AS n, SUM(v) AS s FROM T "
               "HAVING COUNT(*) > {} ORDER BY SUM(v)")
    assert conn.execute(in_query.format(5)).rows == [(1,), (2,)]
    assert conn.execute(scalar.format(99)).rows == [(2,)]
    assert conn.execute(grouped.format(0)).rows == [(2, 30)]
    conn.execute("INSERT INTO T VALUES (3, 30)")
    hits = conn.provider.metrics.value("lang.template_hits")
    assert conn.execute(in_query.format(5)).rows == [(1,), (2,), (3,)]
    assert conn.execute(in_query.format(15)).rows == [(2,), (3,)]
    assert conn.execute(scalar.format(99)).rows == [(3,)]
    assert conn.execute(grouped.format(0)).rows == [(3, 60)]
    assert conn.provider.metrics.value("lang.template_hits") == hits + 4


# -- observability ------------------------------------------------------------------

def test_template_counters_and_parse_span(conn):
    conn.execute("CREATE TABLE T (id INT, v TEXT)")
    conn.execute("TRACE ON")
    outcomes = []
    for statement in ("SELECT * FROM T WHERE id = 1",
                      "SELECT * FROM T WHERE id = 2",
                      "SELECT TOP 1 * FROM T",
                      "SELECT TOP 2 * FROM T"):
        conn.execute(statement)
        record = conn.provider.tracer.last()
        parse = [row for row in record.trace_rows() if row[3] == "parse"]
        assert len(parse) == 1
        outcomes.append((parse[0][7]["template"], record.totals()["tokens"]))
    assert outcomes == [("miss", 9), ("hit", 9), ("none", 7), ("none", 7)]

    with pytest.raises(repro.Error):
        conn.execute("SELECT FROM WHERE")
    metrics = dict(conn.execute(
        "SELECT METRIC, VALUE FROM $SYSTEM.DM_PROVIDER_METRICS "
        "WHERE METRIC LIKE 'lang.%'").rows)
    # Parsed in full: CREATE TABLE, the first SELECT and the failed one
    # (TRACE ON never reaches the cache).  This query's own parse rides its
    # record into its completion fold, so it is counted once it is done.
    assert metrics == {"lang.template_hits": 1,
                       "lang.template_misses": 3,
                       "lang.template_unparameterizable": 2}
    assert conn.provider.metrics.value("lang.template_misses") == 4

    exposition = render_prometheus(conn.provider.metrics)
    for name in ("lang_template_hits", "lang_template_misses",
                 "lang_template_unparameterizable"):
        assert name in exposition


def test_hit_and_miss_carry_the_same_fingerprint(conn):
    conn.execute("CREATE TABLE T (id INT, v TEXT)")
    for key in (1, 2, 3):
        conn.execute(f"SELECT * FROM T WHERE id = {key}")
    fingerprints = {record.fingerprint
                    for record in conn.provider.tracer.statements()[-3:]}
    assert len(fingerprints) == 1
    rows = conn.execute(
        "SELECT STATEMENT, CALLS FROM $SYSTEM.DM_STATEMENT_STATS "
        "WHERE KIND = 'SELECT'").rows
    assert ("SELECT * FROM [T] WHERE ([ID] = '?')", 3) in rows
