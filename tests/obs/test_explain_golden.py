"""Characterisation golden for plain EXPLAIN and the repository's plan hash.

``golden/explain_grid.json`` pins, for the 41-statement differential grid
plus the indexed/optimizer statements of ``test_explain_optimizer.py`` and
``tests/sqlstore/test_indexes.py``, the full plain-``EXPLAIN`` rowset
(every column) and the ``plan_hash`` the workload repository stamps on the
executed statement — with statistics on and with ``statistics=False``.
The ``mining`` case does the same for model INSERTs and PREDICTION JOINs:
every service scenario of ``test_parallel_vs_serial.py`` plus the predict
shapes that pick a different path (pushdown, TOP, blocking clauses,
FLATTENED, a source under the small-input gate), on a one-worker pool and
on a four-worker thread pool.

A planner refactor must leave the file byte-identical: a changed plan hash
would surface as a spurious plan-change event in a persisted
``workload_repository.json``.  Regenerate (only when a plan is *meant* to
change) with ``PYTHONPATH=src:. python tests/obs/test_explain_golden.py``.
"""

import json
import os

import repro

from tests.differential import test_parallel_vs_serial as parallel_grid
from tests.differential.test_stream_vs_materialize import (
    STATEMENTS,
    TINY_BATCH,
    _load,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "explain_grid.json")

# tests/obs/test_explain_optimizer.py: seek-vs-scan and build-side decisions.
OPTIMIZER_SETUP = [
    "CREATE INDEX ix_opt_age ON Customers (age)",
    "CREATE TABLE Big (k INT, payload TEXT)",
    "CREATE TABLE Small (k INT, tag TEXT)",
    "INSERT INTO Big VALUES " + ", ".join(
        f"({i % 10}, 'p{i:03d}')" for i in range(200)),
    "INSERT INTO Small VALUES " + ", ".join(
        f"({i}, 't{i}')" for i in range(10)),
]
OPTIMIZER_STATEMENTS = [
    "SELECT * FROM Customers WHERE age = 25",
    "SELECT * FROM Customers WHERE age > 0",
    "SELECT s.tag, b.payload FROM Small AS s JOIN Big AS b ON s.k = b.k",
    "SELECT b.payload, s.tag FROM Big AS b JOIN Small AS s ON b.k = s.k",
]

# tests/sqlstore/test_indexes.py: point/range/IN seeks, indexed join build.
INDEX_SETUP = [
    "CREATE TABLE People (id INT, age INT, city TEXT)",
    "INSERT INTO People VALUES (1, 25, 'Oslo'), (2, 62, 'Rome'), "
    "(3, 41, 'Oslo'), (4, 70, 'Pisa'), (5, 33, 'Rome')",
    "CREATE INDEX IX_AGE ON People (age)",
    "CREATE INDEX IX_CITY ON People (city)",
    "CREATE TABLE POrders (cid INT, total INT)",
    "INSERT INTO POrders VALUES (1, 10), (3, 20), (3, 30)",
    "CREATE INDEX IX_OCID ON POrders (cid)",
]
INDEX_STATEMENTS = [
    "SELECT * FROM People WHERE age = 41",
    "SELECT * FROM People WHERE age >= 41",
    "SELECT id FROM People WHERE age > 40 ORDER BY id",
    "SELECT id FROM People WHERE city IN ('Oslo', 'Pisa') ORDER BY id",
    "SELECT p.id, o.total FROM People AS p JOIN POrders AS o "
    "ON p.id = o.cid ORDER BY p.id, o.total",
]

# The two joins whose plan text and executed path disagreed before the
# engine planned once (plus the reversed spelling and a LEFT JOIN).
TRUTH_SETUP = [
    "CREATE TABLE A (x INT, y INT, k INT)",
    "CREATE TABLE B (id INT, v TEXT)",
    "INSERT INTO A VALUES (1, 1, 10), (2, 3, 20), (4, 4, 30), (5, 5, 99)",
    "INSERT INTO B VALUES (10, 'ten'), (20, 'twenty'), (30, 'thirty'), "
    "(30, 'thirty again')",
    "CREATE INDEX ib ON B (id)",
]
TRUTH_STATEMENTS = [
    "SELECT * FROM A JOIN B ON A.x = A.y AND A.k = B.id",
    "SELECT * FROM A JOIN B ON A.x = A.y",
    "SELECT * FROM A JOIN B ON B.id = A.k",
    "SELECT * FROM A LEFT JOIN B ON A.x = A.y AND A.k = B.id",
]

# (case, loads the grid tables first, extra setup, statements)
CASES = [
    ("grid", True, [], STATEMENTS),
    ("optimizer", True, OPTIMIZER_SETUP, OPTIMIZER_STATEMENTS),
    ("indexes", False, INDEX_SETUP, INDEX_STATEMENTS),
    ("truth", False, TRUTH_SETUP, TRUTH_STATEMENTS),
]

# The mining case: (label, connect() keywords) per pool configuration.
MINING_POOLS = [
    ("w1", dict(max_workers=1)),
    ("w4", dict(max_workers=4, pool_mode="thread")),
]
MINING_SETUP = [
    "CREATE TABLE C3 (Id LONG, G TEXT, H TEXT)",
    "INSERT INTO C3 VALUES (1, 'm', 'hi'), (2, 'f', 'lo'), (3, 'm', 'mid')",
]


def mining_statements(service: str) -> list:
    """The statements of one service scenario, in execution order: its
    training INSERT (twice for naive Bayes, whose second INSERT absorbs
    incrementally), its PREDICTION JOIN, and the variants that change the
    prediction path."""
    scenario = parallel_grid.SCENARIOS[service]
    train, predict = scenario["train"], scenario["predict"]
    statements = [train]
    if service == "Repro_Naive_Bayes":
        statements += [
            train,
            predict,
            predict + " WHERE t.Id > 50",
            predict.replace("SELECT ", "SELECT TOP 5 ", 1),
            predict + " ORDER BY t.Id DESC",
            predict.replace("SELECT ", "SELECT DISTINCT ", 1),
            predict.replace("(SELECT Id, G, H FROM C)", "C3"),
        ]
    elif service == "Repro_Association_Rules":
        statements += [
            predict,
            predict.replace("SELECT ", "SELECT FLATTENED ", 1),
        ]
    else:
        statements.append(predict)
    return statements


def mining_connection(service: str, statistics: bool = True, **pool):
    """A fresh provider holding the parallel grid's tables and ``service``'s
    untrained model ``M`` (caseset cache at its default, so the CACHE
    column is exercised)."""
    conn = repro.connect(batch_size=TINY_BATCH, statistics=statistics,
                         **pool)
    parallel_grid._load(conn)
    for statement in MINING_SETUP:
        conn.execute(statement)
    conn.execute(parallel_grid.SCENARIOS[service]["ddl"])
    return conn


def case_connection(case: str, statistics: bool = True):
    """A fresh provider holding one case's tables (its own connection, so
    the optimizer case's indexes never leak into the un-indexed grid)."""
    _, grid, setup, _ = next(entry for entry in CASES if entry[0] == case)
    conn = repro.connect(batch_size=TINY_BATCH, caseset_cache_capacity=0,
                         statistics=statistics)
    if grid:
        _load(conn)
    for statement in setup:
        conn.execute(statement)
    return conn


def _capture_statement(conn, statement: str) -> dict:
    plan = conn.execute(f"EXPLAIN {statement}")
    conn.execute(statement)
    record = conn.provider.tracer.last()
    return {
        "columns": [c.name for c in plan.columns],
        "rows": [list(row) for row in plan.rows],
        "plan_hash": record.plan_hash,
    }


def capture() -> dict:
    document = {}
    for label, statistics in (("stats_on", True), ("stats_off", False)):
        section = document[label] = {}
        for case, _, _, statements in CASES:
            entries = section[case] = {}
            conn = case_connection(case, statistics)
            try:
                for statement in statements:
                    entries[statement] = _capture_statement(conn, statement)
            finally:
                conn.close()
        mining = section["mining"] = {}
        for pool_label, pool in MINING_POOLS:
            for service in sorted(parallel_grid.SCENARIOS):
                conn = mining_connection(service, statistics, **pool)
                try:
                    # A list, not a dict: naive Bayes trains twice with the
                    # same text and the two plans differ.
                    mining[f"{pool_label} {service}"] = [
                        dict(_capture_statement(conn, statement),
                             statement=statement)
                        for statement in mining_statements(service)]
                finally:
                    conn.close()
    return document


def render(document: dict) -> str:
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


def test_explain_grid_matches_golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        expected = handle.read()
    assert render(capture()) == expected


def _entries(node):
    """Every ``{columns, rows, plan_hash}`` entry of the golden document."""
    if isinstance(node, dict) and "plan_hash" in node:
        yield node
    else:
        for child in (node.values() if isinstance(node, dict) else node):
            yield from _entries(child)


def test_recorded_hash_is_the_hash_of_the_explained_tree():
    """What the golden's cells cannot say one by one: the ``plan_hash``
    stamped on every executed statement of the grid is the hash of the
    skeleton (operator | target | strategy, indented by depth) of the very
    tree plain EXPLAIN printed just before it ran."""
    from repro.obs.repository import skeleton_hash
    with open(GOLDEN, encoding="utf-8") as handle:
        entries = list(_entries(json.load(handle)))
    assert len(entries) > 150
    for entry in entries:
        at = entry["columns"].index
        skeleton = "\n".join(
            "  " * row[at("DEPTH")] + " | ".join(
                str(row[at(cell)])
                for cell in ("OPERATOR", "TARGET", "STRATEGY")
                if row[at(cell)])
            for row in entry["rows"])
        assert entry["plan_hash"] == skeleton_hash(skeleton), \
            entry.get("statement", entry["rows"][0])


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        handle.write(render(capture()))
    print(f"wrote {GOLDEN}")
