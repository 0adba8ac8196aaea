"""Every statement runs the plan EXPLAIN prints.

One statement of each statement type (the control verbs TRACE, CANCEL
and EXPLAIN have no plan): plain ``EXPLAIN`` describes it without
touching data or catalog, and ``EXPLAIN ANALYZE``'s root counts what
executing it returns.  A DML statement's ``ROWS_OUT`` is the count it
returned — embedded and over the wire — its ``EST_ROWS`` is what a
SELECT over its WHERE estimates, and an ``INSERT … SELECT`` prepares its
SELECT once.
"""

import pytest

import repro
from repro.client import connect as net_connect
from repro.core.persistence import dump_provider
from repro.lang import ast_nodes as ast
from repro.lang.parser import parse_statement
from repro.server import DmxServer
from repro.sqlstore.engine import Database
from repro.sqlstore.rowset import Rowset

SETUP = [
    "CREATE TABLE People (id INT, age INT, risk TEXT)",
    "INSERT INTO People VALUES (1, 25, 'low'), (2, 62, 'high'), "
    "(3, 41, 'low'), (4, 70, 'high'), (5, 33, 'low')",
    "CREATE TABLE Scratch (a INT)",
    "CREATE INDEX ix_risk ON People (risk)",
    "CREATE MINING MODEL Risk (id LONG KEY, age LONG CONTINUOUS, "
    "risk TEXT DISCRETE PREDICT) USING Microsoft_Decision_Trees",
    "INSERT INTO Risk (id, age, risk) SELECT id, age, risk FROM People",
    "CREATE MINING MODEL Spare (id LONG KEY, risk TEXT DISCRETE PREDICT) "
    "USING Microsoft_Naive_Bayes",
]

#: One statement per statement type; ``{pmml}`` is a PMML file of Risk.
STATEMENTS = {
    ast.SelectStatement: "SELECT id, age FROM People WHERE age > 30",
    ast.UnionStatement:
        "SELECT id FROM People UNION ALL SELECT a FROM Scratch",
    ast.CreateTableStatement: "CREATE TABLE Fresh (a INT, b TEXT)",
    ast.CreateViewStatement:
        "CREATE VIEW Old AS SELECT id FROM People WHERE age > 40",
    ast.InsertValuesStatement:
        "INSERT INTO People VALUES (6, 52, 'high'), (7, 19, 'low')",
    ast.DeleteStatement: "DELETE FROM People WHERE id IN "
                         "(SELECT id FROM People WHERE age > 60)",
    ast.UpdateStatement: "UPDATE People SET age = age + 1 "
                         "WHERE risk = 'low'",
    ast.UpdateStatisticsStatement: "UPDATE STATISTICS People",
    ast.DropTableStatement: "DROP TABLE Scratch",
    ast.CreateIndexStatement: "CREATE INDEX ix_age ON People (age)",
    ast.DropIndexStatement: "DROP INDEX ix_risk ON People",
    ast.CreateMiningModelStatement:
        "CREATE MINING MODEL Fresh (id LONG KEY, risk TEXT DISCRETE "
        "PREDICT) USING Microsoft_Naive_Bayes",
    ast.InsertModelStatement:
        "INSERT INTO Spare (id, SKIP, risk) SELECT id, age, risk "
        "FROM People",
    ast.DropMiningModelStatement: "DROP MINING MODEL Spare",
    ast.DeleteModelStatement: "DELETE FROM MINING MODEL Risk",
    ast.ExportModelStatement: "EXPORT MINING MODEL Risk TO '{out}'",
    ast.ImportModelStatement:
        "IMPORT MINING MODEL FROM '{pmml}' AS Imported",
}


def _statement_types(base=ast.Statement):
    for subclass in base.__subclasses__():
        yield subclass
        yield from _statement_types(subclass)


def test_the_grid_holds_one_statement_of_every_plannable_type():
    control = {ast.TraceStatement, ast.CancelStatement,
               ast.ExplainStatement}
    assert set(_statement_types()) - control == set(STATEMENTS)
    for statement_type, text in STATEMENTS.items():
        parsed = parse_statement(text.format(pmml="p.xml", out="q.xml"))
        assert type(parsed) is statement_type


def _loaded():
    conn = repro.connect()
    for statement in SETUP:
        conn.execute(statement)
    return conn


@pytest.fixture
def texts(tmp_path):
    """The statement texts, over a PMML file of the trained model."""
    pmml = str(tmp_path / "risk.pmml")
    conn = _loaded()
    conn.execute(f"EXPORT MINING MODEL Risk TO '{pmml}'")
    conn.close()
    return {statement_type: text.format(pmml=pmml,
                                        out=str(tmp_path / "out.pmml"))
            for statement_type, text in STATEMENTS.items()}


def _root(rowset):
    names = [column.name for column in rowset.columns]
    return dict(zip(names, rowset.rows[0]))


@pytest.mark.parametrize("statement_type", list(STATEMENTS),
                         ids=lambda statement_type: statement_type.__name__)
def test_explain_accepts_every_statement(texts, statement_type):
    text = texts[statement_type]
    conn, twin = _loaded(), _loaded()
    try:
        before = (dump_provider(conn.provider),
                  conn.database.data_version)
        plan = conn.execute(f"EXPLAIN {text}")
        assert plan.rows and _root(plan)["ACTUAL_ROWS"] is None
        assert (dump_provider(conn.provider),
                conn.database.data_version) == before

        analyzed = _root(conn.execute(f"EXPLAIN ANALYZE {text}"))
        result = twin.execute(text)
        returned = (len(result.rows) if isinstance(result, Rowset)
                    else result)
        assert analyzed["ACTUAL_ROWS"] == returned
        assert dump_provider(conn.provider) == dump_provider(twin.provider)
    finally:
        conn.close()
        twin.close()


DML = [
    ("INSERT INTO People VALUES (6, 52, 'high'), (7, 19, 'low'), "
     "(8, 30, 'low')", 3),
    ("INSERT INTO Scratch SELECT id FROM People WHERE age > 30", 5),
    ("UPDATE People SET age = age + 1 WHERE risk = 'high'", 3),
    # The subquery returns five rows; the statement deletes one.
    ("DELETE FROM People WHERE age < 40 AND id IN (SELECT a FROM Scratch)",
     1),
]


@pytest.mark.parametrize("transport", ["embedded", "wire"])
def test_a_dml_statements_rows_out_is_the_count_it_returned(transport):
    conn = _loaded()
    try:
        if transport == "wire":
            with DmxServer(conn.provider, port=0) as server, \
                    net_connect("127.0.0.1", server.port) as client:
                returned = [client.execute(text) for text, _ in DML]
        else:
            returned = [conn.execute(text) for text, _ in DML]
        assert returned == [count for _, count in DML]
        logged = [conn.execute(
            "SELECT ROWS_OUT FROM $SYSTEM.DM_QUERY_LOG WHERE STATEMENT = '"
            + text.replace("'", "''") + "'").rows for text, _ in DML]
        assert logged == [[(count,)] for _, count in DML]
    finally:
        conn.close()


@pytest.mark.parametrize("dml, where", [
    ("DELETE FROM P WHERE age = 3", "age = 3"),
    ("UPDATE P SET age = 1 WHERE id < 10", "id < 10"),
])
def test_a_dml_statements_estimate_is_its_wheres(dml, where):
    """Not the table's size: the rows its WHERE is estimated to hold for,
    as the SELECT over the same WHERE estimates them (a seek there)."""
    conn = repro.connect()
    try:
        conn.execute("CREATE TABLE P (id LONG PRIMARY KEY, age LONG)")
        conn.execute("INSERT INTO P VALUES " + ", ".join(
            f"({i}, {i % 7})" for i in range(600)))
        conn.execute("CREATE INDEX ix_p_id ON P (id)")
        estimates = []
        for text in (dml, f"SELECT * FROM P WHERE {where}"):
            plan = conn.execute(f"EXPLAIN {text}")
            names = [column.name for column in plan.columns]
            estimates.append(dict(zip(names, plan.rows[0]))["EST_ROWS"])
        assert estimates[0] == estimates[1] < 100
    finally:
        conn.close()


@pytest.mark.parametrize("dml, access, read", [
    ("DELETE FROM P WHERE id = 500", "index seek", 1),
    ("UPDATE P SET age = 0 WHERE id BETWEEN 10 AND 14", "index seek", 5),
    ("DELETE FROM P WHERE age = 3", "table scan", 600),
    ("UPDATE P SET age = 1", "table scan", 600),
])
def test_a_dml_statement_runs_its_wheres_access_path(dml, access, read):
    """A DELETE's or UPDATE's one child is the index seek or table scan a
    SELECT over its WHERE gets; that child's ACTUAL_ROWS and the
    statement's ROWS_SCANNED are the rows it read, and the statement ends
    in the ``scan`` phase."""
    connections = []
    for _ in range(2):
        conn = repro.connect()
        conn.execute("CREATE TABLE P (id LONG PRIMARY KEY, age LONG)")
        conn.execute("INSERT INTO P VALUES " + ", ".join(
            f"({i}, {i % 7})" for i in range(600)))
        conn.execute("CREATE INDEX ix_p_id ON P (id)")
        connections.append(conn)
    analyzed, plain = connections
    try:
        plan = analyzed.execute(f"EXPLAIN ANALYZE {dml}")
        names = [column.name for column in plan.columns]
        nodes = [dict(zip(names, row)) for row in plan.rows]
        assert [node["OPERATOR"] for node in nodes] == \
            [dml.split()[0].lower(), access]
        assert nodes[1]["ACTUAL_ROWS"] == read
        count = plain.execute(dml)
        assert nodes[0]["ACTUAL_ROWS"] == count
        assert plain.execute(
            "SELECT ROWS_OUT, ROWS_SCANNED, PHASE FROM $SYSTEM.DM_QUERY_LOG "
            f"WHERE STATEMENT = '{dml}'").rows == [(count, read, "scan")]
    finally:
        for conn in connections:
            conn.close()


def test_an_insert_select_prepares_its_select_once(monkeypatch):
    conn = _loaded()
    prepared = []
    prepare = Database.prepare
    monkeypatch.setattr(Database, "prepare", lambda database, statement: (
        prepared.append(statement), prepare(database, statement))[1])
    try:
        assert conn.execute(
            "INSERT INTO Scratch SELECT id FROM People WHERE age > 30") == 4
    finally:
        conn.close()
    assert len(prepared) == 1
