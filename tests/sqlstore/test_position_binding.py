"""Differential harness: a select list bound by position against the same
list evaluated by name.

A select list made only of plain columns is projected by position
(``Database._select_binding``: one ``itemgetter`` per row, or the batch
handed on untouched) and its output columns are taken from the source
columns those positions name.  The claim is that this is *exactly* what
resolving every item by name gives.  The oracle never looks at a
position: it expands ``*`` itself, evaluates every expanded item per row
through ``tests/reference/reference_evaluator.py`` (the tree-walking
interpreter, which resolves each name again for each row), applies
DISTINCT / ORDER BY / TOP, and types every output column by the
documented rule over the rows that remain.  What is compared is the whole
``rowset_dump`` — column names, declared types, nested-column metadata,
rows.  The FROM clause, the sort
keys and the DISTINCT row identity are the engine's own: they are not what
is compared.

Statements are drawn over a fixed catalog: ``*``, ``alias.*``, ``*`` beside
expressions, repeated and reordered plain columns, a single plain column,
aliases, mixed-case and bracketed spellings, joins whose sides share a
column name, a self-join without aliases (two columns of one ``(qualifier,
name)``: the first wins by name, so both read the left side), views,
subquery and SHAPE sources (columns known only at open), empty results,
``TOP n``, streamed and blocking shapes — each through ``execute`` and
``execute_stream``, on a memory store and on a paged store with one buffer
page.  The hypothesis budget comes from the profile (25 in tier-1, 2,000
under ``--hypothesis-profile=deep``).
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.datagen import WarehouseConfig, load_warehouse
from repro.lang import ast_nodes as ast
from repro.lang.parser import parse_statement
from repro.server.protocol import rowset_dump
from repro.sqlstore import values as V
from repro.sqlstore.engine import Database, _row_key
from repro.sqlstore.rowset import Rowset, RowsetColumn
from repro.sqlstore.types import TABLE, TEXT, infer_type

from tests.reference.reference_evaluator import (
    reference_context,
    reference_evaluate,
)
from tests.sqlstore.test_ordered_input_differential import (
    benchmark_statements,
)

SETUP = [
    "CREATE TABLE T1 (a INT, b TEXT, [Mixed Case] DOUBLE)",
    "INSERT INTO T1 VALUES (1, 'x', 1.5), (2, NULL, 2.5), (2, 'y', NULL), "
    "(3, 'x', 0.5), (NULL, 'z', 4.0), (5, 'w', 2.5), (7, 'x', 1.5)",
    "CREATE TABLE T2 (a INT, c TEXT, k INT)",
    "INSERT INTO T2 VALUES (2, 'p', 1), (2, 'q', 3), (3, NULL, 3), "
    "(4, 'r', 5), (NULL, 's', 7), (7, 'p', 7)",
    "CREATE TABLE Nothing (a INT, b TEXT)",
    "CREATE VIEW V1 AS SELECT a, b AS bee, [Mixed Case] FROM T1 "
    "WHERE a IS NOT NULL",
    "CREATE VIEW V2 AS SELECT * FROM T2",
]

SHAPE = ("(SHAPE {SELECT a, c FROM T2 WHERE a IS NOT NULL ORDER BY a} "
         "APPEND ({SELECT a, b FROM T1 WHERE a IS NOT NULL ORDER BY a} "
         "RELATE a TO a) AS kids) AS sh")

# FROM clause -> the (qualifier, column) pairs a statement may spell.
SOURCES = {
    "T1": [("T1", "a"), ("T1", "b"), ("T1", "Mixed Case")],
    "T1 AS x": [("x", "a"), ("x", "b"), ("x", "Mixed Case")],
    "Nothing": [("Nothing", "a"), ("Nothing", "b")],
    "T1 INNER JOIN T2 ON T1.a = T2.a": [
        ("T1", "a"), ("T1", "b"), ("T2", "a"), ("T2", "c"), ("T2", "k")],
    "T1 AS l LEFT JOIN T2 AS r ON l.a = r.k": [
        ("l", "a"), ("l", "Mixed Case"), ("r", "a"), ("r", "c"), ("r", "k")],
    "T2 CROSS JOIN Nothing": [("T2", "a"), ("Nothing", "a")],
    # No aliases: both sides are ("T1", ...) and the first wins by name.
    "T1 INNER JOIN T1 ON T1.a = T1.a": [
        ("T1", "a"), ("T1", "b"), ("T1", "Mixed Case")],
    "V1": [("V1", "a"), ("V1", "bee"), ("V1", "Mixed Case")],
    "V2 AS v": [("v", "a"), ("v", "c"), ("v", "k")],
    "(SELECT b, a, [Mixed Case] AS m FROM T1) AS s": [
        ("s", "b"), ("s", "a"), ("s", "m")],
    "(SELECT * FROM T2 WHERE k > 1) AS s": [
        ("s", "a"), ("s", "c"), ("s", "k")],
    SHAPE: [("sh", "a"), ("sh", "c"), ("sh", "kids")],
}
NUMERIC = {"a", "k", "Mixed Case", "m"}


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    """The catalog on a memory store and on a paged store with a one-page
    pool and pages a few rows wide."""
    conns = {
        "memory": repro.connect(),
        "paged": repro.connect(
            storage_path=str(tmp_path_factory.mktemp("position_binding")),
            buffer_pages=1, storage_page_bytes=128),
    }
    for conn in conns.values():
        for statement in SETUP:
            conn.execute(statement)
    yield conns
    for conn in conns.values():
        conn.close()


# -- generated statements ----------------------------------------------------------

def _spell(draw, qualifier, name, qualify):
    """One spelling of a column reference: bracketed or bare, any case."""
    def part(text):
        text = draw(st.sampled_from([text, text.upper(), text.lower()]))
        bracket = " " in text or draw(st.booleans())
        return f"[{text}]" if bracket else text
    if qualify:
        return f"{part(qualifier)}.{part(name)}"
    return part(name)


@st.composite
def selects(draw):
    source = draw(st.sampled_from(sorted(SOURCES)))
    columns = SOURCES[source]
    qualifiers = sorted({qualifier for qualifier, _ in columns})

    def column(qualify=None):
        qualifier, name = draw(st.sampled_from(columns))
        qualify = draw(st.booleans()) if qualify is None else qualify
        return _spell(draw, qualifier, name, qualify), name

    def item():
        kind = draw(st.sampled_from(
            ["star", "qualified star", "plain", "plain", "plain",
             "aliased", "expression"]))
        if kind == "star":
            return "*"
        if kind == "qualified star":
            return f"{draw(st.sampled_from(qualifiers))}.*"
        text, name = column()
        if kind == "plain":
            return text
        if kind == "aliased":
            return f"{text} AS {draw(st.sampled_from(['z', 'a', '[My Col]']))}"
        if name == "kids":
            return "7"
        return draw(st.sampled_from(
            [f"{text} IS NULL", f"{text} + 1" if name in NUMERIC
             else f"UPPER({text})", "7", "NULL"]))

    items = [item() for _ in range(draw(st.integers(1, 4)))]
    top = draw(st.sampled_from([None, None, 0, 1, 3]))
    distinct = draw(st.booleans()) and source != SHAPE
    text = "SELECT " + ("DISTINCT " if distinct else "") + \
        (f"TOP {top} " if top is not None else "") + ", ".join(items) + \
        f" FROM {source}"
    filters = [None, "1 = 0"]
    filters += [f"{column(True)[0]} {test}"
                for test in ("IS NOT NULL", "IS NULL")]
    where = draw(st.sampled_from(filters))
    if where is not None:
        text += f" WHERE {where}"
    orderable = [pair for pair in columns if pair[1] != "kids"]
    keys = draw(st.lists(st.sampled_from(orderable), max_size=2))
    if keys:
        text += " ORDER BY " + ", ".join(
            _spell(draw, qualifier, name, True) +
            draw(st.sampled_from(["", " DESC"]))
            for qualifier, name in keys)
    return text


# -- the oracle ----------------------------------------------------------------------

def expected_rowset(database: Database, select) -> Rowset:
    relation = database.resolve_table_ref(select.from_clause)
    context = relation.context()
    context.subquery_executor = database.execute_select

    def interpret(expr, row):
        return reference_evaluate(expr, reference_context(context, row))

    items = []      # (expression, output name)
    for ordinal, item in enumerate(select.select_list):
        if isinstance(item.expr, ast.Star):
            star = item.expr.qualifier
            items += [
                (ast.ColumnRef(parts=(q, name) if q else (name,)), name)
                for q, name in relation.names()
                if star is None or (q or "").upper() == star.upper()]
        else:
            items.append((item.expr, item.alias or (
                item.expr.name if isinstance(
                    item.expr, (ast.ColumnRef, ast.FuncCall))
                else f"Expr{ordinal + 1}")))

    sources = [row for row in relation.rows if select.where is None
               or interpret(select.where, row) is True]
    outputs = [tuple(interpret(expr, row) for expr, _ in items)
               for row in sources]

    order = list(range(len(outputs)))
    if select.distinct:
        seen, order = set(), []
        for index, row in enumerate(outputs):
            if _row_key(row) not in seen:
                seen.add(_row_key(row))
                order.append(index)
    # Stable, last key first.  Every generated key is qualified, so it
    # reads the source row whatever the output columns are called.
    for key in reversed(select.order_by):
        order.sort(key=lambda index: V.sort_key(
            interpret(key.expr, sources[index])),
            reverse=not key.ascending)
    rows = [outputs[index] for index in order]
    if select.top is not None:
        rows = rows[:select.top]

    columns = []
    for position, (expr, name) in enumerate(items):
        declared = context.resolve_index(expr.parts) \
            if isinstance(expr, ast.ColumnRef) else None
        if declared is not None:
            source = relation.columns[declared][1]
            columns.append(RowsetColumn(
                name, source.type, nested_columns=source.nested_columns))
            continue
        # The result's first non-NULL value, wherever it stands.
        sample = next((row[position] for row in rows
                       if row[position] is not None), None)
        if isinstance(sample, Rowset):
            columns.append(RowsetColumn(
                name, TABLE, nested_columns=list(sample.columns)))
        else:
            columns.append(RowsetColumn(
                name, TEXT if sample is None else infer_type(sample)))
    return Rowset(columns, rows)


@settings(deadline=None,
          max_examples=settings.default.max_examples * 4)  # ~2 ms each
@given(text=selects(), store=st.sampled_from(["memory", "paged"]),
       streamed=st.booleans())
def test_bound_by_position_equals_evaluated_by_name(stores, text, store,
                                                    streamed):
    conn = stores[store]
    result = (conn.execute_stream(text, batch_size=2).materialize()
              if streamed else conn.execute(text))
    expected = expected_rowset(conn.database, parse_statement(text))
    assert rowset_dump(result) == rowset_dump(expected), text


# -- fixed cases ----------------------------------------------------------------------

@pytest.mark.parametrize("text, rows", [
    # Two columns of one (qualifier, name): the first wins, both halves of
    # ``*`` show the left side — by name before, by name now.
    # (The row joined on the right is (3, NULL, 3).)
    ("SELECT * FROM T2 INNER JOIN T2 ON T2.k = T2.a WHERE T2.c = 'q'",
     [(2, "q", 3, 2, "q", 3)]),
    ("SELECT T2.* FROM T2 INNER JOIN T2 ON T2.k = T2.a WHERE T2.c = 'q'",
     [(2, "q", 3, 2, "q", 3)]),
    # Aliased sides are two qualifiers: each half reads its own side.
    ("SELECT * FROM T2 AS l INNER JOIN T2 AS r ON l.k = r.a "
     "WHERE l.c = 's'", [(None, "s", 7, 7, "p", 7)]),
    ("SELECT r.*, l.c FROM T2 AS l INNER JOIN T2 AS r ON l.k = r.a "
     "WHERE l.c = 's'", [(7, "p", 7, "s")]),
    # One plain column is a 1-tuple per row, not a scalar.
    ("SELECT c FROM T2 WHERE k = 5", [("r",)]),
    ("SELECT k, k, a FROM T2 WHERE c = 'r'", [(5, 5, 4)]),
])
def test_fixed_shapes(stores, text, rows):
    for conn in stores.values():
        assert conn.execute(text).rows == rows
        assert list(conn.execute_stream(text, batch_size=1)) == rows


@pytest.mark.parametrize("store", ["memory", "paged"])
def test_a_result_is_never_the_table_s_own_list(stores, store):
    """The identity projection hands on the producer's per-batch list —
    a slice, a fetch or a page copy — never the store's own: emptying a
    result, or a streamed batch, leaves the table alone."""
    conn = stores[store]
    before = rowset_dump(conn.execute("SELECT * FROM T1"))
    conn.execute("SELECT * FROM T1").rows.clear()
    conn.execute("SELECT * FROM T1 ORDER BY T1.a").rows.clear()
    for batch in conn.execute_stream("SELECT * FROM T1",
                                     batch_size=100).batches():
        assert all(type(row) is tuple for row in batch)
        batch.clear()
    assert rowset_dump(conn.execute("SELECT * FROM T1")) == before
    assert len(conn.database.table("T1")) == 7


def test_benchmark_texts_take_the_routine_expected_of_them(monkeypatch):
    """Which routine each of the benchmark's relational texts takes: the
    seek and the range hand rows on untouched, the scans that project
    plain columns pick them by position, the grouped scan compiles (and
    its shape asks, once, which column its plain item declares)."""
    statements = benchmark_statements()
    conn = repro.connect()
    try:
        load_warehouse(conn.database, WarehouseConfig(customers=60, seed=7))
        for index in statements.SQL_INDEXES:
            conn.execute(index)
        taken = []
        source_positions = Database._source_positions

        def spy(expanded, context):
            positions = source_positions(expanded, context)
            taken.append(positions)
            return positions
        monkeypatch.setattr(Database, "_source_positions", staticmethod(spy))
        texts = dict((kind, text)
                     for kind, text, _ in statements.SCAN_SHAPES)
        generated = statements.SqlStatements(7, 60, 1, 1, 1).round(0)
        texts.update((op.kind, op.text) for op in generated
                     if op.kind in ("seek", "range"))
        routines = {}
        for kind, text in texts.items():
            del taken[:]
            conn.execute(text)
            routines[kind] = list(taken)
        customers = len(conn.database.table("Customers").schema)
        sales = len(conn.database.table("Sales").schema)
        assert routines == {
            "scan_filter": [[0, 3]],      # [Customer ID], Age
            "scan_like": [[0, 2]],        # CustID, Quantity
            "scan_group": [[3, None, None]],    # [Product Type]; compiles
            "scan_join": [[0, customers + 1]],    # c.[Customer ID],
            "scan_top": [[0, 3]],                 # s.[Product Name]
            "seek": [list(range(customers))],     # SELECT *: the source's
            "range": [list(range(sales))],        # own order, untouched
        }
        # A statement of a shape already prepared asks nothing again.
        del taken[:]
        conn.execute(texts["scan_group"])
        assert taken == []
    finally:
        conn.close()
