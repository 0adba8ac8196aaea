"""Differential harness: compiled closures vs the reference interpreter.

``compile_expression(e, ctx)(row)`` must equal ``evaluate(e,
ctx.with_row(row))`` — the same value of the same type, or the same error
class with the same message — for

(i)  every WHERE / select-list / GROUP BY / ORDER BY / ON expression (and
     every aggregate argument) of the fixed statement grid, over the rows
     the grid's own FROM clauses produce, and
(ii) expression trees drawn by hypothesis over a four-column row of mixed
     ``None/bool/int/float/str/date`` values.

The one sanctioned difference is *when* names bind: the compiler raises
``BindError`` once, up front; the interpreter raises it on every row that
reaches the node.

The example budget of (ii) comes from the hypothesis profile
(``tests/conftest.py``): 100 in tier-1, 2,000 under
``--hypothesis-profile=deep``.
"""

import datetime

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import BindError, Error
from repro.lang import ast_nodes as ast
from repro.lang.parser import parse_statement
from repro.sqlstore.engine import Database, _children
from repro.sqlstore.expressions import (
    EvalContext,
    compile_expression,
    contains_aggregate,
    evaluate,
    is_aggregate_call,
)

from tests.differential.test_stream_vs_materialize import STATEMENTS, _load

JOIN_SIDE_ROWS = 45     # ON expressions see a 45 x 45 corner of the product


def outcome(thunk):
    """What a path produced: the value with its type, or the provider
    error.  Anything else — a raw Python exception would escape every
    ``except Error`` boundary above the engine — fails the test."""
    try:
        value = thunk()
    except Error as exc:
        return ("raised", type(exc).__name__, str(exc))
    return ("value", type(value).__name__, value)


def assert_paths_agree(expr, context, rows):
    interpreted = [outcome(lambda: evaluate(expr, context.with_row(row)))
                   for row in rows]
    try:
        compiled = compile_expression(expr, context)
    except BindError as exc:
        # Bound once instead of per row: every row must have failed so.
        assert interpreted, "bind error with no row to compare against"
        assert set(interpreted) == {("raised", "BindError", str(exc))}
        return
    assert [outcome(lambda: compiled(row)) for row in rows] == interpreted


# -- (i) the statement grid ---------------------------------------------------------

@pytest.fixture(scope="module")
def grid_db():
    database = Database()
    _load(database)
    return database


def _selects(statement):
    """Every SELECT block reachable from a statement: UNION branches,
    FROM-clause subqueries, and subqueries inside expressions."""
    if isinstance(statement, ast.UnionStatement):
        for branch in statement.branches:
            yield from _selects(branch)
        return
    yield statement
    pending = [statement.from_clause]
    while pending:
        ref = pending.pop()
        if isinstance(ref, ast.SubquerySource):
            yield from _selects(ref.select)
        elif isinstance(ref, ast.Join):
            pending += [ref.left, ref.right]
    if isinstance(statement.where, ast.InSelect):
        yield from _selects(statement.where.select)


def _joins(ref):
    if isinstance(ref, ast.Join):
        yield from _joins(ref.left)
        yield from _joins(ref.right)
        if ref.condition is not None:
            yield ref


def _per_row_expressions(select):
    """The expressions the engine evaluates per source row.  Aggregate
    calls are evaluated per group, over substituted literals; what runs
    per row is their argument."""
    roots = [item.expr for item in select.select_list
             if not isinstance(item.expr, ast.Star)]
    roots += [select.where, select.having]
    roots += select.group_by
    roots += [item.expr for item in select.order_by]
    for root in roots:
        if root is None:
            continue
        if not contains_aggregate(root):
            yield root
            continue
        pending = [root]
        while pending:
            node = pending.pop()
            if is_aggregate_call(node):
                yield from (arg for arg in node.args
                            if not isinstance(arg, ast.Star))
            elif contains_aggregate(node):
                pending += _children(node)


@pytest.mark.parametrize("statement", STATEMENTS)
def test_grid_expressions_agree(grid_db, statement):
    checked = 0
    for select in _selects(parse_statement(statement)):
        relation = grid_db.resolve_table_ref(select.from_clause)
        context = relation.context()
        context.subquery_executor = grid_db.execute_select
        for expr in _per_row_expressions(select):
            assert_paths_agree(expr, context, relation.rows)
            checked += 1
        for join in _joins(select.from_clause):
            left = grid_db.resolve_table_ref(join.left)
            right = grid_db.resolve_table_ref(join.right)
            joined = EvalContext.from_columns(left.names() + right.names())
            rows = [l + r for l in left.rows[:JOIN_SIDE_ROWS]
                    for r in right.rows[:JOIN_SIDE_ROWS]]
            assert_paths_agree(join.condition, joined, rows)
            checked += 1
    # ``SELECT *`` / ``SELECT TOP n *`` carry no expression of their own.
    assert checked or "*" in statement


# -- (ii) generated expression trees ------------------------------------------------

COLUMNS = ["a", "b", "c", "d"]

VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([-1.5, 0.0, 1.0, 2.5]),
    st.sampled_from(["", "a", "A", "ab", "a%", "_b", "1", "x\ny", "(a|b)*"]),
    st.sampled_from([datetime.date(2001, 4, 2), datetime.date(1999, 12, 31)]),
)

COMPARISONS = ["=", "<>", "<", "<=", ">", ">="]
ARITHMETIC = ["+", "-", "*", "/", "||"]

# name -> arities worth drawing (one of them wrong on purpose for LEN).
FUNCTIONS = {"UPPER": (1,), "LEN": (1, 2), "ABS": (1,), "ROUND": (1, 2),
             "SQRT": (1,), "MOD": (2,), "COALESCE": (1, 2, 3),
             "NULLIF": (2,), "IIF": (3,), "CONCAT": (2,),
             "SUBSTRING": (3,), "CAST_DOUBLE": (1,)}

SUBQUERIES = [parse_statement(text) for text in (
    "SELECT v FROM S",                      # has a NULL
    "SELECT v FROM S WHERE v IS NOT NULL",
    "SELECT v FROM S WHERE v = 2",          # exactly one row
    "SELECT v FROM Nothing",
    "SELECT v, v FROM S",                   # two columns: an error
)]


@pytest.fixture(scope="module")
def subquery_db():
    database = Database()
    database.execute("CREATE TABLE S (v INT)")
    database.execute("INSERT INTO S VALUES (1), (2), (NULL), (3)")
    database.execute("CREATE TABLE Nothing (v INT)")
    return database


def _column_refs():
    return st.builds(
        lambda name, qualified: ast.ColumnRef(
            parts=("t", name) if qualified else (name,)),
        st.sampled_from(COLUMNS), st.booleans())


def _extend(children):
    flags = st.booleans()
    calls = st.sampled_from(sorted(FUNCTIONS)).flatmap(
        lambda name: st.builds(
            ast.FuncCall, st.just(name),
            st.sampled_from(FUNCTIONS[name]).flatmap(
                lambda arity: st.lists(children, min_size=arity,
                                       max_size=arity))))
    return st.one_of(
        st.builds(ast.BinaryOp, st.sampled_from(["AND", "OR"]), children,
                  children),
        st.builds(ast.BinaryOp, st.sampled_from(COMPARISONS), children,
                  children),
        st.builds(ast.BinaryOp, st.sampled_from(ARITHMETIC), children,
                  children),
        st.builds(ast.UnaryOp, st.sampled_from(["NOT", "-"]), children),
        st.builds(ast.IsNull, children, flags),
        st.builds(ast.InList, children,
                  st.lists(children, min_size=1, max_size=3), flags),
        st.builds(ast.Between, children, children, children, flags),
        st.builds(ast.Like, children, children, flags),
        st.builds(ast.Case,
                  st.lists(st.tuples(children, children), min_size=1,
                           max_size=2),
                  st.one_of(st.none(), children)),
        calls,
        st.builds(ast.InSelect, children, st.sampled_from(SUBQUERIES),
                  flags),
    )


# The root is always an operator (a bare leaf compares nothing), and the
# rows are many per tree: drawing values is cheaper than drawing trees.
EXPRESSIONS = _extend(st.recursive(
    st.one_of(st.builds(ast.Literal, VALUES), _column_refs(),
              _column_refs(),
              st.builds(ast.SubSelect, st.sampled_from(SUBQUERIES))),
    _extend, max_leaves=6))

ROWS = st.tuples(*[VALUES] * len(COLUMNS))


@settings(deadline=None)
@given(expr=EXPRESSIONS, rows=st.lists(ROWS, min_size=4, max_size=12))
def test_generated_expressions_agree(subquery_db, expr, rows):
    context = EvalContext.from_names(COLUMNS, "t")
    context.subquery_executor = subquery_db.execute_select
    assert_paths_agree(expr, context, rows)
