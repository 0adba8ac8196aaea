"""Differential harness: compiled closures vs the reference interpreter.

The interpreter left ``src/`` when the compiler became the only evaluator;
it is ``tests/reference/reference_evaluator.py`` (``evaluate`` in
``repro.sqlstore.expressions`` is the compiler's one-shot spelling now, so
comparing against *it* would compare the compiler with itself).

``compile_expression(e, ctx)(row)`` must equal ``reference_evaluate(e,
reference_context(ctx, row))`` — the same value of the same type, or the
same error class with the same message — for

(i)   every WHERE / select-list / GROUP BY / ORDER BY / ON expression (and
      every aggregate argument) of the fixed statement grid, over the rows
      the grid's own FROM clauses produce,
(ii)  expression trees drawn by hypothesis over a four-column row of mixed
      ``None/bool/int/float/str/date`` values, and predicate trees whose
      comparisons, BETWEEN and IN lists set a column beside literals (the
      typed kernels of ``values.comparator``) over edge values, and
(iii) what a grouped SELECT evaluates per group — HAVING, the select list,
      ORDER BY: the engine binds them once over a group context, the
      oracle rewrites the tree per group with the aggregates substituted
      (``reference_substitute``) and interprets it, aggregating with the
      per-row accumulators.  A fixed grid of grouped statements,
      hypothesis-drawn post-aggregate trees and generated COUNT(*) / SUM
      buckets, and
(iv)  a WHERE selected a batch at a time (``compile_selection``: one
      kernel per column-against-literals conjunct, in C over a column of
      the literal's class) vs the WHERE interpreted row by row: the same
      rows, or the same error, over random batches whose columns are all
      numbers, all strings, all dates or mixed — and a hash join's
      residual, each probe row's candidate pairs selected as one batch, vs
      its ON interpreted pair by pair.

The one sanctioned difference is *when* names bind: the compiler raises
``BindError`` once, up front; the interpreter raises it on every row that
reaches the node.

The example budgets of (ii) and (iii) come from the hypothesis profile
(``tests/conftest.py``): 25 in tier-1, 2,000 under
``--hypothesis-profile=deep``.
"""

import datetime
import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import BindError, Error
from repro.lang import ast_nodes as ast
from repro.lang.parser import parse_expression, parse_statement
from repro.sqlstore import values as V
from repro.obs.explain import PlanNode
from repro.sqlstore.engine import Database, SourceRelation, _multi_key_sort
from repro.sqlstore.expressions import (
    EvalContext,
    compile_expression,
    compile_selection,
    contains_aggregate,
    is_aggregate_call,
)
from repro.sqlstore.rowset import RowsetColumn
from repro.sqlstore.types import TEXT

from tests.differential.test_stream_vs_materialize import STATEMENTS, _load
from tests.reference.reference_aggregates import make_aggregate
from tests.reference.reference_evaluator import (
    reference_context,
    reference_evaluate,
    reference_substitute,
)

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
    interpreted = [
        outcome(lambda: reference_evaluate(expr,
                                           reference_context(context, row)))
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
                pending += ast.children(node)


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


# Comparisons, BETWEEN and IN lists with literal operands compile to typed
# kernels (``values.comparator``) that decide the literal's class once and
# send every value of another class down the generic path.  These trees
# put a column beside a literal on either side of every such operator,
# under AND / OR / NOT, over values that sit on the kernels' edges: NaN,
# the infinities, -0.0, ints past 2**53, bools beside 0 and 1, dates,
# strings that spell numbers, NULL.  (No arithmetic: these values would
# only test Python's.)
nan, inf = float("nan"), float("inf")

EDGE_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2),
    st.sampled_from([0.0, -0.0, 1.0, 2.5, nan, inf, -inf]),
    st.sampled_from([2 ** 53, 2 ** 53 + 1, -2 ** 53 - 1, 2 ** 60,
                     float(2 ** 53)]),
    st.sampled_from(["", "a", "1", "1.0", "True", "nan", "2001-04-02"]),
    st.sampled_from([datetime.date(2001, 4, 2), datetime.date(1999, 12, 31)]),
)


def _kernel_leaves():
    columns, literals = _column_refs(), st.builds(ast.Literal, EDGE_VALUES)
    flags = st.booleans()
    return st.one_of(
        st.builds(ast.BinaryOp, st.sampled_from(COMPARISONS), columns,
                  literals),
        st.builds(ast.BinaryOp, st.sampled_from(COMPARISONS), literals,
                  columns),
        st.builds(ast.Between, columns, literals, literals, flags),
        st.builds(ast.InList, columns,
                  st.lists(literals, min_size=1, max_size=4), flags),
        columns,    # a bare operand of AND / OR / NOT: through _as_bool
    )


PREDICATES = st.recursive(_kernel_leaves(), lambda children: st.one_of(
    st.builds(ast.BinaryOp, st.sampled_from(["AND", "OR"]), children,
              children),
    st.builds(ast.UnaryOp, st.just("NOT"), children)), max_leaves=4)


@settings(deadline=None)
@given(expr=PREDICATES, rows=st.lists(st.tuples(*[EDGE_VALUES] * 4),
                                      min_size=4, max_size=12))
def test_literal_kernels_agree(expr, rows):
    assert_paths_agree(expr, EvalContext.from_names(COLUMNS, "t"), rows)


@pytest.mark.parametrize("text", [
    "t.a = 9007199254740993", "9007199254740993.0 = t.a", "t.a <> -0.0",
    "t.a >= 1", "1 <= t.a", "t.a > 'x'", "'x' < t.a", "t.a < '1'",
    "t.a BETWEEN 0 AND 2", "t.a NOT BETWEEN 'a' AND 'z'",
    "t.a BETWEEN NULL AND 3", "t.a IN (1, 'True', NULL)",
    "t.a NOT IN (2.5, 0)", "t.a IN ('1', 'a')",
])
def test_literal_kernels_over_the_edges(text):
    """Every edge value against the fixed kernels (NaN and the other
    floats are not literals SQL text can spell)."""
    values = [None, True, False, 0, 1, 2, 2 ** 53 + 1, -2 ** 60, 0.0,
              -0.0, 1.0, 2.5, nan, inf, -inf, "", "1", "True", "a", "z",
              datetime.date(2001, 4, 2)]
    rows = [(value, None, None, None) for value in values]
    assert_paths_agree(parse_expression(text),
                       EvalContext.from_names(COLUMNS, "t"), rows)


# -- (iv) a WHERE a batch at a time -------------------------------------------------

# Numbers past 2**53 and at the float's edge, NaN, the infinities; strings
# with newlines and the two non-ASCII letters that fold to ASCII ones
# under IGNORECASE (long s, Kelvin sign).
NUMBER_EDGES = st.one_of(st.integers(-2, 2), st.sampled_from(
    [0.0, -0.0, 2.5, nan, inf, -inf, 1e308, 1.7976931348623157e308, -1e308,
     2 ** 53 + 1, float(2 ** 53), 2 ** 53, -2 ** 60]))
TEXT_EDGES = st.sampled_from(["", "a", "b", "B", "Bx", "B\nx", "a\nb", "x\n",
                              "s", "S", "\u017f", "k", "K", "\u212a", "1",
                              "2.5", "%", "_"])
DATES = st.sampled_from([datetime.date(2001, 4, 2),
                         datetime.date(1999, 12, 31)])
MIXED_EDGES = st.one_of(st.none(), st.booleans(), NUMBER_EDGES, TEXT_EDGES,
                        DATES)
# A column is all of one class (a kernel's native batch) or mixed.
COLUMN_CLASSES = [NUMBER_EDGES, TEXT_EDGES, DATES, MIXED_EDGES,
                  st.one_of(st.none(), NUMBER_EDGES)]
PATTERNS = st.sampled_from(["b%", "%x", "_", "B_x", "b%X", "s", "k%", "%\n%",
                            "a_b", "%", "", "\u017f", "\u212a", "1%", "%.%"])


@st.composite
def selection_batches(draw):
    size = draw(st.integers(0, 12))
    columns = [draw(st.lists(draw(st.sampled_from(COLUMN_CLASSES)),
                             min_size=size, max_size=size))
               for _ in COLUMNS]
    return list(zip(*columns))


def _selection_conjuncts():
    columns, flags = _column_refs(), st.booleans()
    literals = st.builds(ast.Literal, MIXED_EDGES)
    return st.one_of(
        st.builds(ast.BinaryOp, st.sampled_from(COMPARISONS), columns,
                  literals),
        st.builds(ast.BinaryOp, st.sampled_from(COMPARISONS), literals,
                  columns),
        st.builds(ast.Between, columns, literals, literals, flags),
        st.builds(ast.InList, columns,
                  st.lists(literals, min_size=1, max_size=4), flags),
        st.builds(ast.Like, columns, st.builds(ast.Literal, PATTERNS), flags),
        st.builds(ast.IsNull, columns, flags),
    )


# Conjuncts no kernel takes: some raise on a number, a bool or a date.
OTHER_CONJUNCTS = st.sampled_from([parse_expression(text) for text in (
    "t.a + 'x' > 0", "SQRT(t.b) > 1", "t.c = t.d", "NOT t.a IS NULL",
    "t.d", "1 = 1")])


def assert_selection_agrees(conjuncts, rows):
    """``compile_selection(conjuncts)`` over ``rows`` selects the rows —
    and, given tags, the positions — the AND of ``conjuncts`` interpreted
    row by row holds True for, or raises what the interpreter raises; so
    does each row read as a batch of its own, as a point seek reads it."""
    context = EvalContext.from_names(COLUMNS, "t")
    where = functools.reduce(functools.partial(ast.BinaryOp, "AND"),
                             conjuncts)

    def interpreted(batch, tags):
        return outcome(lambda: [
            tag for tag, row in zip(tags, batch)
            if reference_evaluate(where, reference_context(context, row))
            is True])
    select = compile_selection(conjuncts, context)
    tags = range(7, 7 + len(rows))
    expected = interpreted(rows, tags)
    assert outcome(lambda: select(rows, tags)) == expected
    if expected[0] == "value":
        assert select(rows) == [rows[tag - 7] for tag in expected[2]]
    for tag, row in zip(tags, rows):
        assert outcome(lambda: select([row], [tag])) == \
            interpreted([row], [tag])


@settings(deadline=None)
@given(conjuncts=st.lists(st.one_of(_selection_conjuncts(),
                                    _selection_conjuncts(), OTHER_CONJUNCTS),
                          min_size=1, max_size=4),
       rows=selection_batches())
def test_batch_selection_agrees_with_the_row_closure(conjuncts, rows):
    assert_selection_agrees(conjuncts, rows)


def assert_join_residual_agrees(kind, residual, left, right):
    """``L AS t {kind} JOIN R AS t ON t.k = t.j AND residual`` — a hash
    join on ``k = j`` whose residual selects each probe row's candidate
    pairs as one batch — vs the ON interpreted pair by pair over the pairs
    whose keys are equal (a LEFT JOIN pads a probe row none of them
    holds), probe row by probe row: the same rows, or the same error."""
    sides = {"L": (("k", "a", "b"), left), "R": (("j", "c", "d"), right)}

    def source(ref):
        if type(ref) is not ast.NamedTable:
            return None  # the join itself: the engine's
        names, rows = sides[ref.name]
        return PlanNode("rows", target=ref.name, open=lambda *_:
                        SourceRelation([(ref.alias, RowsetColumn(name, TEXT))
                                        for name in names], rows))
    key = ast.BinaryOp("=", ast.ColumnRef(("t", "k")),
                       ast.ColumnRef(("t", "j")))
    join = ast.Join(kind, ast.NamedTable("L", "t"), ast.NamedTable("R", "t"),
                    ast.conjoin([key] + residual))
    context = EvalContext.from_columns(
        [("t", name) for name in ("k", "a", "b", "j", "c", "d")])
    condition = ast.conjoin(residual)

    def interpreted():
        out = []
        for l in left:
            joined = [l + r for r in right
                      if l[0] is not None and l[0] == r[0]]
            held = [row for row in joined if reference_evaluate(
                condition, reference_context(context, row)) is True]
            out += held or ([l + (None,) * 3] if kind == "LEFT" else [])
        return out
    engine = Database(external_source=source)
    joined = outcome(lambda: engine.plan_table_ref(join).run(4).rows)
    assert joined == outcome(interpreted)
    return joined


KEYS = st.one_of(st.none(), st.integers(0, 3))


@settings(deadline=None)
@given(kind=st.sampled_from(["INNER", "LEFT"]),
       residual=st.lists(st.one_of(_selection_conjuncts(), OTHER_CONJUNCTS),
                         min_size=1, max_size=3),
       left=st.lists(st.tuples(KEYS, MIXED_EDGES, MIXED_EDGES), max_size=6),
       right=st.lists(st.tuples(KEYS, MIXED_EDGES, MIXED_EDGES), max_size=6))
def test_a_hash_joins_residual_agrees_with_the_on_per_pair(kind, residual,
                                                          left, right):
    assert_join_residual_agrees(kind, residual, left, right)


def test_a_hash_joins_residual_is_the_and_of_its_conjuncts():
    """A NULL conjunct does not stop an AND: the residual meets the raising
    conjunct beside it, as the nested loop and a WHERE do."""
    for text in ("t.a = 1 AND t.c + 'x' > 0", "t.c + 'x' > 0 AND t.a = 1"):
        joined = assert_join_residual_agrees(
            "INNER", ast.conjuncts(parse_expression(text)),
            [(1, None, None), (2, 5, None)], [(1, 3, None), (2, 4, None)])
        assert joined[:2] == ("raised", "TypeError_"), joined


@pytest.mark.parametrize("op", COMPARISONS)
@pytest.mark.parametrize("literal", [1, 1.0, 2 ** 53, float(2 ** 53), "b",
                                     None, True, datetime.date(2001, 4, 2)])
def test_every_comparison_kernel_over_the_edges(op, literal):
    """Each operator with the literal on either side, over a column of the
    literal's class (the kernel in C) and a mixed one (per value).  NaN
    passes ``>=`` and ``<=``: they are ``not <`` and ``not >``."""
    for column in ([nan, inf, -inf, 1e308, 0, 1, 1.0, 2 ** 53 + 1, -0.0],
                   ["", "a", "b", "B", "b\n", "\u212a"],
                   [None, nan, True, 1, "1", "b", datetime.date(2001, 4, 2),
                    2 ** 53 + 1]):
        rows = [(value, None, None, None) for value in column]
        for conjunct in (ast.BinaryOp(op, ast.ColumnRef(("a",)),
                                      ast.Literal(literal)),
                         ast.BinaryOp(op, ast.Literal(literal),
                                      ast.ColumnRef(("a",)))):
            assert_selection_agrees([conjunct], rows)


@pytest.mark.parametrize("text", [
    "t.a >= 1 AND 1 <= t.a", "t.a NOT BETWEEN 0 AND 2", "t.a BETWEEN 1 AND 2",
    "t.a NOT BETWEEN 'a' AND 'b'", "t.a BETWEEN 'a' AND 'b'",
    "t.a BETWEEN 0 AND 'z'", "t.a BETWEEN 9007199254740993 AND 1e308",
    "t.a NOT LIKE 'b%'", "t.a LIKE 'B_X'", "t.a LIKE 's'", "t.a LIKE 'k%'",
    "t.a NOT IN (1, NULL)", "t.a NOT IN ('b', NULL)", "t.a IN (1, 2.5)",
    "t.a NOT IN (0, 1)", "t.a IN ('b', 'B\nx')", "t.a IN (1, 'b')",
    "t.a IN (9007199254740993, 2.5)", "t.a NOT IN (9007199254740992.0)",
    "t.a IS NULL AND t.a IS NOT NULL", "t.a IS NOT NULL AND t.a <> 1",
    # a conjunct that raises beside kernel ones: the row closure decides
    "t.a = 1 AND t.a + 'x' > 0", "t.a + 'x' > 0 AND t.a = 99",
    "t.a IS NULL AND SQRT(t.a) > 1", "t.a <> 'b' AND SQRT(t.a) > 1",
])
def test_selection_forms_over_the_edges(text):
    """NOT BETWEEN, NOT LIKE, NOT IN with a NULL item, LIKE across a newline
    and under case folding, and a kernel conjunct beside one that raises."""
    columns = [[nan, inf, -inf, 1e308, 0, 1, 1.0, 2, 2.5, -1.5, 2 ** 53,
                2 ** 53 + 1, float(2 ** 53)],
               ["", "a", "b", "B\nx", "Bx", "S", "\u017f", "K", "\u212a"],
               [None, 1, "b", True, datetime.date(2001, 4, 2), 2.5, "B\nx"]]
    conjuncts = ast.conjuncts(parse_expression(text))
    for column in columns:
        assert_selection_agrees(
            conjuncts, [(value, None, None, None) for value in column])


@pytest.mark.parametrize("text", ["t.b + 'x' > 0 AND t.a = 99",
                                  "t.a = 99 AND t.b + 'x' > 0"])
def test_a_raising_conjunct_raises_where_a_kernel_rejects(text):
    """A kernel alone would reject the row (``t.a = 99`` is NULL for it),
    but NULL does not stop an AND: the row closure meets the raising
    conjunct on it, so the statement raises — before or after the
    kernel conjunct."""
    select = compile_selection(ast.conjuncts(parse_expression(text)),
                               EvalContext.from_names(COLUMNS, "t"))
    with pytest.raises(Error, match="operator"):
        select([(None, 1, None, None)])


# -- (iii) per-group expressions ----------------------------------------------------

def statement_outcome(thunk):
    """What a grouped SELECT produced: its rows (each cell with its type),
    or the provider error it raised."""
    try:
        rows = thunk()
    except Error as exc:
        return ("raised", type(exc).__name__, str(exc))
    # A float by its repr: -0.0 is not 0.0, and one NaN is another.
    return ("rows", [tuple((type(cell).__name__,
                            repr(cell) if type(cell) is float else cell)
                           for cell in row)
                     for row in rows])


def reference_grouped_rows(database, select):
    """The rows of a grouped SELECT, every expression interpreted — the
    per-group half of ``Database._execute_grouped`` as it stood before it
    bound HAVING, the select list and ORDER BY once over a group context:
    a copy of each tree per group with the group's aggregate values
    substituted as literals (``reference_substitute``), interpreted against
    the group's first row.  Rows are bucketed row by row and aggregated by
    the per-row accumulators (``reference_aggregates``); group keys and the
    sort are the engine's own: they are not what is compared.
    """
    relation = database.resolve_table_ref(select.from_clause)
    context = relation.context()
    context.subquery_executor = database.execute_select

    def interpret(expr, row):
        return reference_evaluate(expr, reference_context(context, row))

    rows = [row for row in relation.rows
            if select.where is None or interpret(select.where, row) is True]
    expanded = [(expr, name) for expr, name, _ in
                database._expand_select_list(select, relation.names())]
    roots = [expr for expr, _ in expanded] + [select.having] + \
        [item.expr for item in select.order_by]
    aggregate_nodes = []
    pending = [root for root in reversed(roots) if root is not None]
    while pending:
        node = pending.pop()
        if is_aggregate_call(node):
            aggregate_nodes.append(node)
        else:
            pending += reversed(ast.children(node))

    buckets = {}
    for row in rows:
        key = tuple(V.group_key(interpret(g, row)) for g in select.group_by)
        buckets.setdefault(key, []).append(row)
    if not select.group_by and not buckets:
        buckets[()] = []

    names = [name.upper() for _, name in expanded]
    output_rows, keys = [], []
    for bucket in buckets.values():
        values = {}
        for node in aggregate_nodes:
            counts_rows = not node.args or isinstance(node.args[0], ast.Star)
            accumulator = make_aggregate(node.name, count_rows=counts_rows,
                                         distinct=node.distinct)
            for row in bucket:
                accumulator.add(None if counts_rows
                                else interpret(node.args[0], row))
            values[id(node)] = accumulator.result()
        representative = bucket[0] if bucket else \
            tuple([None] * len(relation.columns))

        def per_group(expr, values=values, representative=representative):
            return interpret(reference_substitute(expr, values),
                             representative)

        if select.having is not None and \
                per_group(select.having) is not True:
            continue
        out_row = tuple(per_group(expr) for expr, _ in expanded)
        output_rows.append(out_row)
        keys.append((out_row, per_group))
    if select.order_by:
        sort_keys = [
            tuple(V.sort_key(
                out_row[names.index(item.expr.name.upper())]
                if isinstance(item.expr, ast.ColumnRef)
                and item.expr.name.upper() in names
                else per_group(item.expr))
                for item in select.order_by)
            for out_row, per_group in keys]
        output_rows = _multi_key_sort(
            output_rows, sort_keys,
            [item.ascending for item in select.order_by])
    return output_rows


def assert_grouped_paths_agree(database, select):
    interpreted = statement_outcome(
        lambda: reference_grouped_rows(database, select))
    compiled = statement_outcome(
        lambda: database.execute_select(select).rows)
    assert compiled == interpreted


@pytest.fixture(scope="module")
def grouped_db():
    database = Database()
    database.execute("CREATE TABLE T (g INT, k TEXT, a INT, b DOUBLE, "
                     "c TEXT)")
    database.execute(
        "INSERT INTO T VALUES "
        "(1, 'x', 5, 1.5, 'apple'), (1, 'y', NULL, 2.5, 'avocado'), "
        "(1, 'x', 7, NULL, NULL), (2, 'x', 3, 0.5, 'banana'), "
        "(2, 'y', 3, 4.0, 'Banana'), (NULL, 'x', 9, 9.5, 'cherry'), "
        "(NULL, NULL, NULL, NULL, NULL), (3, 'z', 0, -1.0, 'date')")
    database.execute("CREATE TABLE E (g INT, k TEXT, a INT, b DOUBLE, "
                     "c TEXT)")
    database.execute("CREATE TABLE S (v INT)")
    database.execute("INSERT INTO S VALUES (1), (2), (NULL), (3)")
    database.execute("CREATE TABLE Nothing (v INT)")
    # SUM adds a bucket's values left to right, so order and sign matter.
    database.execute("CREATE TABLE F (g INT, a INT, b DOUBLE)")
    database.execute(
        "INSERT INTO F VALUES (1, 3, 1e16), (1, NULL, 1.0), (1, -2, -1e16), "
        "(1, 4, 1.0), (2, NULL, -0.0), (2, NULL, -0.0), (3, 0, 0.0), "
        "(3, NULL, -0.0), (4, NULL, NULL), (NULL, 5, 0.1), (NULL, 6, 0.2)")
    return database


GROUPED_STATEMENTS = [
    # COUNT(*) and SUM, one call per bucket: NULLs, -0.0, int beside float
    "SELECT g, COUNT(*) AS n, SUM(a) AS sa, SUM(b) AS sb FROM F GROUP BY g",
    "SELECT g, SUM(CASE WHEN a > 0 THEN a ELSE b END) AS s FROM F "
    "GROUP BY g ORDER BY s DESC",
    "SELECT COUNT(*), SUM(b), SUM(a + b), SUM(a) FROM F",
    "SELECT g, COUNT(*), SUM(b) FROM F WHERE a IS NULL GROUP BY g",
    "SELECT g, COUNT(*) FROM F GROUP BY g HAVING SUM(b) = 0 "
    "ORDER BY COUNT(*) DESC, g",
    # aggregates beside the group key; HAVING; ORDER BY by name / by tree
    "SELECT g, COUNT(*) AS n FROM T GROUP BY g",
    "SELECT g, COUNT(*) AS n FROM T GROUP BY g HAVING COUNT(*) > 1",
    "SELECT g, SUM(a) AS s, AVG(b) AS m FROM T GROUP BY g "
    "HAVING SUM(a) IS NOT NULL ORDER BY s DESC",
    "SELECT g, k, COUNT(a) FROM T GROUP BY g, k ORDER BY g, k",
    "SELECT g AS grp, COUNT(*) AS n FROM T GROUP BY g ORDER BY n DESC, grp",
    "SELECT T.g, COUNT(*) AS n FROM T GROUP BY T.g ORDER BY T.g DESC",
    "SELECT g, COUNT(*) FROM T WHERE a IS NOT NULL GROUP BY g "
    "ORDER BY COUNT(*) DESC, g",
    "SELECT g, ROUND(AVG(b), 1) AS m, COALESCE(SUM(a), 0) + 1 AS s FROM T "
    "GROUP BY g ORDER BY COALESCE(SUM(a), 0) DESC, g",
    "SELECT g, MAX(a) - MIN(a) AS spread FROM T GROUP BY g "
    "HAVING MAX(a) - MIN(a) BETWEEN 0 AND 10 ORDER BY spread",
    # non-aggregated columns read the group's first row
    "SELECT g, c, COUNT(*) FROM T GROUP BY g",
    "SELECT g, UPPER(k) || '-' || c AS tag FROM T GROUP BY g ORDER BY tag",
    "SELECT * FROM T GROUP BY g HAVING COUNT(*) >= 2",
    # CASE, scalar functions, LIKE, IN lists over aggregates
    "SELECT CASE WHEN COUNT(*) > 2 THEN 'many' WHEN g IS NULL THEN 'null' "
    "ELSE UPPER(MIN(c)) END AS label FROM T GROUP BY g",
    "SELECT g, MIN(c) AS first FROM T GROUP BY g "
    "HAVING MIN(c) LIKE 'a%' OR g IS NULL",
    "SELECT g, COUNT(*) IN (1, 3) AS odd, IIF(SUM(a) > 5, 'hi', 'lo') "
    "FROM T GROUP BY g",
    "SELECT g, NOT (COUNT(a) = COUNT(*)) AS has_null, -SUM(a) AS neg "
    "FROM T GROUP BY g",
    # scalar and IN subqueries, aggregates on either side of them
    "SELECT g FROM T GROUP BY g HAVING COUNT(*) IN (SELECT v FROM S)",
    "SELECT g FROM T GROUP BY g "
    "HAVING COUNT(*) NOT IN (SELECT v FROM S WHERE v IS NOT NULL)",
    "SELECT g, COUNT(*) NOT IN (SELECT v FROM S) AS x FROM T GROUP BY g",
    "SELECT COUNT(*) IN (SELECT 8) AS x FROM T",
    "SELECT g, SUM(a) > (SELECT MAX(v) FROM S) AS big FROM T GROUP BY g",
    "SELECT g, (SELECT COUNT(*) FROM S) + COUNT(*) AS n FROM T GROUP BY g "
    "ORDER BY (SELECT MIN(v) FROM S) - COUNT(*), g",
    "SELECT g FROM T GROUP BY g HAVING g IN (SELECT v FROM Nothing)",
    # the empty-input global group, and no group at all
    "SELECT COUNT(*), SUM(a), MIN(c), MAX(b), AVG(a) FROM E",
    "SELECT COUNT(*) AS n, g, UPPER(c) FROM E",
    "SELECT COUNT(*) FROM E HAVING COUNT(*) = 0",
    "SELECT COUNT(*) FROM E HAVING COUNT(*) > 0",
    "SELECT g, COUNT(*) FROM E GROUP BY g ORDER BY COUNT(*)",
    "SELECT COUNT(*) FROM T WHERE g = 99",
    # DISTINCT aggregates, NULL groups and NULL keys
    "SELECT g, COUNT(DISTINCT k) AS d, COUNT(k) AS n FROM T GROUP BY g "
    "ORDER BY d, g",
    "SELECT COUNT(DISTINCT g), COUNT(DISTINCT a) + 0 FROM T",
    "SELECT k, g, COUNT(*) FROM T GROUP BY k, g HAVING k IS NULL OR g IS NULL",
    "SELECT a + 0 AS a0, COUNT(*) FROM T GROUP BY a + 0 ORDER BY a0 DESC",
    # values and errors alike: NULL from division by zero, a type error,
    # a wrong arity, a two-column scalar subquery, a non-boolean HAVING
    "SELECT g, COUNT(*) / (COUNT(*) - 2) AS q FROM T GROUP BY g",
    "SELECT g, MIN(c) + 1 AS bad FROM T GROUP BY g",
    "SELECT g, LEN(MIN(c), 2) FROM T GROUP BY g",
    "SELECT g, (SELECT v, v FROM S) FROM T GROUP BY g",
    "SELECT g FROM T GROUP BY g HAVING SUM(a)",
    "SELECT g FROM T GROUP BY g HAVING MIN(c)",
    "SELECT g FROM T GROUP BY g ORDER BY MIN(c) + 1",
]


@pytest.mark.parametrize("statement", GROUPED_STATEMENTS)
def test_grouped_grid_agrees(grouped_db, statement):
    assert_grouped_paths_agree(grouped_db, parse_statement(statement))


def test_grouped_grid_is_not_vacuous(grouped_db):
    produced = [statement_outcome(
        lambda: grouped_db.execute_select(parse_statement(statement)).rows)
        for statement in GROUPED_STATEMENTS]
    raised = [outcome for outcome in produced if outcome[0] == "raised"]
    assert 4 <= len(raised) <= 8
    assert sum(len(outcome[1]) for outcome in produced
               if outcome[0] == "rows") > 80


AGGREGATES = ["COUNT(*)", "COUNT(a)", "COUNT(DISTINCT k)", "SUM(a)",
              "SUM(a + 1)", "AVG(b)", "MIN(c)", "MAX(a)", "MIN(b)",
              "STDEV(b)"]

GROUP_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.sampled_from([-1.5, 0.0, 2.5]),
    st.sampled_from(["", "a", "A", "a%", "1"]))

GROUP_ROWS = st.tuples(
    st.one_of(st.none(), st.integers(1, 3)),                   # g
    st.one_of(st.none(), st.sampled_from(["x", "y"])),         # k
    st.one_of(st.none(), st.integers(-3, 3)),                  # a
    st.one_of(st.none(), st.sampled_from([-1.5, 0.0, 2.5])),   # b
    st.one_of(st.none(), st.sampled_from(["", "a", "A", "ab"])))  # c


SUM_ROWS = st.tuples(
    st.one_of(st.none(), st.integers(1, 3)),                          # g
    st.one_of(st.none(), st.integers(-3, 3),
              st.sampled_from([2 ** 53 + 1, -2 ** 53])),              # a
    st.one_of(st.none(), st.sampled_from(
        [-0.0, 0.0, 0.1, 0.2, 1.0, 1e16, -1e16, float("inf")])))      # b


@settings(deadline=None)
@given(rows=st.lists(SUM_ROWS, max_size=12), grouped=st.booleans())
def test_generated_count_and_sum_agree(grouped_db, rows, grouped):
    grouped_db.execute("CREATE TABLE G (g INT, a INT, b DOUBLE)")
    try:
        target = grouped_db.table("G")
        for row in rows:
            target.insert(list(row))
        select = parse_statement(
            "SELECT COUNT(*), SUM(a), SUM(b), SUM(a + b), "
            "SUM(CASE WHEN a > 0 THEN a ELSE b END), COUNT(b) FROM G"
            + (" GROUP BY g" if grouped else ""))
        assert_grouped_paths_agree(grouped_db, select)
    finally:
        grouped_db.execute("DROP TABLE G")


@st.composite
def post_aggregate_trees(draw):
    """One to three trees (select item, then maybe HAVING, maybe ORDER BY)
    over a shared pool of 1-3 aggregate calls, the group key, the first
    row's ``c``, literals and scalar subqueries.  The aggregate nodes are
    parsed per draw and shared by identity between the trees, as one
    parsed statement shares nothing but may repeat a spelling."""
    pool = [parse_expression(text) for text in draw(
        st.lists(st.sampled_from(AGGREGATES), min_size=1, max_size=3))]
    leaves = st.one_of(
        st.sampled_from(pool), st.sampled_from(pool),
        st.builds(ast.Literal, GROUP_VALUES),
        st.sampled_from([ast.ColumnRef(("g",)), ast.ColumnRef(("E", "c"))]),
        st.builds(ast.SubSelect, st.sampled_from(SUBQUERIES)))
    trees = _extend(st.recursive(leaves, _extend, max_leaves=5)).filter(
        contains_aggregate)
    return draw(trees), draw(st.one_of(st.none(), trees)), \
        draw(st.one_of(st.none(), trees))


@settings(deadline=None)
@given(trees=post_aggregate_trees(),
       rows=st.lists(GROUP_ROWS, max_size=10), grouped=st.booleans())
def test_generated_post_aggregate_trees_agree(grouped_db, trees, rows,
                                              grouped):
    table = grouped_db.table("E")
    try:
        for row in rows:
            table.insert(list(row))
        output, having, order = trees
        select = parse_statement(
            "SELECT g, 0 AS x FROM E GROUP BY g" if grouped
            else "SELECT 0 AS x FROM E")
        select.select_list[-1].expr = output
        select.having = having
        if order is not None:
            select.order_by = [ast.OrderItem(order, ascending=False)]
        assert_grouped_paths_agree(grouped_db, select)
    finally:
        table.truncate()
