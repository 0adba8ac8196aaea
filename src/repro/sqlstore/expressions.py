"""Expression evaluation for the relational engine.

One evaluator, one semantics (SQL three-valued logic from
:mod:`repro.sqlstore.values`): :func:`compile_expression` walks an AST from
:mod:`repro.lang.ast_nodes` **once**, when an operator opens, and returns a
``row -> value`` closure — column references are bound to ordinals,
functions to their handlers and LIKE literals to compiled regexes, so
binding errors surface before the first row is read.  :func:`evaluate` is
its one-shot spelling: compile, then call on ``context.row``.  A WHERE
compiles through :func:`compile_selection`, which filters a batch at a
time: a column-against-literals conjunct as a kernel over the batch's
column, any other WHERE as that closure per row.

A context decides what a column reference and a function call *mean*
through two compile-time hooks, :meth:`EvalContext.bind_column` and
:meth:`EvalContext.bind_function`.  The prediction join's context overrides
them, so a PREDICTION JOIN's WHERE and select list — model columns and
prediction UDFs included — compile through the same walk; so does the
engine's group context, for what a grouped SELECT evaluates per group.
"""

from __future__ import annotations

import functools
import operator
import re
from itertools import compress, repeat
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import BindError, Error, TypeError_
from repro.lang import ast_nodes as ast
from repro.sqlstore import values as V
from repro.sqlstore.functions import SCALAR_FUNCTIONS
from repro.sqlstore.indexes import LITERAL_VALUE
from repro.sqlstore.types import infer_type


class EvalContext:
    """Resolves names and functions during expression evaluation.

    ``columns`` maps *normalized* name tuples to row ordinals.  A reference
    ``t.[Age]`` is looked up as ``("T", "AGE")`` and ``Age`` as
    ``("AGE",)``: a qualified name never falls back to its bare name.
    """

    def __init__(self, columns: Dict[Tuple[str, ...], int],
                 row: Optional[tuple] = None):
        self.columns = columns
        self.row = row
        # Executes an uncorrelated subquery (SelectStatement) -> Rowset;
        # supplied by the engine.  Results are cached per statement node
        # since correlated subqueries are not supported.
        self.subquery_executor = None
        self._subquery_cache: Dict[int, Any] = {}

    @classmethod
    def from_columns(cls, columns) -> "EvalContext":
        """Build a context over ``(qualifier, name)`` pairs: each column
        resolves by its bare name and, when qualified, by
        ``qualifier.name``; the first column of a name wins."""
        mapping: Dict[Tuple[str, ...], int] = {}
        for index, (qualifier, name) in enumerate(columns):
            mapping.setdefault((name.upper(),), index)
            if qualifier:
                mapping.setdefault((qualifier.upper(), name.upper()), index)
        return cls(mapping)

    @classmethod
    def from_names(cls, names: List[str],
                   qualifier: Optional[str] = None) -> "EvalContext":
        """Build a context over a flat list of column names."""
        return cls.from_columns((qualifier, name) for name in names)

    def with_row(self, row: tuple) -> "EvalContext":
        context = EvalContext(self.columns, row)
        context.subquery_executor = self.subquery_executor
        context._subquery_cache = self._subquery_cache
        return context

    def run_subquery(self, select) -> Any:
        """Execute (and cache) an uncorrelated subquery, returning a Rowset."""
        if self.subquery_executor is None:
            raise Error(
                "subqueries are not available in this context")
        key = id(select)
        if key not in self._subquery_cache:
            self._subquery_cache[key] = self.subquery_executor(select)
        return self._subquery_cache[key]

    def resolve_index(self, parts: Tuple[str, ...]) -> Optional[int]:
        """Ordinal for a (qualified) column reference, or None if unknown.
        A qualified name reads its qualifier's column or none: ``b.y`` is
        never another source's bare ``y``, whether or not ``b`` names one."""
        return self.columns.get(tuple(map(str.upper, parts)))

    # -- compile-time hooks: called once per reference, never per row ----------

    def bind_column(self, ref: ast.ColumnRef) -> Callable[[tuple], Any]:
        """The ``row -> value`` reader of a column reference."""
        index = self.resolve_index(ref.parts)
        if index is None:
            raise BindError(f"cannot resolve column {'.'.join(ref.parts)!r}")
        return operator.itemgetter(index)

    def bind_function(self, call: ast.FuncCall) -> Callable[[tuple], Any]:
        """The ``row -> value`` closure of a non-aggregate function call."""
        name = call.name
        handler = _scalar_handler(name)
        args = [compile_expression(arg, self) for arg in call.args]
        return lambda row: _call_scalar(name, handler,
                                        [arg(row) for arg in args])


_AGGREGATE_NAMES = {"COUNT", "SUM", "AVG", "MIN", "MAX", "STDEV", "VAR"}


def is_aggregate_call(expr: ast.Expr) -> bool:
    return isinstance(expr, ast.FuncCall) and expr.name.upper() in _AGGREGATE_NAMES


def contains_aggregate(expr: ast.Expr) -> bool:
    """True if the expression tree contains an aggregate function call."""
    return is_aggregate_call(expr) or any(
        map(contains_aggregate, ast.children(expr)))


def evaluate(expr: ast.Expr, context: EvalContext) -> Any:
    """The one-shot spelling: compile ``expr`` and call it on
    ``context.row``.  Anything evaluated more than once compiles once.  A
    cell of a VALUES tuple row is a value already and is its own result."""
    if not isinstance(expr, ast.Expr):
        return expr
    return compile_expression(expr, context)(context.row)


# ---------------------------------------------------------------------------
# operator semantics
# ---------------------------------------------------------------------------

_STAR_MESSAGE = "'*' is only valid in a select list or COUNT(*)"

_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": operator.truediv,
               "||": lambda left, right: str(left) + str(right)}


def _as_bool(value: Any) -> Optional[bool]:
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return bool(value)  # a numpy float's ``!= 0`` is a numpy bool
    raise Error(f"expected a boolean, got {value!r}")


def _operand_error(what: str, operands, exc: Exception) -> TypeError_:
    """The typed error for a Python-level failure inside an expression —
    a raw ``TypeError`` would escape every ``except Error`` boundary (and
    kill a wire session's thread)."""
    types = ", ".join("NULL" if value is None else infer_type(value).name
                      for value in operands)
    return TypeError_(f"{what} cannot be applied to ({types}): {exc}")


def _arithmetic(op: str, left: Any, right: Any) -> Any:
    """NULL-propagating ``+ - * / ||``; division by zero yields NULL."""
    if left is None or right is None:
        return None
    if op == "/" and right == 0:
        return None
    try:
        return _ARITHMETIC[op](left, right)
    except (TypeError, ArithmeticError) as exc:
        raise _operand_error(f"operator {op!r}", (left, right), exc) from exc


def _negate(value: Any) -> Any:
    if value is None:
        return None
    try:
        return -value
    except TypeError as exc:
        raise _operand_error("unary '-'", (value,), exc) from exc


def _scalar_handler(name: str) -> Callable:
    handler = SCALAR_FUNCTIONS.get(name.upper())
    if handler is None:
        raise BindError(f"unknown function {name!r}")
    return handler


def _call_scalar(name: str, handler: Callable, args: List[Any]) -> Any:
    try:
        return handler(*args)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise _operand_error(f"function {name.upper()}", args, exc) from exc


def _membership(value: Any, candidates, negated: bool) -> Optional[bool]:
    """``value [NOT] IN candidates``; candidates are consumed lazily, so
    nothing past the first match (or behind a NULL operand) is evaluated."""
    if value is None:
        return None
    saw_null = False
    for candidate in candidates:
        comparison = V.sql_equal(value, candidate)
        if comparison is True:
            return not negated
        if comparison is None:
            saw_null = True
    if saw_null:
        return None
    return negated


def _between(value: Any, low: Any, high: Any,
             negated: bool) -> Optional[bool]:
    """``value >= low AND value <= high`` under three-valued logic: a FALSE
    side decides even when the other is NULL."""
    c_low = V.sql_compare(value, low)
    c_high = V.sql_compare(value, high)
    if (c_low is not None and c_low < 0) or \
            (c_high is not None and c_high > 0):
        return negated
    return None if c_low is None or c_high is None else not negated


def _like(value: Any, pattern: Any, negated: bool) -> Optional[bool]:
    if value is None or pattern is None:
        return None
    result = like_match(str(value), str(pattern))
    return (not result) if negated else result


def _scalar_subquery_value(rowset) -> Any:
    if len(rowset.columns) != 1:
        raise Error(
            f"scalar subquery must return one column, got "
            f"{len(rowset.columns)}")
    if len(rowset.rows) == 0:
        return None
    if len(rowset.rows) > 1:
        raise Error(
            f"scalar subquery returned {len(rowset.rows)} rows")
    return rowset.rows[0][0]


def _subquery_column(rowset):
    if len(rowset.columns) != 1:
        raise Error(
            f"IN (SELECT ...) must return one column, got "
            f"{len(rowset.columns)}")
    return (row[0] for row in rowset.rows)


@functools.lru_cache(maxsize=256)
def like_regex(pattern: str) -> "re.Pattern":
    """The compiled regex for a SQL LIKE pattern: ``%`` is any run, ``_``
    any single character (a newline too), everything else literal;
    case-insensitive."""
    return re.compile(
        "".join(".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
                for ch in pattern),
        flags=re.IGNORECASE | re.DOTALL)


def like_match(value: str, pattern: str) -> bool:
    """SQL LIKE with ``%`` (any run) and ``_`` (single char), case-insensitive."""
    return like_regex(pattern).fullmatch(value) is not None


# ---------------------------------------------------------------------------
# compile: bind once, evaluate many
# ---------------------------------------------------------------------------

def compile_expression(expr: ast.Expr,
                       context: EvalContext) -> Callable[[tuple], Any]:
    """Compile ``expr`` into a ``row -> value`` closure over ``context``.

    The tree is walked once: every column reference is resolved to its
    ordinal and every function to its handler *now*, so ``cannot resolve
    column`` / ``unknown function`` are raised before a row is read — even
    on an empty input or behind a short-circuit — and evaluating a row
    allocates no context and looks up no name.  Subqueries stay lazy: they
    run through ``context.run_subquery`` (and its per-statement cache) when
    a row first needs them.
    """
    compiler = _COMPILERS.get(type(expr))
    if compiler is None:
        raise Error(f"cannot evaluate expression node {type(expr).__name__}")
    return compiler(expr, context)


def compile_selection(conjuncts: List[ast.Expr],
                      context: EvalContext) -> Callable[..., list]:
    """Compile a WHERE's top-level AND ``conjuncts`` into ``select(rows,
    tags=None)``: the rows the WHERE holds True for, in order — or, given
    ``tags`` (one per row: a DELETE's positions), theirs.

    When every conjunct is a column against literals (:func:`_literal_test`)
    each is a kernel over the batch's column (a BETWEEN two: ``>=`` and
    ``<=``), narrowing the survivors of the one before: the values are
    tested in C when all are of the literal's class
    (``values.native_classes``), else by the kernel's value test, once per
    value.  Such a conjunct never raises, so the order it runs in decides
    nothing.  A WHERE with any other conjunct is the one row closure of
    their AND, as :func:`compile_expression` makes it: which rows it
    evaluates, and so which statements raise, is what it was.
    """
    bind = kernel_selection(conjuncts, context)
    if bind is not None:
        return bind(LITERAL_VALUE)
    holds = compile_expression(ast.conjoin(conjuncts), context)
    return _selection([(holds, _ready(_IS_TRUE), (), None, None, False, False)])


def kernel_selection(conjuncts: List[ast.Expr], context: EvalContext) \
        -> Optional[Callable[[Callable], Callable[..., list]]]:
    """The WHERE of a statement *shape* when every conjunct is a kernel:
    ``bind(value_of)``, :func:`compile_selection`'s ``select`` for the
    statement of the shape whose literal nodes hold ``value_of(node)`` —
    the columns bound once, the kernels made from those values.  None
    when some conjunct is not a kernel (its closure holds its literals)."""
    forms = list(map(_literal_test, conjuncts))
    if any(form is None or type(form[0]) is not ast.ColumnRef
           for form in forms):
        return None
    reads = [(context.bind_column(form[0]), conjunct)
             for form, conjunct in zip(forms, conjuncts)]
    return lambda value_of: _selection([
        (read, *kernel) for read, conjunct in reads
        for kernel in _literal_test(conjunct, value_of)[2]])


def _selection(kernels) -> Callable[..., list]:
    """:func:`compile_selection`'s ``select`` over its kernels."""
    def select(rows: list, tags=None) -> list:
        if len(rows) == 1:  # a seek's one row: no column to build
            for read, make_test, classes, test, key, floats, negated \
                    in kernels:
                value = read(rows[0])
                if type(value) not in classes:
                    if make_test()(value) is not True:
                        return []
                elif bool(test(key, float(value) if floats else value)) \
                        is negated:
                    return []
            return rows if tags is None else list(tags)
        for read, make_test, classes, test, key, floats, negated in kernels:
            values = list(map(read, rows))
            if classes and classes.issuperset(map(type, values)):
                mask = map(test, repeat(key),
                           map(float, values) if floats else values)
                if negated:
                    mask = map(operator.not_, mask)
            else:
                mask = map(make_test(), values)
            if tags is not None:
                mask = list(mask)
                tags = list(compress(tags, mask))
            rows = list(compress(rows, mask))
        return rows if tags is None else tags
    return select


_IS_TRUE = functools.partial(operator.is_, True)


def _ready(test: Callable) -> Callable[[], Callable]:
    """The maker of a value test that is made already."""
    return lambda: test


def _literal_test(expr: ast.Expr, value_of=LITERAL_VALUE):
    """A predicate of one operand against literals — a comparison with a
    literal on either side, ``[NOT] BETWEEN`` literals, ``[NOT] LIKE`` a
    literal, ``[NOT] IN`` a list of literals, ``IS [NOT] NULL`` — as
    ``(operand, make_test, kernels)``.  ``make_test()`` returns the
    predicate on the operand's value (True, False or None).  The predicate
    is True exactly where every kernel ``(make_kernel_test, classes, test,
    key, floats, negated)`` holds: its own value test, or for a value of
    ``classes``, ``test(key, float(value) if floats else value) is not
    negated`` with ``test`` a C function.  Tests are made only when
    needed.  None for any other expression.  The literals' values are
    ``value_of(node)``: the nodes' own, or a kept plan's statement's."""
    kind = type(expr)
    if kind is ast.BinaryOp and expr.op in V.COMPARISONS:
        if type(expr.right) is ast.Literal:
            operand, op, literal = expr.left, expr.op, value_of(expr.right)
        elif type(expr.left) is ast.Literal:
            operand, op = expr.right, V.MIRRORED[expr.op]
            literal = value_of(expr.left)
        else:
            return None
        test = functools.partial(V.comparator, op, literal)
        return operand, test, [(test, *V.native_comparison(op, literal))]
    if kind is ast.IsNull:
        test = _ready(functools.partial(
            operator.is_not if expr.negated else operator.is_, None))
        return expr.operand, test, [(test, (), None, None, False, False)]
    if kind is ast.Between and type(expr.low) is ast.Literal and \
            type(expr.high) is ast.Literal:
        low, high = value_of(expr.low), value_of(expr.high)
        negated = expr.negated
        test = _ready(lambda value: _between(value, low, high, negated))
        if negated:  # the value test, per value
            return expr.operand, test, [(test, (), None, None, False, False)]
        # BETWEEN holds where x >= low and x <= high both hold.
        return expr.operand, test, [
            (functools.partial(V.comparator, op, literal),
             *V.native_comparison(op, literal))
            for op, literal in ((">=", low), ("<=", high))]
    if kind is ast.InList and expr.items and \
            all(type(item) is ast.Literal for item in expr.items):
        items, negated = list(map(value_of, expr.items)), expr.negated
        test = _ready(lambda value: _membership(value, items, negated))
        classes = set(map(V.native_classes, items))
        classes = classes.pop() if len(classes) == 1 else ()
        floats = classes is V.NUMBER_TYPES
        keys = frozenset(map(float, items) if floats else items)
        return expr.operand, test, [
            (test, classes, operator.contains, keys, floats, negated)]
    if kind is ast.Like and type(expr.pattern) is ast.Literal and \
            expr.pattern.value is not None:
        # The regex is fixed when the operator opens.
        regex = like_regex(str(value_of(expr.pattern)))
        negated = expr.negated
        test = _ready(lambda value: None if value is None else
                      (regex.fullmatch(str(value)) is not None) != negated)
        return expr.operand, test, [
            (test, V.TEXT_TYPES, re.Pattern.fullmatch, regex, False, negated)]
    return None


def _compile_literal_test(expr: ast.Expr, context: EvalContext):
    """The row closure of a :func:`_literal_test` predicate, or None."""
    form = _literal_test(expr)
    if form is None:
        return None
    operand, test = compile_expression(form[0], context), form[1]()
    return lambda row: test(operand(row))


def _literal_first(compile_other):
    """A compiler that compiles a :func:`_literal_test` predicate — a
    comparison with a literal side, say, its kernel fixed now — as one,
    and any other expression by ``compile_other``."""
    return lambda expr, context: (_compile_literal_test(expr, context)
                                  or compile_other(expr, context))


def _compile_literal(expr: ast.Literal, context: EvalContext):
    value = expr.value
    return lambda row: value


def _compile_star(expr: ast.Star, context: EvalContext):
    raise Error(_STAR_MESSAGE)


def _compile_binary(expr: ast.BinaryOp, context: EvalContext):
    op = expr.op
    if op in ("AND", "OR"):
        left = _compile_condition(expr.left, context)
        right = _compile_condition(expr.right, context)
        if op == "AND":
            def conjunction(row):
                value = left(row)
                if value is False:  # short circuit
                    return False
                other = right(row)
                return other if value is True or other is False else None
            return conjunction

        def disjunction(row):
            value = left(row)
            if value is True:
                return True
            other = right(row)
            return other if value is False or other is True else None
        return disjunction
    left = compile_expression(expr.left, context)
    right = compile_expression(expr.right, context)
    if op in V.COMPARISONS:
        compare = V.sql_comparison(op)
        return lambda row: compare(left(row), right(row))
    if op in _ARITHMETIC:
        return lambda row: _arithmetic(op, left(row), right(row))
    raise Error(f"unknown binary operator {op!r}")


_PREDICATES = (ast.IsNull, ast.InList, ast.Between, ast.Like, ast.InSelect)


def _compile_condition(expr: ast.Expr, context: EvalContext):
    """``expr`` compiled to return only True, False or None: a predicate
    (comparison, AND/OR/NOT, IS NULL, [NOT] IN, BETWEEN, LIKE) as it is,
    anything else through ``_as_bool``."""
    compiled = compile_expression(expr, context)
    if isinstance(expr, _PREDICATES) or \
            (isinstance(expr, ast.BinaryOp)
             and (expr.op in V.COMPARISONS or expr.op in ("AND", "OR"))) \
            or (isinstance(expr, ast.UnaryOp) and expr.op == "NOT"):
        return compiled
    return lambda row: _as_bool(compiled(row))


def _compile_unary(expr: ast.UnaryOp, context: EvalContext):
    if expr.op == "NOT":
        condition = _compile_condition(expr.operand, context)

        def negation(row):
            value = condition(row)
            return None if value is None else not value
        return negation
    operand = compile_expression(expr.operand, context)
    return lambda row: _negate(operand(row))


def _compile_in_list(expr: ast.InList, context: EvalContext):
    operand = compile_expression(expr.operand, context)
    negated = expr.negated
    items = [compile_expression(item, context) for item in expr.items]
    return lambda row: _membership(
        operand(row), (item(row) for item in items), negated)


def _compile_between(expr: ast.Between, context: EvalContext):
    operand = compile_expression(expr.operand, context)
    negated = expr.negated
    low = compile_expression(expr.low, context)
    high = compile_expression(expr.high, context)
    return lambda row: _between(operand(row), low(row), high(row), negated)


def _compile_like(expr: ast.Like, context: EvalContext):
    operand = compile_expression(expr.operand, context)
    negated = expr.negated
    pattern = compile_expression(expr.pattern, context)
    return lambda row: _like(operand(row), pattern(row), negated)


def _compile_case(expr: ast.Case, context: EvalContext):
    whens = [(_compile_condition(condition, context),
              compile_expression(result, context))
             for condition, result in expr.whens]
    otherwise = (compile_expression(expr.else_result, context)
                 if expr.else_result is not None else None)

    def case(row):
        for condition, result in whens:
            if condition(row) is True:
                return result(row)
        return otherwise(row) if otherwise is not None else None
    return case


def _compile_subselect(expr: ast.SubSelect, context: EvalContext):
    select = expr.select
    return lambda row: _scalar_subquery_value(context.run_subquery(select))


def _compile_in_select(expr: ast.InSelect, context: EvalContext):
    operand = compile_expression(expr.operand, context)
    select, negated = expr.select, expr.negated

    def in_select(row):
        candidates = _subquery_column(context.run_subquery(select))
        return _membership(operand(row), candidates, negated)
    return in_select


_COMPILERS = {
    ast.Literal: _compile_literal,
    ast.ColumnRef: lambda expr, context: context.bind_column(expr),
    ast.Star: _compile_star,
    ast.FuncCall: lambda expr, context: context.bind_function(expr),
    ast.BinaryOp: _literal_first(_compile_binary),
    ast.UnaryOp: _compile_unary,
    ast.IsNull: _compile_literal_test,
    ast.InList: _literal_first(_compile_in_list),
    ast.Between: _literal_first(_compile_between),
    ast.Like: _literal_first(_compile_like),
    ast.Case: _compile_case,
    ast.SubSelect: _compile_subselect,
    ast.InSelect: _compile_in_select,
}
