"""Expression evaluation for the relational engine.

An :class:`EvalContext` resolves column references against the current row;
the evaluator walks the AST nodes from :mod:`repro.lang.ast_nodes` using SQL
three-valued logic from :mod:`repro.sqlstore.values`.

The mining layer reuses this evaluator for prediction-query projections by
supplying its own context subclass that also resolves prediction UDFs.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import BindError, Error
from repro.lang import ast_nodes as ast
from repro.sqlstore import values as V
from repro.sqlstore.functions import SCALAR_FUNCTIONS


class EvalContext:
    """Resolves names and functions during expression evaluation.

    ``columns`` maps *normalized* name tuples to row ordinals.  A reference
    ``t.[Age]`` is looked up first as ``("T", "AGE")``, then as ``("AGE",)``;
    unqualified references must be unambiguous.
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

    @staticmethod
    def normalize(parts) -> Tuple[str, ...]:
        return tuple(p.upper() for p in parts)

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
        """Ordinal for a (qualified) column reference, or None if unknown."""
        key = self.normalize(parts)
        if key in self.columns:
            return self.columns[key]
        # Drop leading qualifiers one at a time: t.Age -> Age.
        while len(key) > 1:
            key = key[1:]
            if key in self.columns:
                return self.columns[key]
        return None

    def resolve_column(self, ref: ast.ColumnRef) -> Any:
        index = self.resolve_index(ref.parts)
        if index is None:
            raise BindError(
                f"cannot resolve column {'.'.join(ref.parts)!r}")
        return self.row[index]

    def call_function(self, call: ast.FuncCall, evaluator) -> Any:
        """Evaluate a non-aggregate function call.

        Subclasses (the prediction layer) override this to add UDFs; the
        base implementation only knows the SQL scalar functions.
        """
        handler = SCALAR_FUNCTIONS.get(call.name.upper())
        if handler is None:
            raise BindError(f"unknown function {call.name!r}")
        args = [evaluator(a) for a in call.args]
        return handler(*args)


_AGGREGATE_NAMES = {"COUNT", "SUM", "AVG", "MIN", "MAX", "STDEV", "VAR"}


def is_aggregate_call(expr: ast.Expr) -> bool:
    return isinstance(expr, ast.FuncCall) and expr.name.upper() in _AGGREGATE_NAMES


def contains_aggregate(expr: ast.Expr) -> bool:
    """True if the expression tree contains an aggregate function call."""
    if expr is None:
        return False
    if is_aggregate_call(expr):
        return True
    children: List[ast.Expr] = []
    if isinstance(expr, ast.BinaryOp):
        children = [expr.left, expr.right]
    elif isinstance(expr, ast.UnaryOp):
        children = [expr.operand]
    elif isinstance(expr, ast.FuncCall):
        children = expr.args
    elif isinstance(expr, (ast.IsNull, ast.Like, ast.Between, ast.InList)):
        children = [expr.operand]
        if isinstance(expr, ast.Between):
            children += [expr.low, expr.high]
        elif isinstance(expr, ast.Like):
            children.append(expr.pattern)
        elif isinstance(expr, ast.InList):
            children += expr.items
    elif isinstance(expr, ast.Case):
        for condition, result in expr.whens:
            children += [condition, result]
        if expr.else_result is not None:
            children.append(expr.else_result)
    return any(contains_aggregate(c) for c in children if c is not None)


def evaluate(expr: ast.Expr, context: EvalContext) -> Any:
    """Evaluate an expression against one row."""
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.ColumnRef):
        return context.resolve_column(expr)
    if isinstance(expr, ast.Star):
        raise Error("'*' is only valid in a select list or COUNT(*)")
    if isinstance(expr, ast.FuncCall):
        return context.call_function(
            expr, lambda a: evaluate(a, context))
    if isinstance(expr, ast.BinaryOp):
        return _evaluate_binary(expr, context)
    if isinstance(expr, ast.UnaryOp):
        if expr.op == "NOT":
            return V.truth_not(_as_bool(evaluate(expr.operand, context)))
        value = evaluate(expr.operand, context)
        return None if value is None else -value
    if isinstance(expr, ast.IsNull):
        result = evaluate(expr.operand, context) is None
        return (not result) if expr.negated else result
    if isinstance(expr, ast.InList):
        return _evaluate_in(expr, context)
    if isinstance(expr, ast.Between):
        value = evaluate(expr.operand, context)
        low = evaluate(expr.low, context)
        high = evaluate(expr.high, context)
        c_low = V.sql_compare(value, low)
        c_high = V.sql_compare(value, high)
        if c_low is None or c_high is None:
            return None
        result = c_low >= 0 and c_high <= 0
        return (not result) if expr.negated else result
    if isinstance(expr, ast.Like):
        value = evaluate(expr.operand, context)
        pattern = evaluate(expr.pattern, context)
        if value is None or pattern is None:
            return None
        result = like_match(str(value), str(pattern))
        return (not result) if expr.negated else result
    if isinstance(expr, ast.Case):
        for condition, result in expr.whens:
            if _as_bool(evaluate(condition, context)) is True:
                return evaluate(result, context)
        if expr.else_result is not None:
            return evaluate(expr.else_result, context)
        return None
    if isinstance(expr, ast.SubSelect):
        rowset = context.run_subquery(expr.select)
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
    if isinstance(expr, ast.InSelect):
        rowset = context.run_subquery(expr.select)
        if len(rowset.columns) != 1:
            raise Error(
                f"IN (SELECT ...) must return one column, got "
                f"{len(rowset.columns)}")
        value = evaluate(expr.operand, context)
        if value is None:
            return None
        saw_null = False
        for row in rowset.rows:
            comparison = V.sql_equal(value, row[0])
            if comparison is True:
                return False if expr.negated else True
            if comparison is None:
                saw_null = True
        if saw_null:
            return None
        return True if expr.negated else False
    raise Error(f"cannot evaluate expression node {type(expr).__name__}")


def _as_bool(value: Any) -> Optional[bool]:
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    raise Error(f"expected a boolean, got {value!r}")


def _evaluate_binary(expr: ast.BinaryOp, context: EvalContext) -> Any:
    op = expr.op
    if op == "AND":
        left = _as_bool(evaluate(expr.left, context))
        if left is False:  # short circuit
            return False
        return V.truth_and(left, _as_bool(evaluate(expr.right, context)))
    if op == "OR":
        left = _as_bool(evaluate(expr.left, context))
        if left is True:
            return True
        return V.truth_or(left, _as_bool(evaluate(expr.right, context)))
    left = evaluate(expr.left, context)
    right = evaluate(expr.right, context)
    if op == "=":
        return V.sql_equal(left, right)
    if op == "<>":
        result = V.sql_equal(left, right)
        return None if result is None else not result
    if op in ("<", "<=", ">", ">="):
        comparison = V.sql_compare(left, right)
        if comparison is None:
            return None
        return {"<": comparison < 0, "<=": comparison <= 0,
                ">": comparison > 0, ">=": comparison >= 0}[op]
    if left is None or right is None:
        return None
    if op == "||":
        return str(left) + str(right)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            return None  # SQL-ish: division by zero yields NULL here
        result = left / right
        return result
    raise Error(f"unknown binary operator {op!r}")


def _evaluate_in(expr: ast.InList, context: EvalContext) -> Optional[bool]:
    value = evaluate(expr.operand, context)
    if value is None:
        return None
    saw_null = False
    for item in expr.items:
        candidate = evaluate(item, context)
        comparison = V.sql_equal(value, candidate)
        if comparison is True:
            return False if expr.negated else True
        if comparison is None:
            saw_null = True
    if saw_null:
        return None
    return True if expr.negated else False


def like_match(value: str, pattern: str) -> bool:
    """SQL LIKE with ``%`` (any run) and ``_`` (single char), case-insensitive."""
    regex = "".join(
        ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
        for ch in pattern)
    return re.fullmatch(regex, value, flags=re.IGNORECASE) is not None
