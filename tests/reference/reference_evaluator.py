"""The tree-walking expression interpreter — the oracle.

``evaluate`` / ``_evaluate_binary`` and the two interpreter hooks of
``EvalContext`` (``resolve_column``, ``call_function``) are
``repro.sqlstore.expressions`` as they left ``src/`` in PR 21, when
``compile_expression`` became the only implementation of expression
semantics; ``_substitute`` is ``repro.sqlstore.engine``'s, from the same
PR.  The interpreter walks the tree against a context holding the current
row and resolves every name again for every row; what a grouped SELECT
evaluates per group ran over a copy of the tree with the group's aggregate
values substituted as literals.  The operator semantics it calls
(``_arithmetic``, ``_membership``, ...) are the ones the compiled closures
call: what the differential compares is the walk, the binding and the
order of evaluation.  Nothing under ``src/`` imports this module.

``truth_and`` / ``truth_or`` / ``truth_not`` are
``repro.sqlstore.values``'s three-valued connectives as they left
``src/`` when AND / OR / NOT were compiled to test their operands'
truth values in place.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.errors import BindError, Error
from repro.lang import ast_nodes as ast
from repro.sqlstore import values as V
from repro.sqlstore.expressions import (
    _ARITHMETIC,
    _STAR_MESSAGE,
    _arithmetic,
    _as_bool,
    _between,
    _call_scalar,
    _like,
    _membership,
    _negate,
    _scalar_handler,
    _scalar_subquery_value,
    _subquery_column,
)
from repro.sqlstore.expressions import EvalContext as _CompiledContext


def truth_and(a: Optional[bool], b: Optional[bool]) -> Optional[bool]:
    """Three-valued AND."""
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def truth_or(a: Optional[bool], b: Optional[bool]) -> Optional[bool]:
    """Three-valued OR."""
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return False


def truth_not(a: Optional[bool]) -> Optional[bool]:
    """Three-valued NOT."""
    if a is None:
        return None
    return not a


class EvalContext(_CompiledContext):
    """``repro.sqlstore.expressions.EvalContext`` with the interpreter's
    two hooks back on it."""

    def with_row(self, row: tuple) -> "EvalContext":
        context = EvalContext(self.columns, row)
        context.subquery_executor = self.subquery_executor
        context._subquery_cache = self._subquery_cache
        return context

    def resolve_column(self, ref: ast.ColumnRef) -> Any:
        index = self.resolve_index(ref.parts)
        if index is None:
            raise BindError(
                f"cannot resolve column {'.'.join(ref.parts)!r}")
        return self.row[index]

    def call_function(self, call: ast.FuncCall, evaluator) -> Any:
        """Evaluate a non-aggregate function call (the interpreter's
        hook; the base implementation knows the SQL scalar functions)."""
        handler = _scalar_handler(call.name)
        return _call_scalar(call.name, handler,
                            [evaluator(a) for a in call.args])


def evaluate(expr: ast.Expr, context: EvalContext) -> Any:
    """Evaluate an expression against one row (``context.row``).

    The reference interpreter: :func:`compile_expression` must agree with
    it on every value and every error.
    """
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.ColumnRef):
        return context.resolve_column(expr)
    if isinstance(expr, ast.Star):
        raise Error(_STAR_MESSAGE)
    if isinstance(expr, ast.FuncCall):
        return context.call_function(
            expr, lambda a: evaluate(a, context))
    if isinstance(expr, ast.BinaryOp):
        return _evaluate_binary(expr, context)
    if isinstance(expr, ast.UnaryOp):
        if expr.op == "NOT":
            return truth_not(_as_bool(evaluate(expr.operand, context)))
        return _negate(evaluate(expr.operand, context))
    if isinstance(expr, ast.IsNull):
        result = evaluate(expr.operand, context) is None
        return (not result) if expr.negated else result
    if isinstance(expr, ast.InList):
        return _membership(
            evaluate(expr.operand, context),
            (evaluate(item, context) for item in expr.items), expr.negated)
    if isinstance(expr, ast.Between):
        return _between(evaluate(expr.operand, context),
                        evaluate(expr.low, context),
                        evaluate(expr.high, context), expr.negated)
    if isinstance(expr, ast.Like):
        return _like(evaluate(expr.operand, context),
                     evaluate(expr.pattern, context), expr.negated)
    if isinstance(expr, ast.Case):
        for condition, result in expr.whens:
            if _as_bool(evaluate(condition, context)) is True:
                return evaluate(result, context)
        if expr.else_result is not None:
            return evaluate(expr.else_result, context)
        return None
    if isinstance(expr, ast.SubSelect):
        return _scalar_subquery_value(context.run_subquery(expr.select))
    if isinstance(expr, ast.InSelect):
        candidates = _subquery_column(context.run_subquery(expr.select))
        return _membership(evaluate(expr.operand, context), candidates,
                           expr.negated)
    raise Error(f"cannot evaluate expression node {type(expr).__name__}")


def _evaluate_binary(expr: ast.BinaryOp, context: EvalContext) -> Any:
    op = expr.op
    if op == "AND":
        left = _as_bool(evaluate(expr.left, context))
        if left is False:  # short circuit
            return False
        return truth_and(left, _as_bool(evaluate(expr.right, context)))
    if op == "OR":
        left = _as_bool(evaluate(expr.left, context))
        if left is True:
            return True
        return truth_or(left, _as_bool(evaluate(expr.right, context)))
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
    if op in _ARITHMETIC:
        return _arithmetic(op, left, right)
    raise Error(f"unknown binary operator {op!r}")


def _substitute(expr: ast.Expr, values: Dict[int, Any]) -> ast.Expr:
    """Replace aggregate calls (by node identity) with computed literals."""
    if expr is None:
        return expr
    if id(expr) in values:
        return ast.Literal(values[id(expr)])
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(expr.op, _substitute(expr.left, values),
                            _substitute(expr.right, values))
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, _substitute(expr.operand, values))
    if isinstance(expr, ast.FuncCall):
        return ast.FuncCall(expr.name,
                            [_substitute(a, values) for a in expr.args],
                            expr.distinct)
    if isinstance(expr, ast.IsNull):
        return ast.IsNull(_substitute(expr.operand, values), expr.negated)
    if isinstance(expr, ast.InList):
        return ast.InList(_substitute(expr.operand, values),
                          [_substitute(i, values) for i in expr.items],
                          expr.negated)
    if isinstance(expr, ast.InSelect):
        # Deliberate change, PR 21: the ladder forgot ``InSelect.operand``,
        # so an aggregate under IN (SELECT ...) stayed a function call and
        # raised ``unknown function 'COUNT'``.  The subquery node is kept
        # by identity (the per-statement subquery cache keys on it).
        return ast.InSelect(_substitute(expr.operand, values), expr.select,
                            expr.negated)
    if isinstance(expr, ast.Between):
        return ast.Between(_substitute(expr.operand, values),
                           _substitute(expr.low, values),
                           _substitute(expr.high, values), expr.negated)
    if isinstance(expr, ast.Like):
        return ast.Like(_substitute(expr.operand, values),
                        _substitute(expr.pattern, values), expr.negated)
    if isinstance(expr, ast.Case):
        return ast.Case(
            [(_substitute(c, values), _substitute(r, values))
             for c, r in expr.whens],
            _substitute(expr.else_result, values)
            if expr.else_result is not None else None)
    return expr


def reference_context(context: _CompiledContext, row: tuple) -> EvalContext:
    """``context.with_row(row)`` for the interpreter: the same columns,
    subquery executor and subquery cache, holding ``row``."""
    return EvalContext.with_row(context, row)


reference_evaluate = evaluate
reference_substitute = _substitute
