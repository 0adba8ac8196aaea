"""Render AST nodes back to canonical DMX/SQL text.

The formatter brackets every identifier, so its output is unambiguous and
re-parses to an equal AST — the property the hypothesis round-trip tests
lock in (``parse(format(parse(x))) == parse(x)``).
"""

from __future__ import annotations

from typing import Union

from repro.errors import Error
from repro.lang import ast_nodes as ast


def quote_ident(name: str) -> str:
    """Bracket-quote an identifier, escaping embedded ``]``."""
    return "[" + name.replace("]", "]]") + "]"


def quote_string(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


def format_literal(value) -> str:
    if value is None:
        return "NULL"
    if value is True:
        return "TRUE"
    if value is False:
        return "FALSE"
    if isinstance(value, str):
        return quote_string(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

def format_expression(expr: ast.Expr) -> str:
    if isinstance(expr, ast.Literal):
        return format_literal(expr.value)
    if isinstance(expr, ast.ColumnRef):
        return ".".join(quote_ident(p) for p in expr.parts)
    if isinstance(expr, ast.Star):
        return f"{quote_ident(expr.qualifier)}.*" if expr.qualifier else "*"
    if isinstance(expr, ast.FuncCall):
        prefix = "DISTINCT " if expr.distinct else ""
        args = ", ".join(format_expression(a) for a in expr.args)
        return f"{expr.name}({prefix}{args})"
    if isinstance(expr, ast.BinaryOp):
        return (f"({format_expression(expr.left)} {expr.op} "
                f"{format_expression(expr.right)})")
    if isinstance(expr, ast.UnaryOp):
        if expr.op == "NOT":
            return f"(NOT {format_expression(expr.operand)})"
        # The space matters: "(--1)" would lex as a line comment.
        return f"(- {format_expression(expr.operand)})"
    if isinstance(expr, ast.IsNull):
        op = "IS NOT NULL" if expr.negated else "IS NULL"
        return f"({format_expression(expr.operand)} {op})"
    if isinstance(expr, ast.InList):
        op = "NOT IN" if expr.negated else "IN"
        items = ", ".join(format_expression(i) for i in expr.items)
        return f"({format_expression(expr.operand)} {op} ({items}))"
    if isinstance(expr, ast.InSelect):
        op = "NOT IN" if expr.negated else "IN"
        return (f"({format_expression(expr.operand)} {op} "
                f"({format_select(expr.select)}))")
    if isinstance(expr, ast.Between):
        op = "NOT BETWEEN" if expr.negated else "BETWEEN"
        return (f"({format_expression(expr.operand)} {op} "
                f"{format_expression(expr.low)} AND "
                f"{format_expression(expr.high)})")
    if isinstance(expr, ast.Like):
        op = "NOT LIKE" if expr.negated else "LIKE"
        return (f"({format_expression(expr.operand)} {op} "
                f"{format_expression(expr.pattern)})")
    if isinstance(expr, ast.Case):
        parts = ["CASE"]
        for condition, result in expr.whens:
            parts.append(f"WHEN {format_expression(condition)} "
                         f"THEN {format_expression(result)}")
        if expr.else_result is not None:
            parts.append(f"ELSE {format_expression(expr.else_result)}")
        parts.append("END")
        return " ".join(parts)
    if isinstance(expr, ast.SubSelect):
        return f"({format_select(expr.select)})"
    raise Error(f"cannot format expression node {type(expr).__name__}")


# ---------------------------------------------------------------------------
# Table refs and SHAPE
# ---------------------------------------------------------------------------

def format_table_ref(ref: ast.TableRef) -> str:
    if isinstance(ref, ast.NamedTable):
        return quote_ident(ref.name) + _alias(ref.alias)
    if isinstance(ref, ast.ModelContentRef):
        return f"{quote_ident(ref.model)}.{ref.facet}" + _alias(ref.alias)
    if isinstance(ref, ast.SystemRowsetRef):
        return f"$SYSTEM.{ref.rowset}" + _alias(ref.alias)
    if isinstance(ref, ast.SubquerySource):
        return f"({format_select(ref.select)})" + _alias(ref.alias)
    if isinstance(ref, ast.ShapeSource):
        return f"({format_shape(ref.shape)})" + _alias(ref.alias)
    if isinstance(ref, ast.Join):
        left = format_table_ref(ref.left)
        right = format_table_ref(ref.right)
        if ref.kind == "CROSS":
            return f"{left} CROSS JOIN {right}"
        return (f"{left} {ref.kind} JOIN {right} "
                f"ON {format_expression(ref.condition)}")
    if isinstance(ref, ast.PredictionJoin):
        natural = "NATURAL " if ref.natural else ""
        text = (f"{quote_ident(ref.model)} {natural}PREDICTION JOIN "
                f"{format_table_ref(ref.source)}")
        if ref.condition is not None:
            text += f" ON {format_expression(ref.condition)}"
        return text
    raise Error(f"cannot format table ref {type(ref).__name__}")


def _alias(alias) -> str:
    return f" AS {quote_ident(alias)}" if alias else ""


def format_shape(shape: ast.ShapeExpr) -> str:
    master = _format_shape_source(shape.master)
    parts = [f"SHAPE {master}"]
    arms = []
    for append in shape.appends:
        child = _format_shape_source(append.child)
        arms.append(f"({child} RELATE {quote_ident(append.relate_master)} "
                    f"TO {quote_ident(append.relate_child)}) "
                    f"AS {quote_ident(append.alias)}")
    if arms:
        parts.append("APPEND " + ", ".join(arms))
    return " ".join(parts)


def _format_shape_source(source: Union[ast.SelectStatement, ast.ShapeExpr]) -> str:
    if isinstance(source, ast.ShapeExpr):
        return "{" + format_shape(source) + "}"
    return "{" + format_select(source) + "}"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

def format_select(statement: ast.SelectStatement) -> str:
    parts = ["SELECT"]
    if statement.flattened:
        parts.append("FLATTENED")
    if statement.top is not None:
        parts.append(f"TOP {statement.top}")
    if statement.distinct:
        parts.append("DISTINCT")
    items = []
    for item in statement.select_list:
        text = format_expression(item.expr)
        if item.alias:
            text += f" AS {quote_ident(item.alias)}"
        items.append(text)
    parts.append(", ".join(items))
    if statement.from_clause is not None:
        parts.append("FROM " + format_table_ref(statement.from_clause))
    if statement.where is not None:
        parts.append("WHERE " + format_expression(statement.where))
    if statement.group_by:
        parts.append("GROUP BY " + ", ".join(
            format_expression(e) for e in statement.group_by))
    if statement.having is not None:
        parts.append("HAVING " + format_expression(statement.having))
    if statement.order_by:
        orders = []
        for item in statement.order_by:
            text = format_expression(item.expr)
            if not item.ascending:
                text += " DESC"
            orders.append(text)
        parts.append("ORDER BY " + ", ".join(orders))
    if statement.maxdop is not None:
        parts.append(f"WITH MAXDOP {statement.maxdop}")
    return " ".join(parts)


def format_model_column(column: ast.ModelColumnDef) -> str:
    if column.is_table:
        inner = ", ".join(format_model_column(c)
                          for c in column.nested_columns)
        text = f"{quote_ident(column.name)} TABLE({inner})"
    else:
        text = f"{quote_ident(column.name)} {column.data_type}"
        if column.sequence_time and column.content_type != "SEQUENCE_TIME":
            text += " SEQUENCE_TIME"
        if column.distribution:
            text += f" {column.distribution}"
        if column.content_type:
            text += f" {column.content_type}"
            if column.content_type == "DISCRETIZED" and \
                    column.discretization_method:
                text += f"({column.discretization_method}"
                if column.discretization_buckets is not None:
                    text += f", {column.discretization_buckets}"
                text += ")"
        if column.qualifier:
            text += f" {column.qualifier} OF {quote_ident(column.qualifier_of)}"
        if column.model_existence_only:
            text += " MODEL_EXISTENCE_ONLY"
        if column.not_null:
            text += " NOT NULL"
        if column.related_to:
            text += f" RELATED TO {quote_ident(column.related_to)}"
    if column.predict_only:
        text += " PREDICT_ONLY"
    elif column.predict:
        text += " PREDICT"
    return text


def _format_bindings(bindings) -> str:
    parts = []
    for binding in bindings:
        if isinstance(binding, ast.BindingSkip):
            parts.append("SKIP")
        elif isinstance(binding, ast.BindingTable):
            parts.append(f"{quote_ident(binding.name)}"
                         f"({_format_bindings(binding.children)})")
        else:
            parts.append(quote_ident(binding.name))
    return ", ".join(parts)


def format_statement(statement: ast.Statement) -> str:
    """Render any statement node back to canonical text."""
    if isinstance(statement, ast.SelectStatement):
        return format_select(statement)
    if isinstance(statement, ast.UnionStatement):
        parts = [format_select(statement.branches[0])]
        for keep_all, branch in zip(statement.all_rows,
                                    statement.branches[1:]):
            parts.append("UNION ALL" if keep_all else "UNION")
            parts.append(format_select(branch))
        return " ".join(parts)
    if isinstance(statement, ast.CreateTableStatement):
        columns = []
        for column in statement.columns:
            text = f"{quote_ident(column.name)} {column.type_name}"
            if column.primary_key:
                text += " PRIMARY KEY"
            elif not column.nullable:
                text += " NOT NULL"
            columns.append(text)
        return (f"CREATE TABLE {quote_ident(statement.name)} "
                f"({', '.join(columns)})")
    if isinstance(statement, ast.CreateViewStatement):
        return (f"CREATE VIEW {quote_ident(statement.name)} AS "
                f"{format_select(statement.select)}")
    if isinstance(statement, ast.InsertValuesStatement):
        text = f"INSERT INTO {quote_ident(statement.table)}"
        if statement.columns:
            text += " (" + ", ".join(
                quote_ident(c) for c in statement.columns) + ")"
        if statement.select is not None:
            return f"{text} {format_select(statement.select)}"
        rows = ", ".join(
            "(" + ", ".join(map(format_literal if type(row) is tuple
                                else format_expression, row)) + ")"
            for row in statement.rows)
        return f"{text} VALUES {rows}"
    if isinstance(statement, ast.DeleteStatement):
        text = f"DELETE FROM {quote_ident(statement.table)}"
        if statement.where is not None:
            text += f" WHERE {format_expression(statement.where)}"
        return text
    if isinstance(statement, ast.UpdateStatement):
        sets = ", ".join(f"{quote_ident(c)} = {format_expression(e)}"
                         for c, e in statement.assignments)
        text = f"UPDATE {quote_ident(statement.table)} SET {sets}"
        if statement.where is not None:
            text += f" WHERE {format_expression(statement.where)}"
        return text
    if isinstance(statement, ast.UpdateStatisticsStatement):
        if statement.table is None:
            return "UPDATE STATISTICS"
        return f"UPDATE STATISTICS {quote_ident(statement.table)}"
    if isinstance(statement, ast.DropTableStatement):
        exists = "IF EXISTS " if statement.if_exists else ""
        return f"DROP TABLE {exists}{quote_ident(statement.name)}"
    if isinstance(statement, ast.CreateIndexStatement):
        return (f"CREATE INDEX {quote_ident(statement.name)} "
                f"ON {quote_ident(statement.table)} "
                f"({quote_ident(statement.column)})")
    if isinstance(statement, ast.DropIndexStatement):
        exists = "IF EXISTS " if statement.if_exists else ""
        return (f"DROP INDEX {exists}{quote_ident(statement.name)} "
                f"ON {quote_ident(statement.table)}")
    if isinstance(statement, ast.CreateMiningModelStatement):
        columns = ", ".join(format_model_column(c) for c in statement.columns)
        text = (f"CREATE MINING MODEL {quote_ident(statement.name)} "
                f"({columns}) USING {quote_ident(statement.algorithm)}")
        if statement.parameters:
            params = ", ".join(f"{n} = {format_literal(v)}"
                               for n, v in statement.parameters)
            text += f"({params})"
        return text
    if isinstance(statement, ast.InsertModelStatement):
        text = f"INSERT INTO {quote_ident(statement.model)}"
        if statement.bindings:
            text += f" ({_format_bindings(statement.bindings)})"
        if isinstance(statement.source, ast.ShapeExpr):
            text = f"{text} {format_shape(statement.source)}"
        else:
            text = f"{text} {format_select(statement.source)}"
        if statement.maxdop is not None:
            text += f" WITH MAXDOP {statement.maxdop}"
        return text
    if isinstance(statement, ast.DeleteModelStatement):
        return f"DELETE FROM MINING MODEL {quote_ident(statement.name)}"
    if isinstance(statement, ast.DropMiningModelStatement):
        exists = "IF EXISTS " if statement.if_exists else ""
        return f"DROP MINING MODEL {exists}{quote_ident(statement.name)}"
    if isinstance(statement, ast.ExportModelStatement):
        return (f"EXPORT MINING MODEL {quote_ident(statement.name)} "
                f"TO {quote_string(statement.path)}")
    if isinstance(statement, ast.ImportModelStatement):
        text = f"IMPORT MINING MODEL FROM {quote_string(statement.path)}"
        if statement.rename_to:
            text += f" AS {quote_ident(statement.rename_to)}"
        return text
    if isinstance(statement, ast.TraceStatement):
        return f"TRACE {statement.mode.upper()}"
    if isinstance(statement, ast.CancelStatement):
        return f"CANCEL {statement.statement_id}"
    if isinstance(statement, ast.ExplainStatement):
        verb = "EXPLAIN ANALYZE" if statement.analyze else "EXPLAIN"
        return f"{verb} {format_statement(statement.statement)}"
    raise Error(f"cannot format statement {type(statement).__name__}")
