"""DMX statement parsing: the OLE DB DM language extensions of section 3.

These functions take the shared :class:`repro.lang.parser.Parser` instance
and consume from its token stream, so DMX statements reuse the same
expression, SELECT, and SHAPE machinery as plain SQL.
"""

from __future__ import annotations

from functools import partial
from typing import List, Union

from repro.lang import ast_nodes as ast
from repro.lang.lexer import TokenKind

# Column specifiers of section 3.2.1 / 3.2.2 of the paper.
CONTENT_TYPES = ("KEY", "DISCRETE", "CONTINUOUS", "ORDERED", "CYCLICAL",
                 "DISCRETIZED", "SEQUENCE_TIME")
QUALIFIERS = ("PROBABILITY", "VARIANCE", "SUPPORT", "PROBABILITY_VARIANCE",
              "STDEV", "ORDER")
DISTRIBUTIONS = ("NORMAL", "UNIFORM", "LOG_NORMAL", "BINOMIAL", "MULTINOMIAL",
                 "POISSON", "MIXTURE")
DATA_TYPES = ("LONG", "DOUBLE", "TEXT", "DATE", "BOOLEAN")
DISCRETIZATION_METHODS = ("EQUAL_RANGE", "EQUAL_COUNT", "CLUSTERS",
                          "AUTOMATIC")


def parse_create_mining_model(parser) -> ast.CreateMiningModelStatement:
    """``CREATE MINING MODEL <name> ( <columns> ) USING <algo> [(params)]``."""
    parser.expect_keyword("CREATE")
    parser.expect_keyword("MINING")
    parser.expect_keyword("MODEL")
    name = parser.expect_identifier("model name")
    parser.expect_symbol("(")
    columns = parser.parse_list(partial(parse_model_column, parser))
    parser.expect_symbol(")")
    parser.expect_keyword("USING")
    algorithm = parser.expect_identifier("algorithm name")
    parameters = []
    if parser.accept_symbol("("):
        if not parser.peek().is_symbol(")"):
            parameters = parser.parse_list(partial(_parse_parameter, parser))
        parser.expect_symbol(")")
    return ast.CreateMiningModelStatement(
        name=name, columns=columns, algorithm=algorithm,
        parameters=parameters)


def _parse_parameter(parser):
    name = parser.expect_identifier("parameter name")
    parser.expect_symbol("=")
    token = parser.peek()
    if token.kind is TokenKind.NUMBER:
        parser.advance()
        return (name.upper(), token.value)
    if token.kind is TokenKind.STRING:
        parser.advance()
        return (name.upper(), token.value)
    if token.is_keyword("TRUE", "FALSE"):
        parser.advance()
        return (name.upper(), token.upper == "TRUE")
    value = parser.expect_identifier("parameter value")
    return (name.upper(), value)


def parse_model_column(parser) -> ast.ModelColumnDef:
    """One column definition, scalar or nested TABLE (section 3.2)."""
    parser._enter()  # nested TABLE(...) columns recurse
    try:
        return _parse_model_column_body(parser)
    finally:
        parser._leave()


def _parse_model_column_body(parser) -> ast.ModelColumnDef:
    name = parser.expect_identifier("column name")
    if parser.peek().is_keyword("TABLE"):
        parser.advance()
        parser.expect_symbol("(")
        nested = parser.parse_list(partial(parse_model_column, parser))
        parser.expect_symbol(")")
        column = ast.ModelColumnDef(name=name, nested_columns=nested)
        _parse_column_flags(parser, column, nested_table=True)
        return column
    data_type = parser.expect_identifier("data type").upper()
    if data_type not in DATA_TYPES:
        raise parser.error(
            f"unknown mining column data type {data_type!r} "
            f"(expected one of {', '.join(DATA_TYPES)})")
    column = ast.ModelColumnDef(name=name, data_type=data_type)
    _parse_column_flags(parser, column, nested_table=False)
    return column


def _parse_column_flags(parser, column: ast.ModelColumnDef,
                        nested_table: bool) -> None:
    """Consume content type, qualifiers, hints and flags in any order."""
    while True:
        token = parser.peek()
        if token.is_keyword("SEQUENCE_TIME"):
            parser.advance()
            column.sequence_time = True
            if column.content_type is None:
                column.content_type = "SEQUENCE_TIME"
        elif token.is_keyword(*CONTENT_TYPES):
            parser.advance()
            if token.upper == "KEY" and column.content_type == "SEQUENCE_TIME":
                column.content_type = "KEY"
            else:
                column.content_type = token.upper
            if token.upper == "DISCRETIZED" and parser.accept_symbol("("):
                method = parser.expect_identifier("discretization method")
                if method.upper() not in DISCRETIZATION_METHODS:
                    raise parser.error(
                        f"unknown discretization method {method!r}")
                column.discretization_method = method.upper()
                if parser.accept_symbol(","):
                    bucket_token = parser.peek()
                    if bucket_token.kind is not TokenKind.NUMBER:
                        raise parser.error("expected bucket count")
                    parser.advance()
                    column.discretization_buckets = int(bucket_token.value)
                parser.expect_symbol(")")
        elif token.is_keyword(*QUALIFIERS) and parser.peek(1).is_keyword("OF"):
            parser.advance()
            parser.expect_keyword("OF")
            column.qualifier = token.upper
            column.qualifier_of = parser.expect_identifier("qualified column")
        elif token.is_keyword(*DISTRIBUTIONS):
            parser.advance()
            if token.upper == "LOG" :  # pragma: no cover - defensive
                raise parser.error("use LOG_NORMAL")
            column.distribution = token.upper
        elif token.is_keyword("LOG") and parser.peek(1).is_keyword("NORMAL"):
            parser.advance()
            parser.advance()
            column.distribution = "LOG_NORMAL"
        elif token.is_keyword("PREDICT"):
            parser.advance()
            column.predict = True
        elif token.is_keyword("PREDICT_ONLY"):
            parser.advance()
            column.predict = True
            column.predict_only = True
        elif token.is_keyword("RELATED"):
            parser.advance()
            parser.expect_keyword("TO")
            column.related_to = parser.expect_identifier("related column")
        elif token.is_keyword("NOT") and parser.peek(1).is_keyword("NULL"):
            parser.advance()
            parser.advance()
            column.not_null = True
        elif token.is_keyword("MODEL_EXISTENCE_ONLY"):
            parser.advance()
            column.model_existence_only = True
        else:
            return


# ---------------------------------------------------------------------------
# INSERT INTO — base table or mining model
# ---------------------------------------------------------------------------

def parse_insert(parser) -> ast.Statement:
    """Parse ``INSERT INTO <target> ...``.

    The grammar decides between a plain-table insert and a model-training
    insert by the *source*: VALUES always means a base table; a SHAPE source
    or a nested column-binding list always means a mining model; a flat
    binding list with a SELECT source is returned as a table insert and
    re-dispatched by the provider if the target is actually a model.
    """
    parser.expect_keyword("INSERT")
    parser.expect_keyword("INTO")
    parser.accept_keyword("MINING")  # optional "INSERT INTO MINING MODEL m"
    parser.accept_keyword("MODEL")
    target = parser.expect_identifier("target name")

    bindings: List[Union[ast.BindingColumn, ast.BindingSkip, ast.BindingTable]] = []
    if parser.peek().is_symbol("("):
        bindings = _parse_binding_list(parser)

    token = parser.peek()
    if token.is_keyword("VALUES"):
        parser.advance()
        rows = [_parse_value_row(parser, 0)]
        while parser.accept_symbol(","):
            rows.append(_parse_value_row(parser, len(rows)))
        columns = _flat_binding_names(parser, bindings)
        return ast.InsertValuesStatement(table=target, columns=columns,
                                         rows=rows)
    if token.is_keyword("SHAPE") or (
            token.is_symbol("(") and parser.peek(1).is_keyword("SHAPE")):
        wrapped = parser.accept_symbol("(")
        shape = parser.parse_shape()
        if wrapped:
            parser.expect_symbol(")")
        return ast.InsertModelStatement(model=target, bindings=bindings,
                                        source=shape,
                                        maxdop=parser.parse_maxdop_option())
    if token.is_keyword("SELECT") or (
            token.is_symbol("(") and parser.peek(1).is_keyword("SELECT")):
        wrapped = parser.accept_symbol("(")
        select = parser.parse_select()
        if wrapped:
            parser.expect_symbol(")")
        if any(isinstance(b, (ast.BindingTable, ast.BindingSkip))
               for b in bindings):
            # An unwrapped SELECT source consumes WITH MAXDOP itself (it
            # lands on select.maxdop); a wrapped one leaves it out here.
            return ast.InsertModelStatement(model=target, bindings=bindings,
                                            source=select,
                                            maxdop=parser.parse_maxdop_option())
        columns = _flat_binding_names(parser, bindings)
        return ast.InsertValuesStatement(table=target, columns=columns,
                                         select=select)
    raise parser.error("expected VALUES, SELECT, or SHAPE after INSERT INTO")


def _parse_binding_list(parser):
    parser.expect_symbol("(")
    bindings = parser.parse_list(partial(_parse_binding, parser))
    parser.expect_symbol(")")
    return bindings


def _parse_binding(parser):
    parser._enter()  # nested binding lists recurse; bound like expressions
    try:
        if parser.peek().is_keyword("SKIP"):
            parser.advance()
            return ast.BindingSkip()
        name = parser.expect_identifier("column name")
        if parser.peek().is_symbol("("):
            children = _parse_binding_list(parser)
            return ast.BindingTable(name=name, children=children)
        return ast.BindingColumn(name=name)
    finally:
        parser._leave()


def _flat_binding_names(parser, bindings) -> List[str]:
    names = []
    for binding in bindings:
        if not isinstance(binding, ast.BindingColumn):
            raise parser.error(
                "nested or SKIP bindings are only valid for mining models")
        names.append(binding.name)
    return names


def _parse_value_row(parser, number: int) -> ast.ValueRow:
    """VALUES row ``number``: the tuple of its values when every cell is a
    plain literal (a number, string, NULL, TRUE or FALSE), else the list of
    its cell expressions.  A tuple row's NUMBER/STRING literals are
    recorded as landing in cell ``(number, column)``, not in a Literal."""
    mark = len(parser.literals)
    parser.expect_symbol("(")
    row = parser.parse_list(parser.parse_expression)
    parser.expect_symbol(")")
    if any(type(cell) is not ast.Literal for cell in row):
        return row
    column_of = {id(cell): column for column, cell in enumerate(row)}
    parser.literals[mark:] = [(token, (number, column_of[id(node)]))
                              for token, node in parser.literals[mark:]]
    return tuple(cell.value for cell in row)


# ---------------------------------------------------------------------------
# DELETE / DROP / EXPORT / IMPORT
# ---------------------------------------------------------------------------

def parse_delete(parser) -> ast.Statement:
    parser.expect_keyword("DELETE")
    parser.expect_keyword("FROM")
    if parser.peek().is_keyword("MINING") and parser.peek(1).is_keyword("MODEL"):
        parser.advance()
        parser.advance()
        name = parser.expect_identifier("model name")
        return ast.DeleteModelStatement(name=name)
    name = parser.expect_identifier("table name")
    where = None
    if parser.accept_keyword("WHERE"):
        where = parser.parse_expression()
    return ast.DeleteStatement(table=name, where=where)


def parse_drop(parser) -> ast.Statement:
    parser.expect_keyword("DROP")
    if parser.peek().is_keyword("MINING"):
        parser.advance()
        parser.expect_keyword("MODEL")
        if_exists = _accept_if_exists(parser)
        name = parser.expect_identifier("model name")
        return ast.DropMiningModelStatement(name=name, if_exists=if_exists)
    if parser.peek().is_keyword("INDEX"):
        parser.advance()
        if_exists = _accept_if_exists(parser)
        name = parser.expect_identifier("index name")
        parser.expect_keyword("ON")
        table = parser.expect_identifier("table name")
        return ast.DropIndexStatement(name=name, table=table,
                                      if_exists=if_exists)
    parser.expect_keyword("TABLE", "VIEW")
    if_exists = _accept_if_exists(parser)
    name = parser.expect_identifier("table name")
    return ast.DropTableStatement(name=name, if_exists=if_exists)


def _accept_if_exists(parser) -> bool:
    if parser.peek().is_keyword("IF") and parser.peek(1).is_keyword("EXISTS"):
        parser.advance()
        parser.advance()
        return True
    return False


def parse_export(parser) -> ast.ExportModelStatement:
    parser.expect_keyword("EXPORT")
    parser.expect_keyword("MINING")
    parser.expect_keyword("MODEL")
    name = parser.expect_identifier("model name")
    parser.expect_keyword("TO")
    token = parser.peek()
    if token.kind is not TokenKind.STRING:
        raise parser.error("expected a quoted file path")
    parser.advance()
    return ast.ExportModelStatement(name=name, path=token.value)


def parse_import(parser) -> ast.ImportModelStatement:
    parser.expect_keyword("IMPORT")
    parser.expect_keyword("MINING")
    parser.expect_keyword("MODEL")
    parser.expect_keyword("FROM")
    token = parser.peek()
    if token.kind is not TokenKind.STRING:
        raise parser.error("expected a quoted file path")
    parser.advance()
    rename_to = None
    if parser.accept_keyword("AS"):
        rename_to = parser.expect_identifier("model name")
    return ast.ImportModelStatement(path=token.value, rename_to=rename_to)
