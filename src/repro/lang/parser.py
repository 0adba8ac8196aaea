"""Recursive-descent parser for the SQL core and shared expression grammar.

DMX-specific statements (CREATE MINING MODEL, INSERT INTO model, EXPORT /
IMPORT) live in :mod:`repro.lang.dmx_parser`; this module owns the token
stream, expressions, SELECT (including PREDICTION JOIN and SHAPE sources),
and the plain-SQL statements.

Operator precedence, loosest to tightest::

    OR < AND < NOT < comparison/IS/IN/BETWEEN/LIKE < + - || < * / < unary -
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple, Union

from repro.errors import ParseError
from repro.lang import ast_nodes as ast
from repro.lang.lexer import Token, TokenKind, tokenize
from repro.obs import trace as obs_trace

# Keywords that terminate an expression or clause; a bare identifier in an
# alias position must not be one of these.
_CLAUSE_KEYWORDS = {
    "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "ON", "JOIN", "INNER",
    "LEFT", "CROSS", "NATURAL", "PREDICTION", "AND", "OR", "NOT", "AS",
    "APPEND", "RELATE", "USING", "VALUES", "SET", "TO", "BY", "ASC", "DESC",
    "UNION", "THEN", "ELSE", "END", "WHEN", "LIMIT", "TOP", "WITH", "MAXDOP",
}

# Nesting ceiling for recursive constructs (parenthesised expressions,
# subqueries, SHAPE trees).  Each level costs ~9 Python frames, so a hostile
# input could otherwise blow the interpreter recursion limit into a
# RecursionError — which is not our error type and not catchable as one.
MAX_NESTING = 64


class Parser:
    """One-statement-at-a-time parser over a token list."""

    def __init__(self, text: str, tokens: Optional[List[Token]] = None):
        self.text = text
        self.tokens: List[Token] = tokenize(text) if tokens is None \
            else tokens
        self.pos = 0
        self.depth = 0
        # (token index, where its value landed) of every NUMBER or STRING
        # token made a value: a Literal node, or the (row, column) cell of
        # a VALUES tuple row — what the template cache substitutes on a hit.
        self.literals: List[Tuple[int, Union[ast.Literal,
                                             Tuple[int, int]]]] = []

    def _enter(self) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            token = self.peek()
            raise ParseError(
                f"statement nesting exceeds the supported depth "
                f"({MAX_NESTING})", token.line, token.column)

    def _leave(self) -> None:
        self.depth -= 1

    # -- token-stream helpers -------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def error(self, message: str, token: Optional[Token] = None) -> ParseError:
        token = token or self.peek()
        return ParseError(f"{message}, found {token.value!r}",
                          token.line, token.column)

    def accept_keyword(self, *words: str) -> bool:
        if self.peek().is_keyword(*words):
            self.advance()
            return True
        return False

    def expect_keyword(self, *words: str) -> Token:
        if not self.peek().is_keyword(*words):
            raise self.error(f"expected {' or '.join(words)}")
        return self.advance()

    def accept_symbol(self, *symbols: str) -> bool:
        if self.peek().is_symbol(*symbols):
            self.advance()
            return True
        return False

    def expect_symbol(self, symbol: str) -> Token:
        if not self.peek().is_symbol(symbol):
            raise self.error(f"expected {symbol!r}")
        return self.advance()

    def at_identifier(self) -> bool:
        return self.peek().kind in (TokenKind.IDENT, TokenKind.BRACKET_IDENT)

    def expect_identifier(self, what: str = "identifier") -> str:
        token = self.peek()
        if token.kind not in (TokenKind.IDENT, TokenKind.BRACKET_IDENT):
            raise self.error(f"expected {what}")
        self.advance()
        return token.value

    def parse_list(self, parse_item: Callable[[], Any]) -> list:
        """``item [, item]...``: what ``parse_item`` makes of each."""
        items = [parse_item()]
        while self.accept_symbol(","):
            items.append(parse_item())
        return items

    def at_end(self) -> bool:
        return self.peek().kind is TokenKind.EOF or self.peek().is_symbol(";")

    # -- statements -----------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        """Parse one statement (SQL or DMX) and its optional ';'."""
        statement = self._parse_statement_body()
        self.accept_symbol(";")
        if not (self.peek().kind is TokenKind.EOF):
            raise self.error("unexpected trailing input")
        return statement

    def _parse_statement_body(self) -> ast.Statement:
        """The statement dispatch, without the ';'/EOF bookkeeping.

        Factored out so EXPLAIN can wrap any statement form the dispatcher
        knows about.
        """
        from repro.lang import dmx_parser

        token = self.peek()
        if token.is_keyword("SELECT"):
            statement = self.parse_select()
            if self.peek().is_keyword("UNION"):
                statement = self._parse_union_tail(statement)
        elif token.is_keyword("SHAPE"):
            # A bare SHAPE command materialises the hierarchical rowset.
            shape = self.parse_shape()
            statement = ast.SelectStatement(
                select_list=[ast.SelectItem(ast.Star())],
                from_clause=ast.ShapeSource(shape=shape))
        elif token.is_keyword("CREATE"):
            if self.peek(1).is_keyword("MINING"):
                statement = dmx_parser.parse_create_mining_model(self)
            elif self.peek(1).is_keyword("VIEW"):
                statement = self.parse_create_view()
            elif self.peek(1).is_keyword("INDEX"):
                statement = self.parse_create_index()
            else:
                statement = self.parse_create_table()
        elif token.is_keyword("INSERT"):
            statement = dmx_parser.parse_insert(self)
        elif token.is_keyword("DELETE"):
            statement = dmx_parser.parse_delete(self)
        elif token.is_keyword("UPDATE"):
            if self.peek(1).is_keyword("STATISTICS"):
                statement = self.parse_update_statistics()
            else:
                statement = self.parse_update()
        elif token.is_keyword("DROP"):
            statement = dmx_parser.parse_drop(self)
        elif token.is_keyword("EXPORT"):
            statement = dmx_parser.parse_export(self)
        elif token.is_keyword("IMPORT"):
            statement = dmx_parser.parse_import(self)
        elif token.is_keyword("TRACE"):
            statement = self.parse_trace()
        elif token.is_keyword("CANCEL"):
            statement = self.parse_cancel()
        elif token.is_keyword("EXPLAIN"):
            statement = self.parse_explain()
        else:
            raise self.error("expected a statement")
        return statement

    def parse_trace(self) -> ast.TraceStatement:
        """``TRACE ON | OFF | LAST | STATUS`` (STATUS if bare)."""
        self.expect_keyword("TRACE")
        if self.at_end():
            return ast.TraceStatement(mode="STATUS")
        token = self.expect_keyword("ON", "OFF", "LAST", "STATUS")
        return ast.TraceStatement(mode=token.upper)

    def parse_cancel(self) -> ast.CancelStatement:
        """``CANCEL <statement-id>`` — the id of a running DM_QUERY_LOG
        row."""
        self.expect_keyword("CANCEL")
        token = self.peek()
        if token.kind is not TokenKind.NUMBER or \
                not isinstance(token.value, int) or token.value <= 0:
            raise self.error("expected a positive statement id after CANCEL "
                             "(see $SYSTEM.DM_QUERY_LOG)")
        self.advance()
        return ast.CancelStatement(statement_id=token.value)

    def parse_explain(self) -> ast.ExplainStatement:
        """``EXPLAIN [ANALYZE] <statement>`` — wraps any plannable statement."""
        self.expect_keyword("EXPLAIN")
        analyze = self.accept_keyword("ANALYZE")
        token = self.peek()
        if token.is_keyword("EXPLAIN"):
            raise self.error("EXPLAIN cannot be nested")
        if token.is_keyword("TRACE"):
            raise self.error("EXPLAIN cannot wrap the TRACE verb")
        if token.is_keyword("CANCEL"):
            raise self.error("EXPLAIN cannot wrap the CANCEL verb")
        if self.at_end():
            raise self.error("expected a statement after EXPLAIN")
        inner = self._parse_statement_body()
        return ast.ExplainStatement(statement=inner, analyze=analyze)

    # -- SELECT ---------------------------------------------------------------

    def parse_select(self) -> ast.SelectStatement:
        self._enter()
        try:
            return self._parse_select_body()
        finally:
            self._leave()

    def _parse_select_body(self) -> ast.SelectStatement:
        self.expect_keyword("SELECT")
        statement = ast.SelectStatement()
        # FLATTENED / TOP n / DISTINCT may appear in any order.
        while True:
            if self.accept_keyword("FLATTENED"):
                statement.flattened = True
            elif self.accept_keyword("TOP"):
                token = self.peek()
                if token.kind is not TokenKind.NUMBER or \
                        not isinstance(token.value, int):
                    raise self.error("expected integer after TOP")
                self.advance()
                statement.top = token.value
            elif self.accept_keyword("DISTINCT"):
                statement.distinct = True
            else:
                break
        statement.select_list = self.parse_list(self._parse_select_item)
        if self.accept_keyword("FROM"):
            statement.from_clause = self._parse_from()
        if self.accept_keyword("WHERE"):
            statement.where = self.parse_expression()
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            statement.group_by = self.parse_list(self.parse_expression)
        if self.accept_keyword("HAVING"):
            statement.having = self.parse_expression()
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            statement.order_by = self.parse_list(self._parse_order_item)
        statement.maxdop = self.parse_maxdop_option()
        return statement

    def parse_maxdop_option(self) -> Optional[int]:
        """``WITH MAXDOP n`` — per-statement degree-of-parallelism cap.

        ``0`` means "use the provider's configured maximum" (SQL Server
        semantics); the option can only lower ``connect(max_workers=N)``,
        never raise it.
        """
        if not self.accept_keyword("WITH"):
            return None
        self.expect_keyword("MAXDOP")
        token = self.peek()
        if token.kind is not TokenKind.NUMBER or \
                not isinstance(token.value, int) or token.value < 0:
            raise self.error("expected a non-negative integer after MAXDOP")
        self.advance()
        return token.value

    def _parse_union_tail(self, first: ast.SelectStatement) -> ast.Statement:
        branches = [first]
        all_rows: List[bool] = []
        while self.accept_keyword("UNION"):
            all_rows.append(self.accept_keyword("ALL"))
            branches.append(self.parse_select())
        return ast.UnionStatement(branches=branches, all_rows=all_rows)

    def _parse_select_item(self) -> ast.SelectItem:
        if self.peek().is_symbol("*"):
            self.advance()
            return ast.SelectItem(ast.Star())
        # alias.* form
        if self.at_identifier() and self.peek(1).is_symbol(".") and \
                self.peek(2).is_symbol("*"):
            qualifier = self.expect_identifier()
            self.advance()  # .
            self.advance()  # *
            return ast.SelectItem(ast.Star(qualifier=qualifier))
        expr = self.parse_expression()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_identifier("alias")
        elif self.at_identifier() and self.peek().upper not in _CLAUSE_KEYWORDS:
            alias = self.expect_identifier()
        return ast.SelectItem(expr, alias)

    def _parse_order_item(self) -> ast.OrderItem:
        expr = self.parse_expression()
        ascending = True
        if self.accept_keyword("DESC"):
            ascending = False
        else:
            self.accept_keyword("ASC")
        return ast.OrderItem(expr, ascending)

    # -- FROM / table refs ----------------------------------------------------

    def _parse_from(self) -> ast.TableRef:
        ref = self._parse_joined_table()
        while self.accept_symbol(","):  # implicit cross join
            right = self._parse_joined_table()
            ref = ast.Join(kind="CROSS", left=ref, right=right)
        return ref

    def _parse_joined_table(self) -> ast.TableRef:
        ref = self._parse_primary_table()
        while True:
            token = self.peek()
            if token.is_keyword("PREDICTION") or (
                    token.is_keyword("NATURAL") and
                    self.peek(1).is_keyword("PREDICTION")):
                ref = self._parse_prediction_join(ref)
            elif token.is_keyword("JOIN", "INNER", "LEFT", "CROSS"):
                ref = self._parse_relational_join(ref)
            else:
                return ref

    def _parse_prediction_join(self, left: ast.TableRef) -> ast.TableRef:
        natural = self.accept_keyword("NATURAL")
        self.expect_keyword("PREDICTION")
        self.expect_keyword("JOIN")
        if not isinstance(left, ast.NamedTable):
            raise self.error("PREDICTION JOIN requires a mining model on the left")
        source = self._parse_primary_table()
        condition = None
        if self.accept_keyword("ON"):
            condition = self.parse_expression()
        if condition is None and not natural:
            raise self.error(
                "PREDICTION JOIN requires an ON clause (or use NATURAL)")
        return ast.PredictionJoin(model=left.name, source=source,
                                  natural=natural, condition=condition)

    def _parse_relational_join(self, left: ast.TableRef) -> ast.TableRef:
        kind = "INNER"
        if self.accept_keyword("INNER"):
            kind = "INNER"
        elif self.accept_keyword("LEFT"):
            kind = "LEFT"
            self.accept_keyword("OUTER")
        elif self.accept_keyword("CROSS"):
            kind = "CROSS"
        self.expect_keyword("JOIN")
        right = self._parse_primary_table()
        condition = None
        if kind != "CROSS":
            self.expect_keyword("ON")
            condition = self.parse_expression()
        return ast.Join(kind=kind, left=left, right=right, condition=condition)

    def _parse_primary_table(self) -> ast.TableRef:
        token = self.peek()
        if token.is_symbol("("):
            self._enter()
            try:
                return self._parse_paren_table()
            finally:
                self._leave()
        if token.is_keyword("SHAPE"):
            shape = self.parse_shape()
            return ast.ShapeSource(shape=shape, alias=self._parse_alias())
        if token.is_symbol("$"):
            self.advance()
            system = self.expect_identifier("SYSTEM")
            if system.upper() != "SYSTEM":
                raise self.error("expected $SYSTEM.<rowset>")
            self.expect_symbol(".")
            rowset = self.expect_identifier("schema rowset name")
            return ast.SystemRowsetRef(rowset=rowset.upper(),
                                       alias=self._parse_alias())
        name = self.expect_identifier("table or model name")
        if self.peek().is_symbol(".") and self.peek(1).kind in (
                TokenKind.IDENT, TokenKind.BRACKET_IDENT) and \
                self.peek(1).upper in ("CONTENT", "PMML", "CASES"):
            self.advance()
            facet = self.expect_identifier().upper()
            return ast.ModelContentRef(model=name, facet=facet,
                                       alias=self._parse_alias())
        return ast.NamedTable(name=name, alias=self._parse_alias())

    def _parse_paren_table(self) -> ast.TableRef:
        self.advance()  # consume "("
        if self.peek().is_keyword("SHAPE"):
            shape = self.parse_shape()
            self.expect_symbol(")")
            return ast.ShapeSource(shape=shape, alias=self._parse_alias())
        if self.peek().is_keyword("SELECT"):
            select = self.parse_select()
            self.expect_symbol(")")
            return ast.SubquerySource(select=select,
                                      alias=self._parse_alias())
        # Parenthesised table reference.
        ref = self._parse_from()
        self.expect_symbol(")")
        return ref

    def _parse_alias(self) -> Optional[str]:
        if self.accept_keyword("AS"):
            return self.expect_identifier("alias")
        if self.at_identifier() and self.peek().upper not in _CLAUSE_KEYWORDS:
            return self.expect_identifier()
        return None

    # -- SHAPE ----------------------------------------------------------------

    def parse_shape(self) -> ast.ShapeExpr:
        """``SHAPE {master} APPEND ({child} RELATE m TO c) AS name, ...``."""
        self._enter()
        try:
            return self._parse_shape_body()
        finally:
            self._leave()

    def _parse_shape_body(self) -> ast.ShapeExpr:
        self.expect_keyword("SHAPE")
        master = self._parse_shape_source()
        shape = ast.ShapeExpr(master=master)
        if self.accept_keyword("APPEND"):
            shape.appends = self.parse_list(self._parse_shape_append)
        return shape

    def _parse_shape_source(self) -> Union[ast.SelectStatement, ast.ShapeExpr]:
        if self.accept_symbol("{"):
            if self.peek().is_keyword("SHAPE"):
                inner = self.parse_shape()
            else:
                inner = self.parse_select()
            self.expect_symbol("}")
            return inner
        if self.peek().is_keyword("SHAPE"):
            return self.parse_shape()
        raise self.error("expected {query} or SHAPE in SHAPE clause")

    def _parse_shape_append(self) -> ast.ShapeAppend:
        self.expect_symbol("(")
        child = self._parse_shape_source()
        self.expect_keyword("RELATE")
        relate_master = self.expect_identifier("master column")
        self.expect_keyword("TO")
        relate_child = self.expect_identifier("child column")
        self.expect_symbol(")")
        self.expect_keyword("AS")
        alias = self.expect_identifier("nested table name")
        return ast.ShapeAppend(child=child, relate_master=relate_master,
                               relate_child=relate_child, alias=alias)

    # -- plain SQL DDL/DML ----------------------------------------------------

    def parse_create_table(self) -> ast.CreateTableStatement:
        self.expect_keyword("CREATE")
        self.expect_keyword("TABLE")
        name = self.expect_identifier("table name")
        self.expect_symbol("(")
        columns = self.parse_list(self._parse_column_def)
        self.expect_symbol(")")
        return ast.CreateTableStatement(name=name, columns=columns)

    def _parse_column_def(self) -> ast.ColumnDef:
        name = self.expect_identifier("column name")
        type_name = self.expect_identifier("type name")
        column = ast.ColumnDef(name=name, type_name=type_name.upper())
        while True:
            if self.accept_keyword("NOT"):
                self.expect_keyword("NULL")
                column.nullable = False
            elif self.accept_keyword("NULL"):
                column.nullable = True
            elif self.accept_keyword("PRIMARY"):
                self.expect_keyword("KEY")
                column.primary_key = True
                column.nullable = False
            else:
                return column

    def parse_create_index(self) -> ast.CreateIndexStatement:
        """``CREATE INDEX <name> ON <table> (<column>)``."""
        self.expect_keyword("CREATE")
        self.expect_keyword("INDEX")
        name = self.expect_identifier("index name")
        self.expect_keyword("ON")
        table = self.expect_identifier("table name")
        self.expect_symbol("(")
        column = self.expect_identifier("column name")
        self.expect_symbol(")")
        return ast.CreateIndexStatement(name=name, table=table, column=column)

    def parse_create_view(self) -> ast.CreateViewStatement:
        self.expect_keyword("CREATE")
        self.expect_keyword("VIEW")
        name = self.expect_identifier("view name")
        self.expect_keyword("AS")
        return ast.CreateViewStatement(name=name, select=self.parse_select())

    def parse_update(self) -> ast.UpdateStatement:
        self.expect_keyword("UPDATE")
        table = self.expect_identifier("table name")
        self.expect_keyword("SET")
        assignments = []
        while True:
            column = self.expect_identifier("column name")
            self.expect_symbol("=")
            assignments.append((column, self.parse_expression()))
            if not self.accept_symbol(","):
                break
        where = self.parse_expression() if self.accept_keyword("WHERE") else None
        return ast.UpdateStatement(table=table, assignments=assignments,
                                   where=where)

    def parse_update_statistics(self) -> ast.UpdateStatisticsStatement:
        """``UPDATE STATISTICS [<table>]`` (bare form refreshes every table)."""
        self.expect_keyword("UPDATE")
        self.expect_keyword("STATISTICS")
        table = None
        if not self.at_end():
            table = self.expect_identifier("table name")
        return ast.UpdateStatisticsStatement(table=table)

    # -- expressions ----------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        self._enter()
        try:
            return self._parse_or()
        finally:
            self._leave()

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self.peek().is_keyword("OR"):
            self.advance()
            left = ast.BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_not()
        while self.peek().is_keyword("AND"):
            self.advance()
            left = ast.BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Expr:
        if self.accept_keyword("NOT"):
            return ast.UnaryOp("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expr:
        left = self._parse_additive()
        token = self.peek()
        if token.is_symbol("=", "<>", "!=", "<", "<=", ">", ">="):
            op = "<>" if token.value == "!=" else token.value
            self.advance()
            return ast.BinaryOp(op, left, self._parse_additive())
        negated = False
        if token.is_keyword("NOT") and self.peek(1).is_keyword(
                "IN", "BETWEEN", "LIKE"):
            self.advance()
            negated = True
            token = self.peek()
        if token.is_keyword("IS"):
            self.advance()
            is_not = self.accept_keyword("NOT")
            self.expect_keyword("NULL")
            return ast.IsNull(left, negated=is_not)
        if token.is_keyword("IN"):
            self.advance()
            self.expect_symbol("(")
            if self.peek().is_keyword("SELECT"):
                select = self.parse_select()
                self.expect_symbol(")")
                return ast.InSelect(left, select=select, negated=negated)
            items = self.parse_list(self.parse_expression)
            self.expect_symbol(")")
            return ast.InList(left, items=items, negated=negated)
        if token.is_keyword("BETWEEN"):
            self.advance()
            low = self._parse_additive()
            self.expect_keyword("AND")
            high = self._parse_additive()
            return ast.Between(left, low=low, high=high, negated=negated)
        if token.is_keyword("LIKE"):
            self.advance()
            return ast.Like(left, pattern=self._parse_additive(),
                            negated=negated)
        return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while self.peek().is_symbol("+", "-", "||"):
            op = self.advance().value
            left = ast.BinaryOp(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while self.peek().is_symbol("*", "/"):
            op = self.advance().value
            left = ast.BinaryOp(op, left, self._parse_unary())
        return left

    def _parse_unary(self) -> ast.Expr:
        if self.peek().is_symbol("-"):
            self.advance()
            return ast.UnaryOp("-", self._parse_unary())
        if self.peek().is_symbol("+"):
            self.advance()
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        token = self.peek()
        if token.kind is TokenKind.NUMBER or token.kind is TokenKind.STRING:
            literal = ast.Literal(token.value)
            self.literals.append((self.pos, literal))
            self.advance()
            return literal
        if token.is_keyword("NULL"):
            self.advance()
            return ast.Literal(None)
        if token.is_keyword("TRUE"):
            self.advance()
            return ast.Literal(True)
        if token.is_keyword("FALSE"):
            self.advance()
            return ast.Literal(False)
        if token.is_keyword("CASE"):
            return self._parse_case()
        if token.is_symbol("("):
            self.advance()
            if self.peek().is_keyword("SELECT"):
                select = self.parse_select()
                self.expect_symbol(")")
                return ast.SubSelect(select=select)
            expr = self.parse_expression()
            self.expect_symbol(")")
            return expr
        if token.is_symbol("*"):
            self.advance()
            return ast.Star()
        if token.kind in (TokenKind.IDENT, TokenKind.BRACKET_IDENT):
            return self._parse_name_or_call()
        raise self.error("expected an expression")

    def _parse_case(self) -> ast.Expr:
        self.expect_keyword("CASE")
        whens = []
        while self.accept_keyword("WHEN"):
            condition = self.parse_expression()
            self.expect_keyword("THEN")
            whens.append((condition, self.parse_expression()))
        else_result = None
        if self.accept_keyword("ELSE"):
            else_result = self.parse_expression()
        self.expect_keyword("END")
        if not whens:
            raise self.error("CASE requires at least one WHEN")
        return ast.Case(whens=whens, else_result=else_result)

    def _parse_name_or_call(self) -> ast.Expr:
        first = self.expect_identifier()
        # Function call: a single bare name directly followed by '('.
        if self.peek().is_symbol("("):
            self.advance()
            distinct = False
            args: List[ast.Expr] = []
            if not self.peek().is_symbol(")"):
                if self.accept_keyword("DISTINCT"):
                    distinct = True
                args = self.parse_list(self._parse_func_arg)
            self.expect_symbol(")")
            return ast.FuncCall(name=first, args=args, distinct=distinct)
        parts = [first]
        while self.peek().is_symbol(".") and self.peek(1).kind in (
                TokenKind.IDENT, TokenKind.BRACKET_IDENT):
            self.advance()
            parts.append(self.expect_identifier())
        return ast.ColumnRef(parts=tuple(parts))

    def _parse_func_arg(self) -> ast.Expr:
        if self.peek().is_symbol("*"):
            self.advance()
            return ast.Star()
        return self.parse_expression()


def parse_statement(text: str) -> ast.Statement:
    """Parse a single SQL or DMX statement from ``text``."""
    with obs_trace.region("parse"):
        parser = Parser(text)
        statement = parser.parse_statement()
        obs_trace.add("tokens", len(parser.tokens))
        return statement


def parse_expression(text: str) -> ast.Expr:
    """Parse a standalone expression (used by tests and the REPL)."""
    parser = Parser(text)
    expr = parser.parse_expression()
    if not parser.at_end():
        raise parser.error("unexpected trailing input after expression")
    return expr
