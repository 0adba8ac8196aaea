"""Lexer, AST, parser and formatter for the SQL core and the DMX extensions.

One grammar serves both layers: the relational engine executes the SQL subset,
and the mining provider executes the DMX statements (CREATE MINING MODEL,
INSERT INTO ... SHAPE, PREDICTION JOIN, content queries).  The paper's own
example statements from section 3 parse verbatim, including its ``%`` line
comments.
"""

from repro.lang.lexer import Token, TokenKind, tokenize
from repro.lang.parser import Parser, parse_statement, parse_expression
from repro.lang.formatter import format_statement, format_expression

__all__ = [
    "Token",
    "TokenKind",
    "tokenize",
    "Parser",
    "parse_statement",
    "parse_expression",
    "format_statement",
    "format_expression",
]
