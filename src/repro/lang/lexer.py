"""Tokenizer shared by the SQL and DMX parsers.

Identifier syntax follows the paper's examples: bare identifiers
(``Customers``) and bracket-delimited identifiers that may contain spaces
(``[Age Prediction]``, ``[Product Purchases]``).  Keywords are not reserved at
the lexer level; the parsers compare identifier spellings case-insensitively,
which keeps contextual keywords (KEY, TABLE, PREDICT, ...) usable as column
names when bracketed.

Comment forms: ``--`` and ``//`` and ``%`` to end of line (the paper annotates
its examples with ``%``), and ``/* ... */`` blocks.

The text is scanned once, by one compiled pattern (:class:`Scan`): each match
is one token plus the trivia after it.  A scan can be read two ways —
:meth:`Scan.tokens` builds the :class:`Token` list the parser walks, and
:meth:`Scan.shape` gives the statement's *shape* (every token but the values
of its NUMBER/STRING literals) and those values, without building a token,
which is all the statement-template cache needs to recognise a statement it
has parsed before (:mod:`repro.lang.templates`).
"""

from __future__ import annotations

import enum
import re
from bisect import bisect_left
from operator import add
from typing import List, Optional, Tuple

from repro.errors import ParseError


class TokenKind(enum.Enum):
    IDENT = "IDENT"            # bare identifier (or contextual keyword)
    BRACKET_IDENT = "BRACKET"  # [delimited identifier]
    NUMBER = "NUMBER"
    STRING = "STRING"
    SYMBOL = "SYMBOL"
    EOF = "EOF"


_SYMBOLS = frozenset((
    "<>", "!=", "<=", ">=", "||",
    "(", ")", "{", "}", ",", ".", ";", "=", "<", ">", "+", "-",
    "*", "/", "$"))

# Whitespace and comments.  A `/*` with no `*/` is not trivia: it is left
# for the token alternatives, none of which takes it, so it ends the scan.
_TRIVIA = (r"[ \t\r\n]*"
           r"(?:(?:(?:--|//|%)[^\n]*|/\*.*?\*/)[ \t\r\n]*)*")

_LEADING = re.compile(_TRIVIA, re.DOTALL)

# One token, then the trivia after it.  Groups: (1) a symbol, bare or
# bracketed identifier exactly as spelled, (2) a number, (3) a string with
# its quotes, (4) the trivia.  A closing `]`/quote is one not followed by
# its double, so `[a]]` and `'it''` are unterminated, as the doubled-
# delimiter escape demands.  Text no alternative takes (a stray character,
# an unterminated string / [identifier / comment) is swallowed whole by
# `.+`: the first lexical error is the only one reported, and nothing
# after it can make the scan slow.  The last row is always end-of-text.
_MASTER = re.compile(
    r"(?:("
    r"[(){},;=+\-*$]|\.(?!\d)|<[>=]?|>=?|!=|\|\||/(?!\*)"
    r"|[A-Za-z_@][\w@#]*"
    r"|\[(?:[^\]]|\]\])*\](?!\])"
    # A word that starts outside ASCII; \w is wider than str.isalpha(),
    # which Scan.tokens() applies to the first character.
    r"|(?![\x00-\x7f])[^\W\d][\w@#]*"
    r")|("
    r"(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][+-]?\d+)?"
    r")|("
    r"'[^']*(?:''[^']*)*'(?!')|\"[^\"]*(?:\"\"[^\"]*)*\"(?!\")"
    r")|\Z|.+)(" + _TRIVIA + ")",
    re.DOTALL)

_NEWLINE = re.compile("\n")

_NO_TOKEN = ("", "", "")


class Token:
    """One lexical token with its source position (1-based line/column)."""

    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind: TokenKind, value, line: int, column: int):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column

    @property
    def upper(self) -> str:
        """Case-folded spelling; used for keyword comparison."""
        return self.value.upper() if isinstance(self.value, str) else ""

    def is_keyword(self, *words: str) -> bool:
        """True if this is a bare identifier spelling any of ``words``."""
        return self.kind is TokenKind.IDENT and self.upper in words

    def is_symbol(self, *symbols: str) -> bool:
        return self.kind is TokenKind.SYMBOL and self.value in symbols

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.value!r}, {self.line}:{self.column})"


def _literal(raw: str):
    """The value of a NUMBER or STRING literal from its source spelling."""
    quote = raw[0]
    if quote == "'" or quote == '"':
        return raw[1:-1].replace(quote + quote, quote)
    return int(raw) if raw.isdecimal() else float(raw)


class Scan:
    """One pass of the master pattern over a command text."""

    __slots__ = ("text", "start", "rows")

    def __init__(self, text: str):
        self.text = text
        self.start = _LEADING.match(text).end()
        self.rows = _MASTER.findall(text, self.start)

    def shape(self) -> Optional[Tuple[tuple, list]]:
        """``(key, values)``: the token stream with its NUMBER/STRING
        values taken out, and those values in source order.

        Two texts have equal keys exactly when their token streams agree
        on everything but literal values — kind of every token, spelling
        of every identifier, bare or bracketed.  None when the text has a
        stray character or an unterminated construct (:meth:`tokens` says
        which); other lexical errors surface there too.
        """
        rows = self.rows
        if len(rows) > 1 and rows[-2][:3] == _NO_TOKEN:
            return None
        spelled, numbers, strings, _ = zip(*rows)
        # A literal's slot is an empty spelling; the mask tells its kind.
        key = (spelled, tuple(map(bool, strings)))
        # _literal, inline: this runs once per literal of every statement.
        values = [raw[1:-1].replace(raw[0] * 2, raw[0]) if raw[0] in "'\""
                  else int(raw) if raw.isdecimal() else float(raw)
                  for raw in filter(None, map(add, numbers, strings))]
        return key, values

    def tokens(self) -> List[Token]:
        """Every token, ending with a single EOF token."""
        text = self.text
        breaks = [m.start() for m in _NEWLINE.finditer(text)] \
            if "\n" in text else None
        IDENT, BRACKET = TokenKind.IDENT, TokenKind.BRACKET_IDENT
        NUMBER, STRING = TokenKind.NUMBER, TokenKind.STRING
        SYMBOL = TokenKind.SYMBOL
        symbols = _SYMBOLS
        tokens: List[Token] = []
        append = tokens.append
        pos = self.start
        line, row = 1, 0
        for spelled, number, string, trivia in self.rows:
            if breaks is None:
                column = pos + 1
            else:
                row = bisect_left(breaks, pos, row)
                line = row + 1
                column = pos - breaks[row - 1] if row else pos + 1
            if spelled:
                if spelled in symbols:
                    append(Token(SYMBOL, spelled, line, column))
                elif spelled[0] == "[":
                    name = spelled[1:-1].replace("]]", "]")
                    if not name.strip():
                        raise ParseError("empty [identifier]", line, column)
                    append(Token(BRACKET, name, line, column))
                elif spelled[0] > "\x7f" and not spelled[0].isalpha():
                    break  # \w but not a letter (½, ²): a stray character
                else:
                    append(Token(IDENT, spelled, line, column))
            elif number:
                append(Token(NUMBER, _literal(number), line, column))
            elif string:
                append(Token(STRING, _literal(string), line, column))
            else:
                break  # end of text, or text no alternative took
            pos += len(spelled) + len(number) + len(string) + len(trivia)
        if pos < len(text):
            raise self._error(pos, line, column, breaks)
        append(Token(TokenKind.EOF, "", line, column))
        return tokens

    def _error(self, pos: int, line: int, column: int,
               breaks: Optional[List[int]]) -> ParseError:
        """The error of the text no token alternative took at ``pos``."""
        text = self.text
        char = text[pos]
        if char == "[":
            message = "unterminated [identifier"
        elif char == "'" or char == '"':
            message = "unterminated string literal"
        elif text.startswith("/*", pos):
            message = "unterminated /* comment"
        else:
            return ParseError(f"unexpected character {char!r}", line, column)
        # An unterminated construct is discovered at the end of the text.
        if not breaks:
            return ParseError(message, 1, len(text) + 1)
        return ParseError(message, len(breaks) + 1, len(text) - breaks[-1])


def tokenize(text: str) -> List[Token]:
    """Tokenize ``text`` fully (EOF token included)."""
    return Scan(text).tokens()
