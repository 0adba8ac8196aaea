"""The character-at-a-time lexer, kept as the differential oracle.

This is the tokenizer ``repro.lang.lexer`` shipped until the compiled
scanner replaced it: one ``_peek``/``_advance`` step per character, with the
line/column bookkeeping done in ``_advance``.  It defines by construction
what the scanner must produce — kind, value, line, column, and the
``ParseError`` message and position of every failure —
``tests/lang/test_lexer_differential.py`` holds the two equal over generated
text.

One deliberate difference from the retired class: a number starts at and
continues over ``str.isdecimal()`` characters, not ``str.isdigit()``.  The
old test let superscripts and other non-decimal digits (``²``) into
``int()``, which raised a raw ``ValueError``; they are now an ordinary
"unexpected character".  Arabic-Indic and other decimal digits still lex as
numbers, and ``a²`` is still one identifier.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.errors import ParseError
from repro.lang.lexer import Token, TokenKind


# Multi-character symbols first so maximal munch works.
_SYMBOLS = ("<>", "!=", "<=", ">=", "||",
            "(", ")", "{", "}", ",", ".", ";", "=", "<", ">", "+", "-",
            "*", "/", "$")


class Lexer:
    """Single-pass tokenizer with position tracking."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.column = 1

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.text[index] if index < len(self.text) else ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos < len(self.text):
                if self.text[self.pos] == "\n":
                    self.line += 1
                    self.column = 1
                else:
                    self.column += 1
                self.pos += 1

    def _error(self, message: str) -> ParseError:
        return ParseError(message, self.line, self.column)

    def _skip_trivia(self) -> None:
        while self.pos < len(self.text):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "%" or (ch == "-" and self._peek(1) == "-") or \
                    (ch == "/" and self._peek(1) == "/"):
                while self.pos < len(self.text) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                self._advance(2)
                while self.pos < len(self.text):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    raise self._error("unterminated /* comment")
            else:
                return

    def next_token(self) -> Token:
        self._skip_trivia()
        line, column = self.line, self.column
        if self.pos >= len(self.text):
            return Token(TokenKind.EOF, "", line, column)
        ch = self._peek()

        if ch == "[":
            return self._bracket_ident(line, column)
        if ch in "'\"":
            return self._string(ch, line, column)
        if ch.isdecimal() or (ch == "." and self._peek(1).isdecimal()):
            return self._number(line, column)
        if ch.isalpha() or ch == "_" or ch == "@":
            return self._ident(line, column)
        for symbol in _SYMBOLS:
            if self.text.startswith(symbol, self.pos):
                self._advance(len(symbol))
                return Token(TokenKind.SYMBOL, symbol, line, column)
        raise self._error(f"unexpected character {ch!r}")

    def _bracket_ident(self, line: int, column: int) -> Token:
        self._advance()  # consume [
        parts: List[str] = []
        while True:
            if self.pos >= len(self.text):
                raise self._error("unterminated [identifier")
            ch = self._peek()
            if ch == "]":
                if self._peek(1) == "]":  # escaped ]] inside identifier
                    parts.append("]")
                    self._advance(2)
                    continue
                self._advance()
                break
            parts.append(ch)
            self._advance()
        name = "".join(parts)
        if not name.strip():
            raise ParseError("empty [identifier]", line, column)
        return Token(TokenKind.BRACKET_IDENT, name, line, column)

    def _string(self, quote: str, line: int, column: int) -> Token:
        self._advance()
        parts: List[str] = []
        while True:
            if self.pos >= len(self.text):
                raise self._error("unterminated string literal")
            ch = self._peek()
            if ch == quote:
                if self._peek(1) == quote:  # doubled quote escape
                    parts.append(quote)
                    self._advance(2)
                    continue
                self._advance()
                break
            parts.append(ch)
            self._advance()
        return Token(TokenKind.STRING, "".join(parts), line, column)

    def _number(self, line: int, column: int) -> Token:
        start = self.pos
        seen_dot = False
        seen_exp = False
        while self.pos < len(self.text):
            ch = self._peek()
            if ch.isdecimal():
                self._advance()
            elif ch == "." and not seen_dot and not seen_exp and \
                    self._peek(1).isdecimal():
                seen_dot = True
                self._advance()
            elif ch in "eE" and not seen_exp and (
                    self._peek(1).isdecimal() or
                    (self._peek(1) in "+-" and self._peek(2).isdecimal())):
                seen_exp = True
                self._advance(2 if self._peek(1) in "+-" else 1)
            else:
                break
        text = self.text[start:self.pos]
        value = float(text) if (seen_dot or seen_exp) else int(text)
        return Token(TokenKind.NUMBER, value, line, column)

    def _ident(self, line: int, column: int) -> Token:
        start = self.pos
        while self.pos < len(self.text) and (
                self._peek().isalnum() or self._peek() in "_@#"):
            self._advance()
        return Token(TokenKind.IDENT, self.text[start:self.pos], line, column)

    def tokens(self) -> Iterator[Token]:
        """Yield every token, ending with a single EOF token."""
        while True:
            token = self.next_token()
            yield token
            if token.kind is TokenKind.EOF:
                return


def reference_tokenize(text: str) -> List[Token]:
    """Tokenize ``text`` fully (EOF token included)."""
    return list(Lexer(text).tokens())
