"""Differential: the compiled scanner vs the character-loop oracle.

``repro.lang.lexer.tokenize`` walks one compiled pattern;
``tests/reference/reference_lexer.py`` is the ``_peek``/``_advance`` loop it
replaced.  On any text the two must agree token for token — kind, value,
value type, line, column — or fail with the same ``ParseError``: message,
line and column.  The generated text mixes every comment form, the
``]]`` / ``''`` / ``""`` escapes, exponent edge cases, newlines inside and
between tokens, non-ASCII letters and digits, and stray characters.

Also pinned here: a digit that is not a *decimal* digit (``²``) is an
"unexpected character", embedded and over the wire — it used to reach
``int()`` and escape as a raw ``ValueError`` that tore a wire session down.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.client import connect as net_connect
from repro.errors import ParseError
from repro.lang.lexer import Scan, TokenKind, tokenize
from repro.server import DmxServer

from tests.reference.reference_lexer import reference_tokenize

FRAGMENTS = [
    # trivia
    " ", "  ", "\t", "\r\n", "\n", "\n\n  ",
    "-- dash\n", "-- dash", "// slash\n", "% percent\n", "%", "/* block */",
    "/* multi\nline */", "/**/", "/*", "*/", "/*/", "--", "//",
    # identifiers
    "a", "Customers", "_x", "@p", "a#b", "t1", "SELECT", "select", "é", "ü1",
    "a²", "[a]", "[Age Prediction]", "[a]]b]", "[a]]]", "[]]", "[ ]", "[]",
    "[a\nb]", "[", "]", "]]", "[a]] ]",
    # numbers
    "0", "42", "4711", "1.5", ".5", "1.", "1e5", "1E5", "1e+5", "1e-5", "1e",
    "1e+", "1.e", "1.e5", "1..2", "1.2.3", "1e5e3", "1.5e3.2", "1e309",
    "١٢", "١٢.٥", "²", "1²", "½", ".²", "1e²", "5a", "a.5", "a.b",
    # strings
    "'x'", "''", "'it''s'", "''''", "'''", "'a\nb'", "'100% proof'",
    "'-- no'", "'/* no */'", "'[no]'", '"x"', '""', '"a""b"', '"it\'s"',
    "'", '"', "'a' 'b'", "'a'b'",
    # symbols
    "(", ")", "{", "}", ",", ".", ";", "=", "<", ">", "+", "-", "*", "/",
    "$", "<>", "!=", "<=", ">=", "||", "<<", "=>", "<>=", "..",
    # stray characters
    "!", "|", "?", "\\", "#", "^", "&", "~", "`", ":", "€", "\x00", "\x0b",
    "\x0c", "\xa0", "\u2028",
]

texts = st.lists(
    st.one_of(st.sampled_from(FRAGMENTS),
              st.text(alphabet="ab1.'\"[]-/*%e+ \n", max_size=4)),
    max_size=14).map("".join)


def observe(lexer, text):
    try:
        return [(token.kind, token.value, type(token.value),
                 token.line, token.column) for token in lexer(text)]
    except ParseError as exc:
        return (str(exc), exc.line, exc.column)


@given(texts)
def test_scanner_matches_the_character_loop(text):
    assert observe(tokenize, text) == observe(reference_tokenize, text)


@pytest.mark.parametrize("text", FRAGMENTS + [
    "", "a\n  b", "abc\n  ?", "1 /* oops", "a\n'b\nc' d\n[e\nf] g",
    "\n\n'unterminated\n\n", "\n[unterminated\n", "a\n/* un\n",
    "/* a */ 1 -- c\n2 // d\n3 % e\n4", "a--b\nc", "a//b\nc", "a/*b*/c",
    "$SYSTEM.DM_QUERY_LOG", "1e5 1e 1.e .5 1..2", "\r\n a \r\n b",
    "SELECT [Customer ID], 'it''s' FROM t -- tail",
])
def test_pinned_texts_match_the_character_loop(text):
    assert observe(tokenize, text) == observe(reference_tokenize, text)


@given(texts)
def test_shape_values_are_the_literal_tokens_values(text):
    """``shape()`` converts the literal spellings itself, inline: value for
    value and class for class what ``tokens()`` puts in its tokens."""
    try:
        tokens = tokenize(text)
    except ParseError:
        return
    values = [token.value for token in tokens
              if token.kind in (TokenKind.NUMBER, TokenKind.STRING)]
    shaped = Scan(text).shape()[1]
    assert [(value, type(value)) for value in shaped] == \
        [(value, type(value)) for value in values]


def test_shape_is_the_token_stream_without_literal_values():
    """Equal keys: same tokens but for NUMBER/STRING values; trivia and the
    quote character do not count, kind and spelling do."""
    def key(text):
        return Scan(text).shape()[0]

    base = key("SELECT a FROM t WHERE id = 5 AND s = 'x'")
    assert key("select  a\nFROM t -- c\nWHERE id=7.5 AND s=\"it''s\"") != base
    assert key("SELECT  a\nFROM t -- c\nWHERE id=7.5 AND s=\"y\"") == base
    assert key("SELECT a FROM t WHERE id = 'x' AND s = 5") != base
    assert key("SELECT [a] FROM t WHERE id = 5 AND s = 'x'") != base
    assert key("SELECT a FROM t WHERE id = 5 AND s = 'x' ") == base
    assert key("SELECT a FROM t WHERE id = 5 AND s = 'x';") != base
    assert Scan("SELECT a FROM t WHERE id = 5 AND s = 'it''s'").shape()[1] \
        == [5, "it's"]
    # A lexical error has no shape: tokens() raises what went wrong.
    for broken in ("SELECT ?", "SELECT 'abc", "SELECT [abc", "SELECT /* x"):
        assert Scan(broken).shape() is None


# -- the non-decimal digit bug ----------------------------------------------------

SUPERSCRIPTS = [("SELECT ²", 8), ("SELECT 1²", 9), ("SELECT .²", 9)]


@pytest.mark.parametrize("text, column", SUPERSCRIPTS)
def test_non_decimal_digit_is_an_unexpected_character(text, column):
    with pytest.raises(ParseError) as caught:
        tokenize(text)
    assert str(caught.value) == \
        f"unexpected character '²' (line 1, column {column})"
    assert (caught.value.line, caught.value.column) == (1, column)


def test_decimal_digits_and_identifier_digits_lex_as_before():
    tokens = tokenize("١٢ ١٢.٥ a²")
    assert [(t.kind, t.value) for t in tokens[:-1]] == [
        (TokenKind.NUMBER, 12), (TokenKind.NUMBER, 12.5),
        (TokenKind.IDENT, "a²")]
    assert isinstance(tokens[0].value, int)


@pytest.mark.parametrize("text, column", SUPERSCRIPTS)
def test_non_decimal_digit_over_the_wire_keeps_the_session(text, column):
    conn = repro.connect()
    server = DmxServer(conn.provider, port=0)
    message = (f"unexpected character '²' (line 1, column {column}) "
               f"[in statement: {text}]")
    try:
        with pytest.raises(ParseError) as embedded:
            conn.execute(text)
        assert str(embedded.value) == message
        with net_connect("127.0.0.1", server.port) as client:
            with pytest.raises(ParseError) as wired:
                client.execute(text)
            assert str(wired.value) == message
            with pytest.raises(ParseError):
                client.execute_stream(text)
            assert client.execute("SELECT 1").rows == [(1,)]
    finally:
        server.close()
        conn.close()
    assert server.thread_errors == []
