"""Property: format(parse(format(ast))) is a fixed point, for random ASTs."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import ast_nodes as ast
from repro.lang.formatter import format_expression, format_statement
from repro.lang.normalizer import normalize_statement
from repro.lang.parser import parse_expression, parse_statement

# Identifiers: printable, no control characters; brackets are escaped by the
# formatter so ']' is fair game.
identifiers = st.text(
    alphabet=string.ascii_letters + string.digits + " _]",
    min_size=1, max_size=12).filter(lambda s: s.strip() == s and s.strip())

literals = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-10**9, max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(alphabet=string.printable, max_size=20),
).map(ast.Literal)

column_refs = st.lists(identifiers, min_size=1, max_size=3).map(
    lambda parts: ast.ColumnRef(parts=tuple(parts)))

# Function names are bare identifiers: letter/underscore first, and never a
# keyword that would change the parse (NOT, CASE, NULL, ...).
_RESERVED = {"NOT", "CASE", "NULL", "TRUE", "FALSE", "AND", "OR", "IS",
             "IN", "BETWEEN", "LIKE", "SELECT", "END", "WHEN", "THEN",
             "ELSE", "DISTINCT"}
function_names = st.text(
    alphabet=string.ascii_letters + "_", min_size=1, max_size=10).filter(
    lambda s: s.upper() not in _RESERVED)


def expressions(max_depth=3):
    base = st.one_of(literals, column_refs)
    if max_depth == 0:
        return base
    sub = expressions(max_depth - 1)
    return st.one_of(
        base,
        st.tuples(st.sampled_from(["+", "-", "*", "/", "=", "<>", "<",
                                   "<=", ">", ">=", "AND", "OR", "||"]),
                  sub, sub).map(lambda t: ast.BinaryOp(*t)),
        sub.map(lambda e: ast.UnaryOp("NOT", e)),
        sub.map(lambda e: ast.UnaryOp("-", e)),
        st.tuples(sub, st.booleans()).map(
            lambda t: ast.IsNull(t[0], negated=t[1])),
        st.tuples(sub, st.lists(sub, min_size=1, max_size=3),
                  st.booleans()).map(
            lambda t: ast.InList(t[0], items=t[1], negated=t[2])),
        st.tuples(sub, sub, sub, st.booleans()).map(
            lambda t: ast.Between(t[0], low=t[1], high=t[2],
                                  negated=t[3])),
        st.tuples(function_names, st.lists(sub, max_size=3)).map(
            lambda t: ast.FuncCall(name=t[0], args=t[1])),
    )


@given(expressions())
@settings(max_examples=200)
def test_expression_round_trip(expr):
    # One parse normalises (e.g. the literal -1 becomes unary minus on 1);
    # after that, format/parse must be a fixed point.
    normalized = format_expression(parse_expression(format_expression(expr)))
    assert format_expression(parse_expression(normalized)) == normalized


select_items = st.lists(
    st.tuples(expressions(2), st.one_of(st.none(), identifiers)).map(
        lambda t: ast.SelectItem(t[0], t[1])),
    min_size=1, max_size=4)


@st.composite
def select_statements(draw):
    statement = ast.SelectStatement()
    statement.select_list = draw(select_items)
    if draw(st.booleans()):
        statement.from_clause = ast.NamedTable(
            name=draw(identifiers),
            alias=draw(st.one_of(st.none(), identifiers)))
        if draw(st.booleans()):
            statement.where = draw(expressions(2))
        if draw(st.booleans()):
            statement.order_by = [
                ast.OrderItem(draw(expressions(1)), draw(st.booleans()))]
        if draw(st.booleans()):
            statement.group_by = [draw(column_refs)]
    if draw(st.booleans()):
        statement.distinct = True
    if draw(st.booleans()):
        statement.top = draw(st.integers(min_value=0, max_value=1000))
    return statement


@given(select_statements())
@settings(max_examples=150)
def test_select_round_trip(statement):
    normalized = format_statement(parse_statement(format_statement(statement)))
    assert format_statement(parse_statement(normalized)) == normalized


@st.composite
def model_columns(draw, allow_table=True):
    name = draw(identifiers)
    if allow_table and draw(st.integers(0, 4)) == 0:
        nested = [draw(model_columns(allow_table=False))
                  for _ in range(draw(st.integers(1, 3)))]
        # ensure a key
        nested[0].content_type = "KEY"
        nested[0].qualifier = None
        nested[0].predict = False
        return ast.ModelColumnDef(name=name, nested_columns=nested)
    column = ast.ModelColumnDef(
        name=name,
        data_type=draw(st.sampled_from(["LONG", "DOUBLE", "TEXT"])),
        content_type=draw(st.one_of(
            st.none(), st.sampled_from(["DISCRETE", "KEY", "ORDERED"]))),
        predict=draw(st.booleans()))
    if column.data_type == "DOUBLE" and draw(st.booleans()):
        column.content_type = "DISCRETIZED"
        column.discretization_method = draw(st.sampled_from(
            ["EQUAL_RANGE", "EQUAL_COUNT", "CLUSTERS"]))
        column.discretization_buckets = draw(st.integers(2, 10))
    if column.content_type == "KEY":
        column.predict = False
    return column


@st.composite
def create_model_statements(draw):
    columns = [draw(model_columns())
               for _ in range(draw(st.integers(1, 5)))]
    # unique names
    seen = set()
    unique_columns = []
    for column in columns:
        if column.name.upper() not in seen:
            seen.add(column.name.upper())
            unique_columns.append(column)
    return ast.CreateMiningModelStatement(
        name=draw(identifiers), columns=unique_columns,
        algorithm=draw(st.sampled_from(
            ["Repro_Decision_Trees", "Custom_Algo_99"])),
        parameters=draw(st.lists(
            st.tuples(st.sampled_from(["A", "B2", "LONG_NAME"]),
                      st.one_of(st.integers(0, 99),
                                st.sampled_from(["x", "y"]))),
            max_size=2, unique_by=lambda t: t[0])))


@given(create_model_statements())
@settings(max_examples=150)
def test_create_mining_model_round_trip(statement):
    text = format_statement(statement)
    reparsed = parse_statement(text)
    assert format_statement(reparsed) == text


# A VALUES cell: a literal (a negative number among them), a keyword, a
# negated number, or an expression.  A row whose every cell is a plain
# literal parses to a tuple of values, any other row to its expressions.
value_cells = st.one_of(
    literals,
    st.sampled_from([None, True, False]).map(ast.Literal),
    st.integers(min_value=0, max_value=10**9).map(
        lambda n: ast.UnaryOp("-", ast.Literal(n))),
    expressions(1))


@st.composite
def insert_values_statements(draw):
    rows = draw(st.lists(st.lists(value_cells, min_size=1, max_size=4),
                         min_size=1, max_size=4))
    columns = draw(st.lists(identifiers, max_size=3))
    return ast.InsertValuesStatement(table=draw(identifiers),
                                     columns=columns, rows=rows)


@given(insert_values_statements())
def test_insert_values_round_trip(statement):
    parsed = parse_statement(format_statement(statement))
    assert parse_statement(format_statement(parsed)) == parsed
    normalized = normalize_statement(parsed)
    assert normalize_statement(parse_statement(normalized)) == normalized
