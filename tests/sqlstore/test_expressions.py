"""Expression evaluation: operators, three-valued logic, functions."""

import datetime
import gc
import sqlite3
import weakref

import numpy as np
import pytest

from repro.errors import BindError, Error, TypeError_
from repro.lang.parser import parse_expression, parse_statement
from repro.sqlstore.expressions import (
    EvalContext,
    compile_expression,
    contains_aggregate,
    evaluate,
    like_match,
    like_regex,
)

from tests.reference.reference_evaluator import (
    reference_context,
    reference_evaluate,
)


def interpreted(text, names=(), row=(), qualifier=None):
    context = EvalContext.from_names(list(names), qualifier)
    return reference_evaluate(parse_expression(text),
                              reference_context(context, tuple(row)))


def compiled(text, names=(), row=(), qualifier=None):
    context = EvalContext.from_names(list(names), qualifier)
    return compile_expression(parse_expression(text), context)(tuple(row))


@pytest.fixture(params=[interpreted, compiled])
def eval_expr(request):
    """Every assertion below holds on the reference interpreter and on the
    compiled closure alike."""
    return request.param


class TestArithmetic:
    def test_precedence(self, eval_expr):
        assert eval_expr("1 + 2 * 3") == 7
        assert eval_expr("(1 + 2) * 3") == 9

    def test_unary_minus(self, eval_expr):
        assert eval_expr("-5 + 2") == -3
        assert eval_expr("-(-5)") == 5

    def test_double_dash_is_a_comment_not_double_negation(self):
        # '--' starts a line comment (SQL convention), so '--5' is empty.
        from repro.errors import ParseError
        with pytest.raises(ParseError):
            parse_expression("--5")

    def test_division_by_zero_is_null(self, eval_expr):
        assert eval_expr("1 / 0") is None

    def test_null_propagates_through_arithmetic(self, eval_expr):
        assert eval_expr("1 + NULL") is None

    def test_concat(self, eval_expr):
        assert eval_expr("'a' || 'b'") == "ab"


class TestComparisons:
    def test_basic(self, eval_expr):
        assert eval_expr("2 > 1") is True
        assert eval_expr("2 <= 1") is False
        assert eval_expr("2 <> 3") is True
        assert eval_expr("2 != 3") is True

    def test_null_comparison_unknown(self, eval_expr):
        assert eval_expr("NULL = 1") is None
        assert eval_expr("NULL <> 1") is None

    def test_is_null(self, eval_expr):
        assert eval_expr("NULL IS NULL") is True
        assert eval_expr("1 IS NOT NULL") is True

    def test_between(self, eval_expr):
        assert eval_expr("5 BETWEEN 1 AND 10") is True
        assert eval_expr("5 NOT BETWEEN 1 AND 10") is False
        assert eval_expr("NULL BETWEEN 1 AND 10") is None

    @pytest.mark.parametrize("text, expected", [
        # BETWEEN is `x >= low AND x <= high`: a FALSE side decides.
        ("5 BETWEEN 6 AND NULL", False),
        ("5 NOT BETWEEN 6 AND NULL", True),
        ("5 NOT BETWEEN NULL AND 4", True),
        ("5 NOT BETWEEN -6 - 1 AND NULL", None),
        ("-5 NOT BETWEEN -4 AND NULL", True),
        ("5 NOT BETWEEN 1 AND NULL", None),
        ("5 BETWEEN NULL AND 10", None),
        ("NULL NOT BETWEEN 1 AND 10", None),
    ])
    def test_between_with_a_null_bound_is_the_conjunction(
            self, eval_expr, text, expected):
        assert eval_expr(text) is expected

    def test_in_list(self, eval_expr):
        assert eval_expr("2 IN (1, 2, 3)") is True
        assert eval_expr("9 IN (1, 2, 3)") is False
        assert eval_expr("9 NOT IN (1, 2, 3)") is True

    def test_in_list_with_null_is_unknown_when_absent(self, eval_expr):
        assert eval_expr("9 IN (1, NULL)") is None
        assert eval_expr("1 IN (1, NULL)") is True


class TestBooleans:
    def test_short_circuit_and(self, eval_expr):
        assert eval_expr("FALSE AND (1/0 = 1)") is False

    def test_three_valued(self, eval_expr):
        assert eval_expr("TRUE AND NULL") is None
        assert eval_expr("TRUE OR NULL") is True
        assert eval_expr("NOT NULL") is None

    def test_a_numpy_number_is_a_truth_value(self, eval_expr):
        # A predicted continuous column is a numpy float; as a condition
        # it is TRUE or FALSE, never a numpy bool that AND reads as NULL.
        names, row = ["a", "b"], (np.float64(36.0), np.float64(0.0))
        assert eval_expr("a AND 1", names, row) is True
        assert eval_expr("b OR a", names, row) is True
        assert eval_expr("NOT b", names, row) is True


class TestCase:
    def test_searched_case(self, eval_expr):
        assert eval_expr(
            "CASE WHEN 1 > 2 THEN 'a' WHEN 2 > 1 THEN 'b' ELSE 'c' END") \
            == "b"

    def test_case_without_else_is_null(self, eval_expr):
        assert eval_expr("CASE WHEN FALSE THEN 1 END") is None


class TestLike:
    def test_percent(self, eval_expr):
        assert eval_expr("'Hamburger' LIKE 'Ham%'") is True
        assert eval_expr("'Ham' LIKE '%urger'") is False

    def test_underscore(self, eval_expr):
        assert eval_expr("'cat' LIKE 'c_t'") is True

    def test_case_insensitive(self, eval_expr):
        assert eval_expr("'HAM' LIKE 'ham'") is True

    def test_like_match_escapes_regex_chars(self):
        assert like_match("a.b", "a.b")
        assert not like_match("axb", "a.b")

    def test_regex_metacharacters_and_newline_in_pattern(self, eval_expr):
        names, pattern = ["v", "p"], "(a+b)\n[c]%^$_|"
        assert eval_expr("v LIKE p", names, ("(A+B)\n[C] x*y ^$?|", pattern)) \
            is True
        assert eval_expr("v LIKE p", names, ("(aab)\n[c]^$_|", pattern)) \
            is False
        assert eval_expr("v NOT LIKE p", names, ("(a+b) [c]^$_|", pattern)) \
            is True
        # '%' and '_' match a line break as any other character.
        assert eval_expr("v LIKE 'a%'", ["v"], ("a\nb",)) is True
        assert eval_expr("v LIKE 'a_b'", ["v"], ("a\nb",)) is True
        # A literal pattern (bound at compile time) and a column pattern
        # (translated per distinct text) agree.
        assert eval_expr("v LIKE '(a+b)%'", ["v"], ("(A+B).",)) is True

    @pytest.mark.parametrize("value, pattern", [
        ("B\nx", "B%"), ("a\nb", "a_b"), ("\n", "_"), ("\n\n", "%"),
        ("x\n", "%x"), ("B\nx", "b_X"), ("a\nb\nc", "a%c"), ("ab", "a\n%"),
    ])
    def test_newlines_match_as_sqlite_matches_them(self, value, pattern):
        """``%`` and ``_`` match a newline, as SQLite's LIKE does."""
        with sqlite3.connect(":memory:") as conn:
            (expected,), = conn.execute("SELECT ? LIKE ?", (value, pattern))
        assert like_match(value, pattern) is bool(expected)

    def test_one_translation_per_pattern(self):
        like_regex.cache_clear()
        for _ in range(50):
            assert like_match("Hamburger", "ham%")
        info = like_regex.cache_info()
        assert (info.misses, info.hits) == (1, 49)
        assert info.maxsize is not None  # bounded


class TestColumns:
    def test_qualified_and_bare(self, eval_expr):
        names, row = ["Age", "Gender"], (35.0, "Male")
        assert eval_expr("Age", names, row, qualifier="c") == 35.0
        assert eval_expr("c.Age", names, row, qualifier="c") == 35.0
        assert eval_expr("[c].[Gender]", names, row, qualifier="c") == "Male"

    def test_unknown_column(self, eval_expr):
        with pytest.raises(BindError, match="cannot resolve column 'Salary'"):
            eval_expr("Salary", ["Age"], (1.0,))

    def test_a_qualifier_no_column_carries_is_a_bind_error(self, eval_expr):
        for qualifier in ("c", None):
            with pytest.raises(BindError, match="cannot resolve column"):
                eval_expr("x.Age", ["Age"], (35.0,), qualifier=qualifier)


class TestBindTime:
    """Compiling binds names once, before any row; the interpreter binds
    per row and so never sees what a short-circuit skips."""

    def test_compile_raises_behind_a_short_circuit(self):
        assert interpreted("FALSE AND bogus = 1") is False
        with pytest.raises(BindError, match="cannot resolve column 'bogus'"):
            compiled("FALSE AND bogus = 1")
        assert interpreted("CASE WHEN TRUE THEN 1 ELSE NOSUCH(1) END") == 1
        with pytest.raises(BindError, match="unknown function 'NOSUCH'"):
            compiled("CASE WHEN TRUE THEN 1 ELSE NOSUCH(1) END")

    def test_compile_raises_without_a_row(self):
        context = EvalContext.from_names(["Age"])
        with pytest.raises(BindError, match="cannot resolve column 'Salary'"):
            compile_expression(parse_expression("Salary > 1"), context)
        with pytest.raises(Error, match="only valid in a select list"):
            compile_expression(parse_expression("LEN(*)"), context)

    def test_evaluate_is_the_one_shot_spelling_of_the_compiler(self):
        context = EvalContext.from_names(["a"]).with_row((3,))
        assert evaluate(parse_expression("a * 2"), context) == 6
        # One evaluator: the one-shot binds up front like any other.
        with pytest.raises(BindError, match="cannot resolve column 'bogus'"):
            evaluate(parse_expression("FALSE AND bogus = 1"), context)

    def test_closures_form_no_reference_cycle(self):
        # Freed by refcount the moment the operator drops them: nothing
        # for a gen-2 collection to find after a statement.
        context = EvalContext.from_names(["a", "b"])
        closure = compile_expression(parse_expression(
            "CASE WHEN a > 1 AND b LIKE 'x%' OR a IN (1, 2) THEN -a "
            "ELSE COALESCE(b, 'y') || 'z' END"), context)
        gc.disable()
        try:
            probe = weakref.ref(closure)
            del closure
            assert probe() is None
        finally:
            gc.enable()


class TestTypeErrors:
    """Python-level failures inside an expression are provider errors."""

    def test_unary_minus(self, eval_expr):
        with pytest.raises(TypeError_,
                           match=r"unary '-' cannot be applied to \(TEXT\)"):
            eval_expr("-b", ["b"], ("x",))

    def test_arithmetic(self, eval_expr):
        for op in "+-*/":
            with pytest.raises(TypeError_, match=(
                    rf"operator '\{op}' cannot be applied to "
                    rf"\(TEXT, DOUBLE\)")):
                eval_expr(f"b {op} 1.5", ["b"], ("x",))
        # DATE - DATE is an interval; an interval over a zero interval is
        # not the numeric ``/ 0`` that yields NULL.
        day = datetime.date(2001, 4, 2)
        with pytest.raises(TypeError_, match="operator '/' .* by zero"):
            eval_expr("(d - d) / (d - d)", ["d"], (day,))

    def test_function_arity_and_operand(self, eval_expr):
        with pytest.raises(TypeError_, match=(
                r"function LEN cannot be applied to \(TEXT, LONG\)")):
            eval_expr("LEN(b, 2)", ["b"], ("x",))
        with pytest.raises(TypeError_, match=(
                r"function ABS cannot be applied to \(TEXT\)")):
            eval_expr("abs(b)", ["b"], ("x",))
        with pytest.raises(TypeError_, match="function SQRT .* domain"):
            eval_expr("SQRT(-1)")
        with pytest.raises(TypeError_, match="function MOD .* zero"):
            eval_expr("MOD(1, 0)")


class TestScalarFunctions:
    def test_string_functions(self, eval_expr):
        assert eval_expr("UPPER('ham')") == "HAM"
        assert eval_expr("LOWER('HAM')") == "ham"
        assert eval_expr("LENGTH('abc')") == 3
        assert eval_expr("SUBSTRING('abcdef', 2, 3)") == "bcd"
        assert eval_expr("TRIM('  x ')") == "x"
        assert eval_expr("REPLACE('aXa', 'X', 'b')") == "aba"

    def test_math_functions(self, eval_expr):
        assert eval_expr("ABS(-3)") == 3
        assert eval_expr("ROUND(2.567, 1)") == 2.6
        assert eval_expr("FLOOR(2.9)") == 2
        assert eval_expr("CEILING(2.1)") == 3
        assert eval_expr("SQRT(16)") == 4.0
        assert eval_expr("POWER(2, 10)") == 1024.0
        assert eval_expr("MOD(7, 3)") == 1
        assert eval_expr("SIGN(-9)") == -1

    def test_null_handling_functions(self, eval_expr):
        assert eval_expr("COALESCE(NULL, NULL, 3)") == 3
        assert eval_expr("NULLIF(2, 2)") is None
        assert eval_expr("NULLIF(2, 3)") == 2
        assert eval_expr("IIF(TRUE, 'yes', 'no')") == "yes"

    def test_null_propagation_in_scalars(self, eval_expr):
        assert eval_expr("UPPER(NULL)") is None

    def test_unknown_function(self, eval_expr):
        with pytest.raises(BindError):
            eval_expr("FROBNICATE(1)")


class TestAggregateDetection:
    def test_detects_aggregates(self):
        assert contains_aggregate(parse_expression("COUNT(*)"))
        assert contains_aggregate(parse_expression("1 + SUM(x)"))
        assert contains_aggregate(
            parse_expression("CASE WHEN MAX(x) > 1 THEN 1 END"))

    def test_detects_an_aggregate_under_in_select(self):
        assert contains_aggregate(
            parse_expression("COUNT(*) IN (SELECT 3)"))
        assert contains_aggregate(
            parse_expression("NOT (1 + MAX(x)) NOT IN (SELECT 3)"))

    def test_plain_expressions(self):
        assert not contains_aggregate(parse_expression("UPPER(x) || 'a'"))
        # A subquery's own aggregates belong to the subquery.
        assert not contains_aggregate(
            parse_expression("x IN (SELECT MAX(v) FROM S)"))
        assert not contains_aggregate(
            parse_expression("(SELECT COUNT(*) FROM S)"))


def test_evaluate_takes_a_values_tuple_row_cell_as_its_value():
    """``benchmarks/e2e/tracing.py`` replays an INSERT by evaluating every
    cell of every VALUES row; a tuple row's cells are values already."""
    rows = parse_statement("INSERT INTO t VALUES (1, 'a', NULL), (-2)").rows
    context = EvalContext({}, ())
    assert [[evaluate(cell, context) for cell in row] for row in rows] == \
        [[1, "a", None], [-2]]
