"""``ast.children`` and ``ast.conjuncts``: the one child enumeration and
the one AND-flattener every tree walk in ``src/`` reads."""

import dataclasses
import typing

import pytest

from repro.lang import ast_nodes as ast
from repro.lang.parser import parse_expression

EXPR_CLASSES = sorted(ast.Expr.__subclasses__(), key=lambda c: c.__name__)


def _mentions_expr(hint) -> bool:
    return hint is ast.Expr or any(
        _mentions_expr(arg) for arg in typing.get_args(hint))


def _build(hint, fresh):
    """A value of the annotated shape whose every ``Expr`` position holds a
    distinct node from ``fresh``."""
    if hint is ast.Expr:
        return fresh()
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        return _build(next(a for a in args if a is not type(None)), fresh)
    if origin is list:
        return [_build(args[0], fresh), _build(args[0], fresh)]
    if origin is tuple:
        return tuple(_build(arg, fresh) for arg in args)
    raise AssertionError(f"unexpected expression-typed annotation {hint!r}")


@pytest.mark.parametrize("cls", EXPR_CLASSES, ids=lambda c: c.__name__)
def test_children_covers_every_expression_typed_field(cls):
    """Derived from the dataclass annotations, so a node type added with an
    ``Expr`` field that ``children`` does not enumerate fails here — no
    walker can forget it on its own any more."""
    hints = typing.get_type_hints(cls, vars(ast))
    made = []

    def fresh():
        made.append(ast.Literal(len(made)))
        return made[-1]

    arguments = {}
    for field in dataclasses.fields(cls):
        if _mentions_expr(hints[field.name]):
            arguments[field.name] = _build(hints[field.name], fresh)
        elif field.default is dataclasses.MISSING and \
                field.default_factory is dataclasses.MISSING:
            arguments[field.name] = "x"
    found = ast.children(cls(**arguments))
    # Every one, in field (= evaluation) order, by identity, none twice.
    assert [id(node) for node in found] == [id(node) for node in made]


def test_every_expression_class_is_a_dataclass_the_check_can_read():
    assert len(EXPR_CLASSES) == 13
    assert all(dataclasses.is_dataclass(cls) for cls in EXPR_CLASSES)


def test_children_of_parsed_expressions():
    case = parse_expression("CASE WHEN a THEN b WHEN c THEN d END")
    assert [child.name for child in ast.children(case)] == list("abcd")
    in_select = parse_expression("a + 1 IN (SELECT v FROM S)")
    assert ast.children(in_select) == [in_select.operand]
    assert ast.children(parse_expression("(SELECT v FROM S)")) == []
    assert ast.children(parse_expression("COUNT(*)")) == [ast.Star()]


def test_conjuncts_flattens_left_to_right_whatever_the_nesting():
    names = lambda expr: [c.name for c in ast.conjuncts(expr)]
    assert names(parse_expression("a AND b AND c AND d")) == list("abcd")
    assert names(parse_expression("a AND (b AND (c AND d))")) == list("abcd")
    assert names(parse_expression("(a AND b) AND (c AND d)")) == list("abcd")


def test_conjuncts_stops_at_anything_that_is_not_a_top_level_and():
    assert ast.conjuncts(None) == []
    single = parse_expression("a OR b AND c")
    assert ast.conjuncts(single) == [single]
    negated = parse_expression("NOT (a AND b)")
    assert ast.conjuncts(negated) == [negated]
    mixed = parse_expression("a AND (b OR c AND d)")
    assert [type(c).__name__ for c in ast.conjuncts(mixed)] == \
        ["ColumnRef", "BinaryOp"]


def test_conjuncts_of_a_long_chain_does_not_recurse():
    chain = ast.ColumnRef(("c0",))
    for position in range(1, 5000):
        chain = ast.BinaryOp("AND", chain, ast.ColumnRef((f"c{position}",)))
    assert [c.name for c in ast.conjuncts(chain)] == \
        [f"c{position}" for position in range(5000)]
