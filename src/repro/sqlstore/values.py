"""SQL value semantics: NULL handling, equality, and ordering.

SQL three-valued logic is implemented with Python's ``None`` standing in for
both NULL and the UNKNOWN truth value.  The comparison helpers here are the
single source of truth for every WHERE clause, join predicate, ORDER BY, and
GROUP BY bucket in the engine: :func:`comparator` decides once per operator
where a literal's class lets a native comparison stand in for
:func:`sql_equal` / :func:`sql_compare`, and sends everything else to them.
"""

from __future__ import annotations

import datetime
from operator import eq, gt, lt
from typing import Any, Callable, Optional, Sequence

from repro.sqlstore.types import within_double

NULL = None

#: ``a <op> b`` is ``test(a, b) is not negated`` for two values of one
#: native class: ``>=`` is ``not a < b`` and ``<=`` is ``not a > b``, which
#: is what :func:`sql_compare`'s 0 for an unordered (NaN) pair makes them.
_TESTS = {"=": (eq, False), "<>": (eq, True), "<": (lt, False),
          ">=": (lt, True), ">": (gt, False), "<=": (gt, True)}
COMPARISONS = frozenset(_TESTS)
#: ``literal <op> value`` is ``value <MIRRORED[op]> literal``.
MIRRORED = {"=": "=", "<>": "<>", "<": ">", ">": "<", "<=": ">=", ">=": "<="}
NUMBER_TYPES, TEXT_TYPES = frozenset((int, float)), frozenset((str,))
_NO_TYPES = frozenset()


def is_null(value: Any) -> bool:
    """True when ``value`` is SQL NULL."""
    return value is None


def sql_equal(left: Any, right: Any) -> Optional[bool]:
    """SQL ``=``: NULL on either side yields UNKNOWN (None)."""
    if left is None or right is None:
        return None
    if isinstance(left, bool) != isinstance(right, bool):
        # Avoid bool == 1 surprises across declared types.
        left, right = _normalize_pair(left, right)
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        try:
            return float(left) == float(right)
        except OverflowError:  # an int past the float range: exactly, as
            return left == right  # sql_compare orders it
    return left == right


def sql_compare(left: Any, right: Any) -> Optional[int]:
    """Three-way comparison for SQL ``<``/``>``: None when either is NULL.

    Returns -1, 0, or 1.  Mixed numeric types compare numerically; anything
    else must be of matching Python type or the values compare as strings.
    """
    if left is None or right is None:
        return None
    left, right = _normalize_pair(left, right)
    if left < right:
        return -1
    if left > right:
        return 1
    return 0


def sql_comparison(op: str) -> Callable[[Any, Any], Optional[bool]]:
    """SQL ``left <op> right`` for any two values — the generic path:
    UNKNOWN (None) when either is NULL."""
    if op == "=":
        return sql_equal
    if op == "<>":
        return _unequal
    test, negated = _TESTS[op]

    def ordering(left, right):
        result = sql_compare(left, right)
        return None if result is None else test(result, 0) is not negated
    return ordering


def _unequal(left: Any, right: Any) -> Optional[bool]:
    result = sql_equal(left, right)
    return None if result is None else not result


def native_classes(literal: Any) -> frozenset:
    """The classes of value ``literal`` meets natively: a ``str``'s own;
    ``int`` and ``float`` (never ``bool``) for a non-bool number whose float
    — :func:`sql_equal`'s key — is finite; none for any other literal."""
    kind = type(literal)
    if kind is str:
        return TEXT_TYPES
    if kind in NUMBER_TYPES and abs(literal) < 1e308:
        return NUMBER_TYPES
    return _NO_TYPES


def comparator(op: str, literal: Any) -> Callable[[Any], Optional[bool]]:
    """``value -> value <op> literal``, the literal's class decided once.

    A value of the literal's :func:`native_classes` costs one ``type()``
    test and one native comparison (numbers equal by their floats, as
    :func:`sql_equal` has them).  Every other value — NULL, a bool, a date,
    another class — and every other literal go to :func:`sql_comparison`,
    the one source of the semantics.
    """
    generic = sql_comparison(op)
    classes = native_classes(literal)
    test, negated = _TESTS[op]
    if not classes:
        return lambda value: generic(value, literal)
    if test is eq and classes is NUMBER_TYPES:
        key = float(literal)

        def equal(value):
            if type(value) in classes:
                try:
                    return (float(value) == key) is not negated
                except OverflowError:  # an int past the float range
                    pass
            return generic(value, literal)
        return equal

    def compare(value):
        if type(value) in classes:
            return test(value, literal) is not negated
        return generic(value, literal)
    return compare


def native_comparison(op: str, literal: Any) \
        -> "tuple[frozenset, Callable[[Any, Any], bool], Any, bool, bool]":
    """``(classes, test, key, floats, negated)``: for a value of
    ``classes`` (:func:`native_classes` of ``literal``), ``value <op>
    literal`` is ``test(key, float(value) if floats else value) is not
    negated`` — what :func:`comparator` decides, ``test`` an ``operator``
    function (numbers equal by their floats; ``>=`` is ``not <``)."""
    test, negated = _TESTS[op]
    classes = native_classes(literal)
    if test is eq and classes is NUMBER_TYPES:
        return classes, eq, float(literal), True, negated
    return classes, _REFLECTED[test], literal, False, negated


#: ``value <test> literal`` is ``literal <_REFLECTED[test]> value``.
_REFLECTED = {eq: eq, lt: gt, gt: lt}


def _normalize_pair(left: Any, right: Any) -> tuple:
    """Bring two non-NULL values into a comparable pair."""
    if isinstance(left, bool) and isinstance(right, (int, float)):
        return int(left), right
    if isinstance(right, bool) and isinstance(left, (int, float)):
        return left, int(right)
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return left, right
    if isinstance(left, datetime.date) and isinstance(right, datetime.date):
        return left, right
    if type(left) is type(right):
        return left, right
    return str(left), str(right)


def sort_key(value: Any):
    """A total-order key that places NULLs first (SQL Server convention).

    The returned tuple begins with a null flag, then a type class so that
    heterogeneous columns still sort deterministically.
    """
    if value is None:
        return (0, 0, 0)
    if isinstance(value, bool):
        return (1, 1, int(value))
    if isinstance(value, (int, float)):
        try:
            return (1, 1, float(value))
        except OverflowError:  # an int past the float range: itself,
            return (1, 1, value)  # which orders exactly among floats
    if isinstance(value, datetime.date):
        return (1, 2, value.toordinal())
    return (1, 3, str(value))


def group_key(value: Any):
    """A hashable key for GROUP BY / DISTINCT buckets (NULLs group together)."""
    if value is None:
        return ("\x00null",)
    if isinstance(value, bool):
        return ("b", value)
    if isinstance(value, (int, float)):
        try:
            return ("n", float(value))
        except OverflowError:  # an int no key holds: refused
            return ("n", within_double(value))
    if isinstance(value, datetime.date):
        return ("d", value.toordinal())
    return ("s", str(value))


def group_keys(values: Sequence[Any]) -> Sequence[Any]:
    """One key per value, two keys equal exactly where their
    :func:`group_key`\\ s are: a number's (not a bool's) float, a string
    itself, ``group_key``'s own tuple for NULL, a bool or a date, and any
    other value's ``str``.  A column of numbers alone or of strings alone
    costs no call per value, and strings alone are their own keys (the
    sequence comes back as it went in)."""
    if NUMBER_TYPES.issuperset(map(type, values)):
        try:
            return list(map(float, values))
        except OverflowError:  # an int no key holds: refused
            return list(map(within_double, values))
    if TEXT_TYPES.issuperset(map(type, values)):
        return values
    return list(map(bare_key, values))


def bare_key(value: Any):
    """One value's key, as :func:`group_keys` keys it."""
    key = group_key(value)
    return key[1] if key[0] in ("n", "s") else key


def join_keys(values: list) -> list:
    """One hash-join key per value: a number's or a bool's float (``TRUE =
    1`` holds), any other value itself, NULL None — it joins nothing.  Two
    non-NULL keys are equal exactly where :func:`sql_equal` holds, but for
    a bool against the text of its own name, which no key can share with
    its number too."""
    return [float(value) if type(value) in _KEYED_AS_FLOAT else value
            for value in values]


_KEYED_AS_FLOAT = (bool, int, float)

#: Up to here every int is its own float, so native int order is
#: ``sort_key`` order exactly (beyond it distinct ints share a key).
_EXACT_INT = 2 ** 53


def orders_natively(values: list) -> bool:
    """Whether native ``<`` / ``==`` on ``values`` agree with their
    ``sort_key``s, ties included: one type class whose key is the value
    (``str``, ``date`` by ordinal, ``float`` without a NaN — one in a key
    no tie consults would still steer the sort's pass over that key) or
    ``int`` / ``bool`` small enough to be their own floats.  A
    ``datetime`` is keyed by its day alone, so it is not among them."""
    kinds = set(map(type, values))
    if kinds <= {int, bool}:
        return not kinds or (-_EXACT_INT <= min(values)
                             and max(values) <= _EXACT_INT)
    if kinds == {float}:
        return all(map(eq, values, values))
    return len(kinds) == 1 and kinds <= {str, datetime.date}
