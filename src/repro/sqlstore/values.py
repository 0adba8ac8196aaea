"""SQL value semantics: NULL handling, equality, and ordering.

SQL three-valued logic is implemented with Python's ``None`` standing in for
both NULL and the UNKNOWN truth value.  The comparison helpers here are the
single source of truth for every WHERE clause, join predicate, ORDER BY, and
GROUP BY bucket in the engine.
"""

from __future__ import annotations

import datetime
from typing import Any, Optional

NULL = None


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
        return float(left) == float(right)
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
        return (1, 1, float(value))
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
        return ("n", float(value))
    if isinstance(value, datetime.date):
        return ("d", value.toordinal())
    return ("s", str(value))


def group_keys(values: list) -> list:
    """One key per value, two keys equal exactly where their
    :func:`group_key`\\ s are: a number's (not a bool's) float, a string
    itself, ``group_key``'s own tuple for NULL, a bool or a date, and any
    other value's ``str``.  A column of numbers alone or of strings alone
    costs no call per value."""
    types = set(map(type, values))
    if types <= {int, float}:
        return list(map(float, values))
    return list(values) if types == {str} else list(map(_bare_key, values))


def _bare_key(value: Any):
    key = group_key(value)
    return key[1] if key[0] in ("n", "s") else key


def truth_and(a: Optional[bool], b: Optional[bool]) -> Optional[bool]:
    """Three-valued AND."""
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def truth_or(a: Optional[bool], b: Optional[bool]) -> Optional[bool]:
    """Three-valued OR."""
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return False


def truth_not(a: Optional[bool]) -> Optional[bool]:
    """Three-valued NOT."""
    if a is None:
        return None
    return not a
