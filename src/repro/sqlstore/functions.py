"""Built-in SQL scalar and aggregate functions.

Scalar functions are plain Python callables over already-evaluated argument
values (NULL-propagating unless noted).  An aggregate is one function over
a GROUP BY bucket's column of argument values.
"""

from __future__ import annotations

import math
import operator
from functools import reduce
from typing import Any, Callable, Dict, Optional

from repro.errors import BindError
from repro.sqlstore.types import within_double


def _null_safe(func: Callable) -> Callable:
    """Wrap a scalar so that any NULL argument yields NULL."""
    def wrapper(*args):
        if any(a is None for a in args):
            return None
        return func(*args)
    return wrapper


def _coalesce(*args):
    for arg in args:
        if arg is not None:
            return arg
    return None


def _nullif(a, b):
    if a is None:
        return None
    return None if a == b else a


def _iif(condition, then, otherwise):
    return then if condition else otherwise


def _round(value, digits=0):
    return round(float(value), int(digits))


SCALAR_FUNCTIONS: Dict[str, Callable] = {
    "UPPER": _null_safe(lambda s: str(s).upper()),
    "LOWER": _null_safe(lambda s: str(s).lower()),
    "LENGTH": _null_safe(lambda s: len(str(s))),
    "LEN": _null_safe(lambda s: len(str(s))),
    "TRIM": _null_safe(lambda s: str(s).strip()),
    "SUBSTRING": _null_safe(
        lambda s, start, length: str(s)[int(start) - 1:int(start) - 1 + int(length)]),
    "REPLACE": _null_safe(lambda s, old, new: str(s).replace(str(old), str(new))),
    "CONCAT": lambda *args: "".join(str(a) for a in args if a is not None),
    "ABS": _null_safe(abs),
    "ROUND": _null_safe(_round),
    "FLOOR": _null_safe(lambda v: math.floor(v)),
    "CEILING": _null_safe(lambda v: math.ceil(v)),
    "SQRT": _null_safe(lambda v: math.sqrt(v)),
    "LN": _null_safe(lambda v: math.log(v)),
    "LOG": _null_safe(lambda v: math.log10(v)),
    "EXP": _null_safe(lambda v: math.exp(v)),
    "POWER": _null_safe(lambda b, e: float(b) ** float(e)),
    "MOD": _null_safe(lambda a, b: a % b),
    "SIGN": _null_safe(lambda v: (v > 0) - (v < 0)),
    "COALESCE": _coalesce,
    "NULLIF": _nullif,
    "IIF": _iif,
    "CAST_LONG": _null_safe(lambda v: int(float(v))),
    "CAST_DOUBLE": _null_safe(lambda v: float(v)),
    "CAST_TEXT": _null_safe(lambda v: str(v)),
}


def _present(values: list) -> list:
    return [value for value in values if value is not None]


def _sum(values: list) -> Any:
    present = _present(values)
    return reduce(operator.add, present) if present else None


def _avg(values: list) -> Optional[float]:
    present = _present(values)
    if not present:
        return None
    try:
        return reduce(operator.add, map(float, present), 0.0) / len(present)
    except OverflowError:  # a DOUBLE holds no int past its range
        return sum(map(within_double, present)) / len(present)


def _variance(values: list, stdev: bool = False) -> Optional[float]:
    """Sample variance (or its root) by Welford's online algorithm."""
    count, mean, m2 = 0, 0.0, 0.0
    for value in _present(values):
        count += 1
        delta = float(value) - mean
        mean += delta / count
        m2 += delta * (float(value) - mean)
    if count < 2:
        return None
    variance = m2 / (count - 1)
    return math.sqrt(variance) if stdev else variance


_AGGREGATES: Dict[str, Callable[[list], Any]] = {
    "SUM": _sum,
    "AVG": _avg,
    "MIN": lambda values: min(_present(values), default=None),
    "MAX": lambda values: max(_present(values), default=None),
    "STDEV": lambda values: _variance(values, stdev=True),
    "VAR": _variance,
}


def make_aggregate(name: str, count_rows: bool = False,
                   distinct: bool = False) -> Callable[[list], Any]:
    """The aggregate ``name`` as one call over a GROUP BY bucket's argument
    column — for ``COUNT(*)`` the bucket's rows — NULLs skipped, the
    non-NULL values taken in row order (SUM adds left to right)."""
    upper = name.upper()
    if upper == "COUNT":
        if count_rows:
            return len
        if distinct:
            return lambda values: len(set(_present(values)))
        return lambda values: len(_present(values))
    if upper not in _AGGREGATES:
        raise BindError(f"unknown aggregate function {name!r}")
    return _AGGREGATES[upper]
