"""The per-row aggregate accumulators — the oracle of grouped aggregation.

``Aggregate`` and its subclasses and ``make_aggregate`` are
``repro.sqlstore.functions`` as they left ``src/`` when an aggregate
became one call over a GROUP BY bucket's argument column: an accumulator
per bucket, fed one value per row by ``add``.  Nothing under ``src/``
imports this module.
"""

from __future__ import annotations

import math
from typing import Any, Optional

from repro.errors import BindError


class Aggregate:
    """Accumulator interface: feed values, then read ``result``."""

    def add(self, value: Any) -> None:
        raise NotImplementedError

    def result(self) -> Any:
        raise NotImplementedError


class CountAgg(Aggregate):
    """COUNT(expr) counts non-NULL values; COUNT(*) counts rows."""

    def __init__(self, count_rows: bool = False, distinct: bool = False):
        self.count_rows = count_rows
        self.distinct = distinct
        self.count = 0
        self._seen = set()

    def add(self, value: Any) -> None:
        if self.count_rows:
            self.count += 1
            return
        if value is None:
            return
        if self.distinct:
            if value in self._seen:
                return
            self._seen.add(value)
        self.count += 1

    def result(self) -> int:
        return self.count


class SumAgg(Aggregate):
    def __init__(self):
        self.total = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        self.total = value if self.total is None else self.total + value

    def result(self):
        return self.total


class AvgAgg(Aggregate):
    def __init__(self):
        self.total = 0.0
        self.count = 0

    def add(self, value: Any) -> None:
        if value is None:
            return
        self.total += float(value)
        self.count += 1

    def result(self) -> Optional[float]:
        return self.total / self.count if self.count else None


class MinAgg(Aggregate):
    def __init__(self):
        self.best = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self.best is None or value < self.best:
            self.best = value

    def result(self):
        return self.best


class MaxAgg(Aggregate):
    def __init__(self):
        self.best = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self.best is None or value > self.best:
            self.best = value

    def result(self):
        return self.best


class VarAgg(Aggregate):
    """Sample variance via Welford's online algorithm."""

    def __init__(self, stdev: bool = False):
        self.stdev = stdev
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, value: Any) -> None:
        if value is None:
            return
        self.count += 1
        delta = float(value) - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (float(value) - self.mean)

    def result(self) -> Optional[float]:
        if self.count < 2:
            return None
        variance = self.m2 / (self.count - 1)
        return math.sqrt(variance) if self.stdev else variance


def make_aggregate(name: str, count_rows: bool = False,
                   distinct: bool = False) -> Aggregate:
    """Instantiate a fresh accumulator for one GROUP BY bucket."""
    upper = name.upper()
    if upper == "COUNT":
        return CountAgg(count_rows=count_rows, distinct=distinct)
    if upper == "SUM":
        return SumAgg()
    if upper == "AVG":
        return AvgAgg()
    if upper == "MIN":
        return MinAgg()
    if upper == "MAX":
        return MaxAgg()
    if upper == "STDEV":
        return VarAgg(stdev=True)
    if upper == "VAR":
        return VarAgg(stdev=False)
    raise BindError(f"unknown aggregate function {name!r}")
