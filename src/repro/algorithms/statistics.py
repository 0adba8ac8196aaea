"""Weighted distribution statistics shared by the mining algorithms.

Everything here supports *weighted* observations, because OLE DB DM cases may
carry SUPPORT qualifiers (case replication factors) and PROBABILITY
qualifiers (uncertain values) — section 3.2.1 of the paper.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, \
    Tuple

import numpy as np


class CategoricalDistribution:
    """Weighted value counts for a categorical attribute."""

    def __init__(self):
        self.counts: Dict[Any, float] = {}
        self.total: float = 0.0

    def add(self, value: Any, weight: float = 1.0) -> None:
        if weight <= 0:
            return
        self.counts[value] = self.counts.get(value, 0.0) + weight
        self.total += weight

    def add_codes(self, codes: np.ndarray, weights: np.ndarray,
                  key: Callable[[int], Any]) -> None:
        """``add(key(code), weight)`` for each pair, in order, as one
        :func:`count_into`."""
        count_into({0: self}, np.zeros(len(codes), dtype=np.intp), codes,
                   weights, lambda group, code: key(code))

    def probability(self, value: Any, smoothing: float = 0.0,
                    cardinality: int = 0) -> float:
        """P(value), optionally Laplace-smoothed over ``cardinality`` states."""
        denominator = self.total + smoothing * cardinality
        if denominator <= 0:
            return 0.0
        return (self.counts.get(value, 0.0) + smoothing) / denominator

    def most_likely(self) -> Tuple[Optional[Any], float]:
        """(value, probability) of the modal value; (None, 0.0) if empty."""
        if not self.counts or self.total <= 0:
            return None, 0.0
        value = max(self.counts, key=lambda v: (self.counts[v], _tiebreak(v)))
        return value, self.counts[value] / self.total

    def support(self, value: Any) -> float:
        return self.counts.get(value, 0.0)

    def entropy(self) -> float:
        """Shannon entropy in bits."""
        return entropy_bits(self.counts.values(), self.total)

    def gini(self) -> float:
        return gini_impurity(self.counts.values(), self.total)

    def sorted_items(self) -> List[Tuple[Any, float]]:
        """(value, weight) pairs, heaviest first, deterministic ties."""
        return sorted(self.counts.items(),
                      key=lambda item: (-item[1], _tiebreak(item[0])))

    def __len__(self) -> int:
        return len(self.counts)

    def to_json(self) -> dict:
        return {"type": "categorical",
                "counts": [[value, weight]
                           for value, weight in self.counts.items()],
                "total": self.total}

    @classmethod
    def from_json(cls, state: dict) -> "CategoricalDistribution":
        distribution = cls()
        distribution.counts = {value: weight
                               for value, weight in state["counts"]}
        distribution.total = state["total"]
        return distribution


def entropy_bits(weights: Iterable[float], total: float) -> float:
    """Shannon entropy, in bits, of weights that add up to ``total``; the
    terms are subtracted in the order given, by a plain loop (a generator
    would be resumed once per term)."""
    if total <= 0:
        return 0.0
    result = 0.0
    for weight in weights:
        p = weight / total
        if p > 0:
            result -= p * math.log2(p)
    return result


def gini_impurity(weights: Iterable[float], total: float) -> float:
    """Gini impurity of weights that add up to ``total``; the squares are
    added in the order given."""
    if total <= 0:
        return 0.0
    squares = 0.0
    for weight in weights:
        squares += (weight / total) ** 2
    return 1.0 - squares


def _tiebreak(value: Any) -> str:
    return "" if value is None else str(value)


class GaussianStats:
    """Weighted running mean/variance (West's weighted Welford update)."""

    def __init__(self):
        self.sum_weight: float = 0.0
        self.mean: float = 0.0
        self._m2: float = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def add(self, value: float, weight: float = 1.0) -> None:
        if weight <= 0:
            return
        value = float(value)
        self.sum_weight += weight
        delta = value - self.mean
        self.mean += (weight / self.sum_weight) * delta
        self._m2 += weight * delta * (value - self.mean)
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def add_many(self, values: Iterable[float],
                 weights: Iterable[float]) -> None:
        """``add`` each pair, in order.  The update is sequential by
        definition — each step divides by the running weight — so a column
        is fed through it value by value rather than vectorised."""
        for value, weight in zip(values, weights):
            self.add(value, weight)

    @property
    def variance(self) -> float:
        """Population-style weighted variance."""
        if self.sum_weight <= 0:
            return 0.0
        return max(self._m2 / self.sum_weight, 0.0)

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def pdf(self, value: float, floor: float = 1e-6) -> float:
        """Gaussian density with a variance floor for degenerate columns."""
        variance = max(self.variance, floor)
        coefficient = 1.0 / math.sqrt(2.0 * math.pi * variance)
        exponent = -((float(value) - self.mean) ** 2) / (2.0 * variance)
        return coefficient * math.exp(exponent)

    def to_json(self) -> dict:
        return {"type": "gaussian", "sum_weight": self.sum_weight,
                "mean": self.mean, "m2": self._m2,
                "min": self.minimum, "max": self.maximum}

    @classmethod
    def from_json(cls, state: dict) -> "GaussianStats":
        stats = cls()
        stats.sum_weight = state["sum_weight"]
        stats.mean = state["mean"]
        stats._m2 = state["m2"]
        stats.minimum = state["min"]
        stats.maximum = state["max"]
        return stats


def stat_from_json(state: dict):
    """The statistic a ``to_json`` of either kind spelled."""
    if state["type"] == "categorical":
        return CategoricalDistribution.from_json(state)
    return GaussianStats.from_json(state)


def sequential_sum(weights: np.ndarray, start: float = 0.0) -> float:
    """``start + w0 + w1 + ...`` added left to right: the float an explicit
    ``+=`` loop gives on every interpreter.  Builtin ``sum`` compensates
    from CPython 3.12 on and ``ndarray.sum`` adds pairwise; ``bincount``
    into one bin adds in array order."""
    weights = np.concatenate(((start,), weights))
    return float(np.bincount(np.zeros(len(weights), dtype=np.intp),
                             weights)[0])


def first_seen(cells: np.ndarray, size: int) -> np.ndarray:
    """The distinct values of ``cells`` (non-negative integers below
    ``size``) in order of first occurrence — the insertion order of a dict
    filled by one pass over them.  One linear pass over a scratch array of
    ``size``: contingency tables are small next to their populations, and
    sorting the cells instead (``np.unique``) measured ~20x slower at 40,000
    cells of 200."""
    first = np.full(size, len(cells), dtype=np.intp)
    np.minimum.at(first, cells, np.arange(len(cells), dtype=np.intp))
    seen = (first < len(cells)).nonzero()[0]
    return seen[first[seen].argsort()]


def count_into(distributions: Mapping[int, CategoricalDistribution],
               groups: np.ndarray, codes: np.ndarray, weights: np.ndarray,
               key: Callable[[int, int], Any]) -> None:
    """``distributions[g].add(key(g, c), w)`` for every ``(g, c, w)`` of
    the three parallel arrays, in array order, as one ``bincount``.

    Bit for bit what the loop leaves behind: ``bincount`` adds each cell's
    weights in array order, a distribution's own counts and total enter
    ahead of the new rows so the running sums continue from them, and
    ``counts`` keeps (or gains) its keys in first-seen order.  ``codes``
    are non-negative integers; a group that occurs in ``groups`` must be
    in ``distributions``.
    """
    positive = weights > 0
    if not positive.all():
        groups, codes, weights = \
            groups[positive], codes[positive], weights[positive]
    if not len(codes):
        return
    total_groups, totals = groups, weights
    carried = [(group, distribution)
               for group, distribution in distributions.items()
               if distribution.counts]
    if carried:
        old_groups, old_codes, old_counts = zip(*(
            (group, int(value), count) for group, distribution in carried
            for value, count in distribution.counts.items()))
        total_groups = np.concatenate((
            np.array([group for group, _ in carried], dtype=np.intp), groups))
        totals = np.concatenate((
            [distribution.total for _, distribution in carried], weights))
        groups = np.concatenate((np.array(old_groups, dtype=np.intp), groups))
        codes = np.concatenate((np.array(old_codes, dtype=np.intp), codes))
        weights = np.concatenate((old_counts, weights))
    width = int(codes.max()) + 1
    size = (int(groups.max()) + 1) * width
    cells = groups * width + codes
    order = first_seen(cells, size)
    sums = np.bincount(cells, weights, minlength=size)[order]
    totals = np.bincount(total_groups, totals).tolist()
    for cell, count in zip(order.tolist(), sums.tolist()):
        group, code = divmod(cell, width)
        distribution = distributions[group]
        # An equal key already there keeps its place and its spelling.
        distribution.counts[key(group, code)] = count
        distribution.total = totals[group]


def entropy(probabilities: Iterable[float]) -> float:
    """Shannon entropy (bits) of a probability vector (zeros ignored)."""
    return entropy_bits(probabilities, 1.0)


def log_sum_exp(values: List[float]) -> float:
    """Numerically stable log(sum(exp(v)))."""
    if not values:
        return float("-inf")
    peak = max(values)
    if peak == float("-inf"):
        return peak
    return peak + math.log(sum(math.exp(v - peak) for v in values))
