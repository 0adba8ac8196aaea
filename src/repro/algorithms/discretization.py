"""Discretization service for DISCRETIZED attributes (paper section 3.2.2).

"The data ... is continuous, but it should be transformed into and modeled as
a number of ORDERED states by the provider."  Three strategies are offered —
EQUAL_RANGE, EQUAL_COUNT (quantiles), and CLUSTERS (1-D k-means) — selected
per column as ``DISCRETIZED(<method>, <buckets>)``.  Benchmark X5 ablates
them against each other.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.errors import TrainError

DEFAULT_BUCKETS = 5


class Discretizer:
    """Maps continuous values to bucket ordinals and back to ranges.

    ``edges`` holds the *inner* boundaries in ascending order, so bucket
    ``i`` covers ``(edges[i-1], edges[i]]`` with open ends at the extremes.
    """

    def __init__(self, method: str, buckets: int, edges: List[float],
                 minimum: float, maximum: float):
        self.method = method
        self.buckets = buckets
        self.edges = edges
        self.minimum = minimum
        self.maximum = maximum

    def bucket_of(self, value: float) -> int:
        """Bucket ordinal (0-based) for a value; clamps outside the range."""
        value = float(value)
        low, high = 0, len(self.edges)
        while low < high:
            middle = (low + high) // 2
            if value <= self.edges[middle]:
                high = middle
            else:
                low = middle + 1
        return low

    def range_of(self, bucket: int) -> Tuple[float, float]:
        """(low, high) numeric range covered by a bucket ordinal."""
        low = self.minimum if bucket == 0 else self.edges[bucket - 1]
        high = self.maximum if bucket >= len(self.edges) else self.edges[bucket]
        return low, high

    def midpoint_of(self, bucket: int) -> float:
        low, high = self.range_of(bucket)
        return (low + high) / 2.0

    def label(self, bucket: int) -> str:
        low, high = self.range_of(bucket)
        return f"[{low:g} - {high:g}]"

    @property
    def bucket_count(self) -> int:
        return len(self.edges) + 1

    def to_json(self) -> dict:
        return {"method": self.method, "buckets": self.buckets,
                "edges": self.edges, "min": self.minimum,
                "max": self.maximum}

    @classmethod
    def from_json(cls, state: dict) -> "Discretizer":
        return cls(state["method"], state["buckets"], list(state["edges"]),
                   state["min"], state["max"])


def fit_discretizer(values: Sequence[float], method: Optional[str] = None,
                    buckets: Optional[int] = None) -> Discretizer:
    """Fit a discretizer to training values.

    ``method`` defaults to AUTOMATIC (= EQUAL_COUNT).  Degenerate inputs
    (constant column) produce a single-bucket discretizer rather than
    failing, so a model can still train on them.
    """
    method = (method or "AUTOMATIC").upper()
    if buckets is None:
        buckets = DEFAULT_BUCKETS
    if buckets < 1:
        raise TrainError(f"discretization bucket count must be >= 1, "
                         f"got {buckets}")
    cleaned = sorted(float(v) for v in values if v is not None)
    if not cleaned:
        raise TrainError("cannot discretize a column with no non-NULL values")
    minimum, maximum = cleaned[0], cleaned[-1]
    if minimum == maximum or buckets == 1:
        return Discretizer(method, 1, [], minimum, maximum)

    if method == "EQUAL_RANGE":
        width = (maximum - minimum) / buckets
        edges = [minimum + width * i for i in range(1, buckets)]
    elif method in ("EQUAL_COUNT", "AUTOMATIC"):
        edges = _quantile_edges(cleaned, buckets)
    elif method == "CLUSTERS":
        edges = _cluster_edges(cleaned, buckets)
    else:
        raise TrainError(f"unknown discretization method {method!r}")

    # Collapse duplicate edges produced by heavy ties.
    unique_edges: List[float] = []
    for edge in edges:
        if not unique_edges or edge > unique_edges[-1]:
            unique_edges.append(edge)
    return Discretizer(method, buckets, unique_edges, minimum, maximum)


def _quantile_edges(sorted_values: List[float], buckets: int) -> List[float]:
    count = len(sorted_values)
    edges = []
    for i in range(1, buckets):
        position = i * count / buckets
        index = min(int(math.ceil(position)) - 1, count - 1)
        edges.append(sorted_values[max(index, 0)])
    return edges


def _cluster_edges(sorted_values: List[float], buckets: int,
                   iterations: int = 25) -> List[float]:
    """1-D k-means; edges are midpoints between adjacent sorted centroids."""
    count = len(sorted_values)
    buckets = min(buckets, count)
    # Deterministic initialisation: spread centroids across the quantiles.
    centroids = [sorted_values[min(int((i + 0.5) * count / buckets),
                                   count - 1)]
                 for i in range(buckets)]
    for _ in range(iterations):
        sums = [0.0] * buckets
        counts = [0] * buckets
        for value in sorted_values:
            nearest = min(range(buckets),
                          key=lambda c: abs(value - centroids[c]))
            sums[nearest] += value
            counts[nearest] += 1
        updated = [sums[i] / counts[i] if counts[i] else centroids[i]
                   for i in range(buckets)]
        if all(abs(a - b) < 1e-12 for a, b in zip(updated, centroids)):
            centroids = updated
            break
        centroids = updated
    unique = sorted(set(centroids))
    return [(unique[i] + unique[i + 1]) / 2.0 for i in range(len(unique) - 1)]
