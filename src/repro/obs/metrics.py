"""Provider metrics: counters, gauges, and histograms with snapshots.

A :class:`MetricsRegistry` lives on each :class:`~repro.core.provider.Provider`
and accumulates runtime statistics across statements: per-kind latency
percentiles, engine row-scan totals, per-model training volumes,
prediction-join fan-out.  ``SELECT * FROM $SYSTEM.DM_PROVIDER_METRICS``
renders :meth:`MetricsRegistry.snapshot` as a schema rowset, so the
provider's performance counters are queryable through the same SQL surface
as its models — the paper's "everything is a rowset" principle applied to
the provider itself.

All types are thread-safe and dependency-free.  Histograms keep exact
count/sum/min/max plus a bounded window of recent observations from which
percentiles are computed, so memory stays constant under heavy traffic.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Dict, List, Optional


class Counter:
    """A monotonically increasing total."""

    KIND = "counter"
    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount

    def reset(self) -> None:
        with self._lock:
            self.value = 0.0

    def row(self) -> Dict[str, Any]:
        return {"name": self.name, "kind": self.KIND, "value": self.value}


class Gauge:
    """A value that can move in both directions (last write wins)."""

    KIND = "gauge"
    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value: Optional[float] = None
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def reset(self) -> None:
        self.set(None)

    def row(self) -> Dict[str, Any]:
        return {"name": self.name, "kind": self.KIND, "value": self.value}


class Histogram:
    """Exact count/sum/min/max plus percentile estimates over a recent window.

    ``window`` bounds memory: percentiles are computed over the most recent
    observations only, which is the usual sliding-window compromise for an
    in-process, dependency-free histogram.
    """

    KIND = "histogram"
    __slots__ = ("name", "count", "total", "min", "max", "_recent", "_lock")

    def __init__(self, name: str, window: int = 512):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._recent: deque = deque(maxlen=window)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)
            self._recent.append(value)

    def reset(self) -> None:
        with self._lock:
            self.count = 0
            self.total = 0.0
            self.min = self.max = None
            self._recent.clear()

    def percentile(self, fraction: float) -> Optional[float]:
        """Nearest-rank percentile over the recent window (0 < fraction <= 1)."""
        with self._lock:
            window = sorted(self._recent)
        if not window:
            return None
        rank = max(0, min(len(window) - 1,
                          int(round(fraction * len(window))) - 1))
        return window[rank]

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    @property
    def sum(self) -> float:
        """Monotonic sum of every observation ever made.

        Unlike the percentile window, ``count``/``sum`` never forget: they
        survive eviction from the 512-sample window, which is what makes
        them usable as Prometheus ``_count``/``_sum`` series (rates over
        scrape intervals need monotonic accumulators, not windows).
        """
        return self.total

    def row(self) -> Dict[str, Any]:
        return {
            "name": self.name, "kind": self.KIND, "count": self.count,
            "value": self.total, "sum": self.sum, "min": self.min,
            "max": self.max, "mean": self.mean, "p50": self.percentile(0.50),
            "p95": self.percentile(0.95), "p99": self.percentile(0.99),
        }


class MetricsRegistry:
    """Named metric catalog with get-or-create accessors and snapshots.

    A metric, once created, is the object behind its name for the life of
    the registry: callers on a hot path resolve it once and keep it."""

    def __init__(self):
        self._metrics: Dict[str, Any] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, factory, kind):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            elif not isinstance(metric, kind):
                raise ValueError(
                    f"metric {name!r} is a {metric.KIND}, not a "
                    f"{kind.KIND}")
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, lambda: Counter(name), Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name), Gauge)

    def histogram(self, name: str, window: int = 512) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, window), Histogram)

    def get(self, name: str) -> Optional[Any]:
        with self._lock:
            return self._metrics.get(name)

    def value(self, name: str, default: float = 0.0) -> float:
        """Current value of a counter/gauge; ``default`` if absent/unset."""
        metric = self.get(name)
        if metric is None or getattr(metric, "value", None) is None:
            return default
        return metric.value

    def reset(self) -> None:
        """Return every metric to its just-created state, in place: a
        handle somebody holds (the buffer pool's, the provider's, a
        server's) stays the registered metric, so what it counts after the
        reset is read back under the same name.  Names stay listed."""
        with self._lock:
            for metric in self._metrics.values():
                metric.reset()

    def snapshot(self) -> List[Dict[str, Any]]:
        """One dict per metric, sorted by name (the DM_PROVIDER_METRICS rows)."""
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        return [metric.row() for metric in metrics]

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._metrics
