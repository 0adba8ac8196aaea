"""Provider metrics: counters, gauges, and histograms with snapshots.

A :class:`MetricsRegistry` lives on each :class:`~repro.core.provider.Provider`
and accumulates runtime statistics across statements: per-kind latency
percentiles, engine row-scan totals, per-model training volumes,
prediction-join fan-out.  ``SELECT * FROM $SYSTEM.DM_PROVIDER_METRICS``
renders :meth:`MetricsRegistry.snapshot` as a schema rowset, so the
provider's performance counters are queryable through the same SQL surface
as its models — the paper's "everything is a rowset" principle applied to
the provider itself.

All types are thread-safe and dependency-free: a registry's metrics
write under the registry's one lock.  Histograms keep exact
count/sum/min/max plus a bounded window of recent observations from which
percentiles are computed, so memory stays constant under heavy traffic.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Dict, List, Optional


class _Metric:
    """A named metric and the lock it writes under: its registry's one
    lock, which every metric the registry made shares, or its own when it
    was made alone.  ``_zero`` puts it in its just-created state."""

    __slots__ = ("name", "_lock")

    def __init__(self, name: str, lock: Optional[threading.Lock] = None):
        self.name = name
        self._lock = lock or threading.Lock()
        self._zero()

    def row(self) -> Dict[str, Any]:
        return {"name": self.name, "kind": self.KIND, "value": self.value}


class Counter(_Metric):
    """A monotonically increasing total."""

    KIND = "counter"
    __slots__ = ("value",)

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount

    def _zero(self) -> None:
        self.value = 0.0


class Gauge(_Metric):
    """A value that can move in both directions (last write wins)."""

    KIND = "gauge"
    __slots__ = ("value",)

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def _zero(self) -> None:
        self.value: Optional[float] = None


def _nearest_rank(window: List[float], fraction: float) -> Optional[float]:
    """Nearest-rank percentile of a sorted window (0 < fraction <= 1)."""
    if not window:
        return None
    return window[max(0, min(len(window) - 1,
                             int(round(fraction * len(window))) - 1))]


class Histogram(_Metric):
    """Exact count/sum/min/max plus percentile estimates over a recent window.

    ``window`` bounds memory: percentiles are computed over the most recent
    observations only, which is the usual sliding-window compromise for an
    in-process, dependency-free histogram.
    """

    KIND = "histogram"
    __slots__ = ("count", "total", "min", "max", "_recent")

    def __init__(self, name: str, window: int = 512,
                 lock: Optional[threading.Lock] = None):
        self._recent: deque = deque(maxlen=window)
        super().__init__(name, lock)

    def observe(self, value: float) -> None:
        with self._lock:
            self._add(value)

    def _add(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        self._recent.append(value)

    def _zero(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._recent.clear()

    def percentile(self, fraction: float) -> Optional[float]:
        """Nearest-rank percentile over the recent window (0 < fraction <= 1)."""
        with self._lock:
            window = sorted(self._recent)
        return _nearest_rank(window, fraction)

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
        """One consistent read; the window is sorted once for the three
        percentiles."""
        with self._lock:
            window = sorted(self._recent)
            row = {"name": self.name, "kind": self.KIND, "count": self.count,
                   "value": self.total, "sum": self.sum, "min": self.min,
                   "max": self.max, "mean": self.mean}
        for key, fraction in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            row[key] = _nearest_rank(window, fraction)
        return row


class MetricsRegistry:
    """Named metric catalog: get-or-create accessors, one fold, snapshots.

    The registry holds one lock, and every metric it makes writes under
    it.  :meth:`fold` is how a statement writes — everything completion
    adds, or the one count a step on its path makes — in one call that
    takes the lock once and makes each name the first time it comes up.
    A metric, once made, is the object behind its name for the life of
    the registry: ``counter(name)`` returns the live one, and what a kept
    handle counts is read back under its name."""

    def __init__(self):
        self._metrics: Dict[str, Any] = {}
        self._lock = threading.Lock()

    def _metric(self, name: str, kind, *args):
        """``name``'s metric, made a ``kind`` if it is new (lock held)."""
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = kind(name, *args, lock=self._lock)
        elif not isinstance(metric, kind):
            raise ValueError(f"metric {name!r} is a {metric.KIND}, not a "
                             f"{kind.KIND}")
        return metric

    def counter(self, name: str) -> Counter:
        with self._lock:
            return self._metric(name, Counter)

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            return self._metric(name, Gauge)

    def histogram(self, name: str, window: int = 512) -> Histogram:
        with self._lock:
            return self._metric(name, Histogram, window)

    def fold(self, counts: Dict[str, float],
             observations: Optional[Dict[str, float]] = None) -> None:
        """Add each of ``counts`` to its counter and observe each of
        ``observations`` in its histogram, under the lock taken once.  A
        name is made on first use — a count of 0 lists its counter."""
        metrics = self._metrics
        with self._lock:
            for name, amount in counts.items():
                counter = metrics.get(name)
                if not isinstance(counter, Counter):  # new, or the error
                    counter = self._metric(name, Counter)
                counter.value += amount
            for name, value in (observations or {}).items():
                histogram = metrics.get(name)
                if not isinstance(histogram, Histogram):
                    histogram = self._metric(name, Histogram)
                histogram._add(value)

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
        handle somebody holds (the buffer pool's, a server's) stays the
        registered metric, so what it counts after the reset is read back
        under the same name.  Names stay listed."""
        with self._lock:
            for metric in self._metrics.values():
                metric._zero()

    def snapshot(self) -> List[Dict[str, Any]]:
        """One dict per metric, sorted by name (the DM_PROVIDER_METRICS rows)."""
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        return [metric.row() for metric in metrics]
