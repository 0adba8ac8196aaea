"""LRU cache for shaped casesets.

Shaping and binding dominate the cost of the populate/predict pipeline:
a PREDICTION JOIN over the same SHAPE as the previous one re-executes the
master and child queries, regroups the child rows, and re-binds every case.
This cache keys the *bound* result — a PREDICTION JOIN's case batches with
their source batches, a TRAIN's case batches without them — in one form
each, on the
statement's source AST, the binding mode, the model-definition fingerprint,
and the database's :attr:`data_version`, so a hit is guaranteed fresh: any
INSERT/UPDATE/DELETE/DDL bumps the version and naturally retires stale
entries through LRU pressure.  Every key also names its model (second
element), and dropping the model discards its entries at once
(:meth:`CasesetCache.discard_model`).

Two bounds on memory:

* ``capacity`` — number of entries (LRU eviction beyond it; 0 disables);
* ``max_rows`` (50,000, fixed) — casesets larger than this are never
  cached, so the streaming pipeline keeps its O(batch) footprint on huge
  sources instead of accumulating a copy it may never reuse.

Hit/miss/eviction/purge counters are folded into the provider's
:class:`~repro.obs.metrics.MetricsRegistry` and therefore show up in
``SELECT * FROM $SYSTEM.DM_PROVIDER_METRICS`` like every other provider
statistic.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, Optional, Tuple


class CasesetCache:
    """Thread-safe LRU mapping of caseset keys to shaped/bound results."""

    #: Casesets above this many rows stream through uncached.
    max_rows = 50_000

    def __init__(self, capacity: int = 8, metrics=None):
        self.capacity = max(0, int(capacity))
        self._entries: "OrderedDict[Hashable, Tuple[Any, int]]" = OrderedDict()
        self._lock = threading.Lock()
        self._metrics = metrics

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def _count(self, name: str, amount: float = 1) -> None:
        if self._metrics is not None:
            self._metrics.fold({f"caseset_cache.{name}": amount})

    def _gauge_entries(self) -> None:
        if self._metrics is not None:
            self._metrics.gauge("caseset_cache.entries").set(
                len(self._entries))

    def get(self, key: Hashable) -> Optional[Any]:
        """Cached value for ``key``, bumping recency; None on miss."""
        if not self.enabled:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._count("misses")
                return None
            self._entries.move_to_end(key)
            self._count("hits")
            return entry[0]

    def contains(self, key: Hashable) -> bool:
        """Non-mutating membership probe for the EXPLAIN planner.

        Unlike :meth:`get` this bumps no recency and records no hit/miss
        metric, so planning a statement never changes how it would execute.
        """
        if not self.enabled:
            return False
        with self._lock:
            return key in self._entries

    def put(self, key: Hashable, value: Any, rows: int) -> bool:
        """Insert ``value`` (a caseset of ``rows`` rows); False if skipped."""
        if not self.enabled or rows > self.max_rows:
            if self.enabled:
                self._count("skipped_too_large")
            return False
        with self._lock:
            self._entries[key] = (value, rows)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._count("evictions")
            self._gauge_entries()
        return True

    def discard_model(self, name: str) -> None:
        """Drop every entry keyed to model ``name`` (DROP MINING MODEL):
        nothing can hit them short of re-creating the same name and
        definition, and until LRU pressure they would keep thousands of
        bound cases alive for the collector to trace."""
        name = name.upper()
        with self._lock:
            doomed = [key for key in self._entries if key[1] == name]
            for key in doomed:
                del self._entries[key]
            if doomed:
                self._count("purged", len(doomed))
                self._gauge_entries()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._gauge_entries()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        """Current counter values (reads the metrics registry)."""
        if self._metrics is None:
            return {}
        out = {}
        for name in ("hits", "misses", "evictions", "purged",
                     "skipped_too_large"):
            metric = self._metrics.get(f"caseset_cache.{name}")
            out[name] = metric.value if metric is not None else 0.0
        return out


def definition_fingerprint(definition) -> Tuple:
    """A hashable, structural identity for a model definition.

    Cache entries hold cases keyed by *model column names* and every key
    carries the model's name, so entries are never shared between models;
    the fingerprint is what keeps a model dropped and re-created under its
    old name with different columns from hitting the old entries.  It
    captures exactly what binding depends on: column names, table-ness,
    nested column names, and qualifier wiring.
    """
    def wiring(column) -> Tuple:
        return (column.name.upper(), column.qualifier,
                column.qualifier_of.upper() if column.qualifier_of else None)
    return tuple(
        (column.name.upper(), "TABLE",
         tuple(map(wiring, column.nested_columns))) if column.is_table
        else (*wiring(column), "SCALAR") for column in definition.columns)


def train_key(model, statement, data_version: int) -> Tuple:
    """Cache key of the bound training caseset of one ``INSERT INTO
    <model>`` — taken once, when the statement is planned."""
    return ("train", model.name.upper(),
            definition_fingerprint(model.definition),
            repr(statement.source), repr(statement.bindings), data_version)


def prediction_key(model, join, pushed, data_version: int) -> Tuple:
    """Cache key of a PREDICTION JOIN's bound source (``pushed``: the
    source-only WHERE conjuncts filtered below binding) — taken once, when
    the statement is planned."""
    return ("prediction", model.name.upper(),
            definition_fingerprint(model.definition),
            repr(join.source), bool(join.natural), repr(join.condition),
            tuple(repr(conjunct) for conjunct in pushed), data_version)
