"""The workload repository: per-fingerprint aggregates and plan history.

``DM_QUERY_LOG`` is a bounded ring of raw events; fleet-level questions
("which statement *shape* got slower after the optimizer change?") need
aggregation by shape.  This module keys everything by **statement
fingerprint** (:mod:`repro.lang.normalizer`: literals blanked, identifiers
case-folded, rendered through the canonical formatter, hashed) and keeps,
per fingerprint:

* streaming aggregates — calls, errors, cancels, total/mean/min/max
  latency, p50/p95/p99 latency from a fixed-size :class:`QuantileSketch`,
  rows returned, CPU-ms, caseset-cache hits/misses, buffer-pool reads,
  and pool tasks;
* a bounded **plan history** — each EXPLAIN-able execution's plan
  *skeleton* (operator/strategy/target tree, no actuals or estimates) is
  hashed; per plan hash the repository tracks executions, latency, and
  est-vs-actual q-error aggregates;
* **plan-change events** — when a fingerprint's active plan hash changes
  (CREATE/DROP INDEX, UPDATE STATISTICS, ...), a change row records the
  old and new hash, the most recent schema-affecting trigger statement,
  and the old plan's latency baseline at the moment of the change.

Everything surfaces as ``$SYSTEM.DM_STATEMENT_STATS``,
``$SYSTEM.DM_PLAN_HISTORY``, and ``$SYSTEM.DM_PLAN_CHANGES``, the
``/statements`` HTTP route, and the ``repro_statement_*`` Prometheus
families.  The repository is observation-only: it never influences
planning or execution, which the differential suite pins byte-for-byte.

Persistence is a versioned JSON file (``workload_repository.json``) under
the provider's durable path, written with
:func:`repro.store.atomic.atomic_write_text` on ``close()``/
``checkpoint()`` and loaded lazily on first touch.  The DMJ1 journal is
never involved; a corrupt or alien repository file degrades to an empty
repository with a ``repository.load_errors`` warning metric — the read
path never raises.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict, deque
from typing import Any, Dict, List, Optional

from repro.lang.normalizer import fingerprint_text
from repro.obs.trace import NULL_RECORD

FORMAT_VERSION = 1

#: Samples retained by the latency sketch (exact until first compaction).
DEFAULT_SKETCH_CAPACITY = 256

#: Distinct plans remembered per fingerprint (oldest non-active evicted).
DEFAULT_PLAN_HISTORY = 8

#: Plan-change events retained (newest win).
DEFAULT_CHANGE_LIMIT = 256

#: Distinct fingerprints retained (least-recently-observed evicted).
DEFAULT_MAX_FINGERPRINTS = 512

#: Statement kinds whose completion can change later plans — remembered as
#: the ``TRIGGER_STATEMENT`` of the next plan-change event.
TRIGGER_KINDS = frozenset({
    "CREATE_INDEX", "DROP_INDEX", "UPDATE_STATISTICS",
    "CREATE_TABLE", "CREATE_VIEW", "DROP",
})


class QuantileSketch:
    """Fixed-size quantile estimator via systematic decimation.

    Observations are admitted every ``stride``-th arrival; when the buffer
    reaches ``capacity`` it is sorted and every other sample dropped, and
    the stride doubles — so each retained sample always represents exactly
    ``stride`` observations (uniform weights), and nearest-rank quantiles
    over the buffer estimate the true quantiles with relative rank error
    bounded by ``stride / n`` ≈ ``2 / capacity`` after the first
    compaction (exact before it).  Deterministic: no randomness, so tests
    and persistence round-trips are stable.
    """

    __slots__ = ("capacity", "stride", "samples", "count", "_skipped")

    def __init__(self, capacity: int = DEFAULT_SKETCH_CAPACITY):
        self.capacity = max(8, int(capacity))
        self.stride = 1
        self.samples: List[float] = []
        self.count = 0
        self._skipped = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self._skipped += 1
        if self._skipped < self.stride:
            return
        self._skipped = 0
        self.samples.append(float(value))
        if len(self.samples) >= self.capacity:
            self.samples = sorted(self.samples)[::2]
            self.stride *= 2

    def quantile(self, fraction: float) -> Optional[float]:
        """Nearest-rank quantile over the retained samples."""
        if not self.samples:
            return None
        ordered = sorted(self.samples)
        rank = max(0, min(len(ordered) - 1,
                          int(round(fraction * len(ordered))) - 1))
        return ordered[rank]

    def to_dict(self) -> Dict[str, Any]:
        return {"capacity": self.capacity, "stride": self.stride,
                "count": self.count, "samples": list(self.samples)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "QuantileSketch":
        sketch = cls(int(data.get("capacity", DEFAULT_SKETCH_CAPACITY)))
        sketch.stride = max(1, int(data.get("stride", 1)))
        sketch.count = int(data.get("count", 0))
        sketch.samples = [float(v) for v in data.get("samples", [])]
        del sketch.samples[sketch.capacity:]
        return sketch


# ---------------------------------------------------------------------------
# Plan skeletons
# ---------------------------------------------------------------------------

def plan_skeleton(plan) -> str:
    """Render a :class:`~repro.obs.explain.PlanNode` tree as its skeleton.

    Operator, target, and strategy only — no estimates, costs, actuals, or
    detail strings (which carry volatile facts such as buffer residency) —
    so the skeleton is stable across executions of the same plan shape.
    """
    lines = []
    for node, depth in plan.walk():
        parts = [node.operator]
        if node.target:
            parts.append(str(node.target))
        if node.strategy:
            parts.append(str(node.strategy))
        lines.append("  " * depth + " | ".join(parts))
    return "\n".join(lines)


def skeleton_hash(skeleton: str) -> str:
    """Short stable hash of a plan skeleton (the ``PLAN_HASH`` columns)."""
    return fingerprint_text(skeleton)


def _identity(plan) -> tuple:
    """``(skeleton, hash, estimated rows)`` of a plan tree, estimated."""
    skeleton = plan_skeleton(plan)
    return skeleton, skeleton_hash(skeleton), plan.estimate()


# ---------------------------------------------------------------------------
# Entries
# ---------------------------------------------------------------------------

class PlanEntry:
    """One captured plan of one fingerprint, with per-plan aggregates."""

    __slots__ = ("plan_hash", "skeleton", "first_seen", "last_seen",
                 "executions", "total_ms", "q_count", "q_sum", "q_max")

    def __init__(self, plan_hash: str, skeleton: str,
                 first_seen: Optional[float] = None):
        self.plan_hash = plan_hash
        self.skeleton = skeleton
        self.first_seen = time.time() if first_seen is None else first_seen
        self.last_seen = self.first_seen
        self.executions = 0
        self.total_ms = 0.0
        # est-vs-actual q-error aggregates: root estimate vs rows returned.
        self.q_count = 0
        self.q_sum = 0.0
        self.q_max: Optional[float] = None

    def mean_ms(self) -> Optional[float]:
        return self.total_ms / self.executions if self.executions else None

    def mean_q_error(self) -> Optional[float]:
        return self.q_sum / self.q_count if self.q_count else None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "plan_hash": self.plan_hash, "skeleton": self.skeleton,
            "first_seen": self.first_seen, "last_seen": self.last_seen,
            "executions": self.executions, "total_ms": self.total_ms,
            "q_count": self.q_count, "q_sum": self.q_sum,
            "q_max": self.q_max,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PlanEntry":
        entry = cls(str(data["plan_hash"]), str(data.get("skeleton", "")),
                    first_seen=float(data.get("first_seen", 0.0)))
        entry.last_seen = float(data.get("last_seen", entry.first_seen))
        entry.executions = int(data.get("executions", 0))
        entry.total_ms = float(data.get("total_ms", 0.0))
        entry.q_count = int(data.get("q_count", 0))
        entry.q_sum = float(data.get("q_sum", 0.0))
        q_max = data.get("q_max")
        entry.q_max = None if q_max is None else float(q_max)
        return entry


class PlanChange:
    """One plan-regression event: a fingerprint's active plan hash moved."""

    __slots__ = ("change_id", "fingerprint", "statement", "changed_at",
                 "old_plan_hash", "new_plan_hash", "trigger",
                 "before_mean_ms")

    def __init__(self, change_id: int, fingerprint: str, statement: str,
                 old_plan_hash: str, new_plan_hash: str,
                 trigger: Optional[str], before_mean_ms: Optional[float],
                 changed_at: Optional[float] = None):
        self.change_id = change_id
        self.fingerprint = fingerprint
        self.statement = statement
        self.changed_at = time.time() if changed_at is None else changed_at
        self.old_plan_hash = old_plan_hash
        self.new_plan_hash = new_plan_hash
        self.trigger = trigger
        # The old plan's mean latency frozen at the moment of the change;
        # the *after* baseline is read live off the new plan's entry.
        self.before_mean_ms = before_mean_ms

    def to_dict(self) -> Dict[str, Any]:
        return {
            "change_id": self.change_id, "fingerprint": self.fingerprint,
            "statement": self.statement, "changed_at": self.changed_at,
            "old_plan_hash": self.old_plan_hash,
            "new_plan_hash": self.new_plan_hash, "trigger": self.trigger,
            "before_mean_ms": self.before_mean_ms,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PlanChange":
        before = data.get("before_mean_ms")
        return cls(int(data["change_id"]), str(data["fingerprint"]),
                   str(data.get("statement", "")),
                   str(data["old_plan_hash"]), str(data["new_plan_hash"]),
                   data.get("trigger"),
                   None if before is None else float(before),
                   changed_at=float(data.get("changed_at", 0.0)))


class FingerprintEntry:
    """Aggregates for one statement shape."""

    __slots__ = ("fingerprint", "normalized", "exemplar", "kind",
                 "calls", "errors", "cancels",
                 "total_ms", "min_ms", "max_ms", "sketch",
                 "rows_returned", "cpu_ms", "cache_hits", "cache_misses",
                 "buffer_reads", "pool_tasks",
                 "first_at", "last_at", "plans", "active_plan")

    def __init__(self, fingerprint: str, normalized: str, exemplar: str,
                 kind: str = "UNKNOWN",
                 sketch_capacity: int = DEFAULT_SKETCH_CAPACITY):
        self.fingerprint = fingerprint
        self.normalized = normalized
        self.exemplar = exemplar
        self.kind = kind
        self.calls = 0
        self.errors = 0
        self.cancels = 0
        self.total_ms = 0.0
        self.min_ms: Optional[float] = None
        self.max_ms: Optional[float] = None
        self.sketch = QuantileSketch(sketch_capacity)
        self.rows_returned = 0
        self.cpu_ms = 0.0
        self.cache_hits = 0
        self.cache_misses = 0
        self.buffer_reads = 0
        self.pool_tasks = 0
        self.first_at = time.time()
        self.last_at = self.first_at
        # plan_hash -> PlanEntry, insertion-ordered for eviction.
        self.plans: "OrderedDict[str, PlanEntry]" = OrderedDict()
        self.active_plan: Optional[str] = None

    def mean_ms(self) -> Optional[float]:
        return self.total_ms / self.calls if self.calls else None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fingerprint": self.fingerprint, "normalized": self.normalized,
            "exemplar": self.exemplar, "kind": self.kind,
            "calls": self.calls, "errors": self.errors,
            "cancels": self.cancels, "total_ms": self.total_ms,
            "min_ms": self.min_ms, "max_ms": self.max_ms,
            "sketch": self.sketch.to_dict(),
            "rows_returned": self.rows_returned, "cpu_ms": self.cpu_ms,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "buffer_reads": self.buffer_reads,
            "pool_tasks": self.pool_tasks,
            "first_at": self.first_at, "last_at": self.last_at,
            "plans": [plan.to_dict() for plan in self.plans.values()],
            "active_plan": self.active_plan,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FingerprintEntry":
        entry = cls(str(data["fingerprint"]),
                    str(data.get("normalized", "")),
                    str(data.get("exemplar", "")),
                    kind=str(data.get("kind", "UNKNOWN")))
        entry.calls = int(data.get("calls", 0))
        entry.errors = int(data.get("errors", 0))
        entry.cancels = int(data.get("cancels", 0))
        entry.total_ms = float(data.get("total_ms", 0.0))
        for name in ("min_ms", "max_ms"):
            value = data.get(name)
            setattr(entry, name, None if value is None else float(value))
        entry.sketch = QuantileSketch.from_dict(data.get("sketch", {}))
        entry.rows_returned = int(data.get("rows_returned", 0))
        entry.cpu_ms = float(data.get("cpu_ms", 0.0))
        entry.cache_hits = int(data.get("cache_hits", 0))
        entry.cache_misses = int(data.get("cache_misses", 0))
        entry.buffer_reads = int(data.get("buffer_reads", 0))
        entry.pool_tasks = int(data.get("pool_tasks", 0))
        entry.first_at = float(data.get("first_at", 0.0))
        entry.last_at = float(data.get("last_at", entry.first_at))
        for plan_data in data.get("plans", []):
            plan = PlanEntry.from_dict(plan_data)
            entry.plans[plan.plan_hash] = plan
        active = data.get("active_plan")
        entry.active_plan = None if active is None else str(active)
        return entry


def q_error(estimated: Optional[float],
            actual: Optional[float]) -> Optional[float]:
    """``max(est, actual) / min(est, actual)``; None when undefined.

    None when either side is missing; 1.0 when both are zero (a correct
    estimate of an empty result); None when exactly one side is zero
    (the ratio is unbounded, not infinite-ly informative).
    """
    if estimated is None or actual is None:
        return None
    estimated = float(estimated)
    actual = float(actual)
    if estimated == actual:
        return 1.0
    if estimated <= 0 or actual <= 0:
        return None
    return max(estimated, actual) / min(estimated, actual)


# ---------------------------------------------------------------------------
# The repository
# ---------------------------------------------------------------------------

class WorkloadRepository:
    """Per-provider statement/plan store keyed by fingerprint.

    Thread-safe: statements retire concurrently from wire-session threads.
    ``path=None`` keeps the repository memory-only; with a path, state is
    loaded lazily on first touch and saved by :meth:`save` (the provider
    calls it from ``close()`` and ``checkpoint()``).
    """

    def __init__(self, path: Optional[str] = None, metrics=None,
                 sketch_capacity: int = DEFAULT_SKETCH_CAPACITY,
                 plan_history: int = DEFAULT_PLAN_HISTORY,
                 change_limit: int = DEFAULT_CHANGE_LIMIT,
                 max_fingerprints: int = DEFAULT_MAX_FINGERPRINTS):
        self.path = path
        self.metrics = metrics
        self.enabled = True
        self.sketch_capacity = int(sketch_capacity)
        self.plan_history = max(1, int(plan_history))
        self.max_fingerprints = max(1, int(max_fingerprints))
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, FingerprintEntry]" = OrderedDict()
        self._changes: deque = deque(maxlen=max(1, int(change_limit)))
        self._change_seq = 0
        self._last_trigger: Optional[str] = None
        self._loaded = path is None
        self._dirty = False

    # -- attribution (statement thread, after parse, before execution) ---------

    def annotate(self, record, shape, plan=None) -> None:
        """Stamp fingerprint and plan attribution onto a statement record.

        Called by the dispatcher once the statement is planned; the
        stamps — ``record.fingerprint`` / ``plan_hash`` / ``plan_est_rows``
        and the normalized text and skeleton the aggregates would be created
        with — join the aggregates at retirement, under :meth:`observe`'s
        one lock (``record.text`` is the exemplar a new fingerprint's entry
        is created with).  ``shape`` is the callable that gives the
        statement's ``(normalized text, fingerprint)``; the one the
        statement-template cache hands out computes them once per statement
        shape, not once per text.  ``plan`` is the plan the dispatcher is
        about to execute (None for a control verb, or a statement that
        failed to plan), and the skeleton, its hash and the estimate are
        read straight off its tree — so what is recorded is the plan that
        runs, whatever catalog, data or model state chose it.  A kept
        plan's statement (a :class:`~repro.sqlstore.engine.Bound`) runs the
        tree of its access variant, rendered, hashed and estimated once per
        variant, under this repository's lock: its estimate is the first
        statement's to choose that variant.  Never raises into the
        statement: a statement that cannot be normalized or planned simply
        goes unattributed.
        """
        if not self.enabled or record is NULL_RECORD:
            return
        try:
            normalized, fingerprint = shape()
        except Exception:
            return  # fingerprinting must never fail the statement
        record.fingerprint = fingerprint
        record.attribution = (normalized, None)
        if plan is None:  # (a control verb has none)
            return
        try:
            variant = getattr(plan, "variant", None)
            if variant is None:
                identity = _identity(plan)
            else:
                identity = variant.identity
                if identity is None:
                    # The tree is shared: one statement estimates it, and
                    # any other reads what it took.
                    with self._lock:
                        identity = variant.identity = \
                            variant.identity or _identity(variant.plan)
        except Exception:
            return  # cannot be estimated: unattributed
        skeleton, record.plan_hash, est_rows = identity
        record.plan_est_rows = None if est_rows is None else float(est_rows)
        record.attribution = (normalized, skeleton)

    def _evict_plans(self, entry: FingerprintEntry) -> None:
        while len(entry.plans) > self.plan_history:
            for plan_hash in entry.plans:
                if plan_hash != entry.active_plan:
                    del entry.plans[plan_hash]
                    break
            else:  # only the active plan remains; nothing to evict
                break

    # -- retirement (tracer callback, statement thread) ------------------------

    def observe(self, record, totals: Dict[str, float],
                cpu_ms: Optional[float]) -> None:
        """Fold one finished statement record into the aggregates:
        ``totals`` is its ``record.totals()`` and ``cpu_ms`` its
        ``record.total_cpu_ms()`` (None when the workload registry did not
        account for it), read once by the caller for every fold."""
        if not self.enabled:
            return
        fingerprint = record.fingerprint
        kind = record.kind or "UNKNOWN"
        with self._lock:
            self._ensure_loaded()
            if kind in TRIGGER_KINDS and record.status == "ok":
                self._last_trigger = " ".join(record.text.split())
            if fingerprint is None:
                return
            normalized, skeleton = record.attribution
            entry = self._touch_entry(fingerprint, normalized, record.text)
            entry.kind = kind
            entry.calls += 1
            entry.last_at = time.time()
            if record.status == "error":
                entry.errors += 1
            elif record.status == "cancelled":
                entry.cancels += 1
            duration = record.duration_ms
            if duration is not None:
                entry.total_ms += duration
                entry.min_ms = (duration if entry.min_ms is None
                                else min(entry.min_ms, duration))
                entry.max_ms = (duration if entry.max_ms is None
                                else max(entry.max_ms, duration))
                entry.sketch.observe(duration)
            rows_out = totals.get("rows_out")
            entry.rows_returned += int(rows_out or 0)
            entry.buffer_reads += int(totals.get("buffer_reads", 0) or 0)
            if record.registry is not None:
                entry.cpu_ms += cpu_ms
                entry.cache_hits += record.cache_hits
                entry.cache_misses += record.cache_misses
                entry.pool_tasks += record.pool_tasks
            self._observe_plan(entry, record, skeleton, duration, rows_out)
            self._dirty = True

    def _observe_plan(self, entry: FingerprintEntry, record, skeleton: str,
                      duration: Optional[float], rows_out) -> None:
        plan_hash = record.plan_hash
        if plan_hash is None:
            return
        if plan_hash in entry.plans:
            entry.plans.move_to_end(plan_hash)
        else:  # the plan joins the fingerprint's history
            entry.plans[plan_hash] = PlanEntry(plan_hash, skeleton)
            self._evict_plans(entry)
        plan = entry.plans.get(plan_hash)
        if plan is None:
            return
        plan.executions += 1
        plan.last_seen = time.time()
        if duration is not None:
            plan.total_ms += duration
        error = q_error(record.plan_est_rows,
                        None if rows_out is None else float(rows_out))
        if error is not None:
            plan.q_count += 1
            plan.q_sum += error
            plan.q_max = (error if plan.q_max is None
                          else max(plan.q_max, error))
        if entry.active_plan != plan_hash:
            if entry.active_plan is not None:
                old = entry.plans.get(entry.active_plan)
                self._change_seq += 1
                self._changes.append(PlanChange(
                    self._change_seq, entry.fingerprint, entry.normalized,
                    entry.active_plan, plan_hash, self._last_trigger,
                    None if old is None else old.mean_ms()))
                if self.metrics is not None:
                    self.metrics.counter("repository.plan_changes").inc()
            entry.active_plan = plan_hash

    def _touch_entry(self, fingerprint: str, normalized: str,
                     exemplar: str) -> FingerprintEntry:
        entry = self._entries.get(fingerprint)
        if entry is None:
            entry = FingerprintEntry(fingerprint, normalized, exemplar,
                                     sketch_capacity=self.sketch_capacity)
            self._entries[fingerprint] = entry
            while len(self._entries) > self.max_fingerprints:
                self._entries.popitem(last=False)
                if self.metrics is not None:
                    self.metrics.counter("repository.evictions").inc()
        self._entries.move_to_end(fingerprint)
        return entry

    # -- snapshots (rowsets, /statements, Prometheus) --------------------------

    def statement_stats(self) -> List[Dict[str, Any]]:
        """Per-fingerprint aggregate dicts, hottest (most total time) first."""
        with self._lock:
            self._ensure_loaded()
            entries = list(self._entries.values())
            rows = []
            for entry in entries:
                rows.append({
                    "fingerprint": entry.fingerprint,
                    "statement": entry.normalized,
                    "exemplar": " ".join(entry.exemplar.split()),
                    "kind": entry.kind,
                    "calls": entry.calls,
                    "errors": entry.errors,
                    "cancels": entry.cancels,
                    "total_ms": entry.total_ms,
                    "mean_ms": entry.mean_ms(),
                    "min_ms": entry.min_ms,
                    "max_ms": entry.max_ms,
                    "p50_ms": entry.sketch.quantile(0.50),
                    "p95_ms": entry.sketch.quantile(0.95),
                    "p99_ms": entry.sketch.quantile(0.99),
                    "rows_returned": entry.rows_returned,
                    "cpu_ms": entry.cpu_ms,
                    "cache_hits": entry.cache_hits,
                    "cache_misses": entry.cache_misses,
                    "buffer_reads": entry.buffer_reads,
                    "pool_tasks": entry.pool_tasks,
                    "plans": len(entry.plans),
                    "plan_hash": entry.active_plan,
                    "first_at": entry.first_at,
                    "last_at": entry.last_at,
                })
        rows.sort(key=lambda r: (-r["total_ms"], r["fingerprint"]))
        return rows

    def plan_history_rows(self) -> List[Dict[str, Any]]:
        """One dict per (fingerprint, plan), fingerprint-then-first-seen
        order."""
        with self._lock:
            self._ensure_loaded()
            rows = []
            for entry in self._entries.values():
                for plan in entry.plans.values():
                    rows.append({
                        "fingerprint": entry.fingerprint,
                        "plan_hash": plan.plan_hash,
                        "active": plan.plan_hash == entry.active_plan,
                        "first_seen": plan.first_seen,
                        "last_seen": plan.last_seen,
                        "executions": plan.executions,
                        "mean_ms": plan.mean_ms(),
                        "q_count": plan.q_count,
                        "mean_q_error": plan.mean_q_error(),
                        "max_q_error": plan.q_max,
                        "skeleton": plan.skeleton,
                    })
        rows.sort(key=lambda r: (r["fingerprint"], r["first_seen"],
                                 r["plan_hash"]))
        return rows

    def plan_changes(self) -> List[Dict[str, Any]]:
        """Plan-change events oldest first, with live *after* baselines."""
        with self._lock:
            self._ensure_loaded()
            rows = []
            for change in self._changes:
                row = change.to_dict()
                entry = self._entries.get(change.fingerprint)
                after = None
                if entry is not None:
                    new_plan = entry.plans.get(change.new_plan_hash)
                    if new_plan is not None:
                        after = new_plan.mean_ms()
                row["after_mean_ms"] = after
                rows.append(row)
        return rows

    def __len__(self) -> int:
        with self._lock:
            self._ensure_loaded()
            return len(self._entries)

    # -- persistence -----------------------------------------------------------

    def _ensure_loaded(self) -> None:
        """Lazy one-shot load; corrupt files degrade to empty, never raise."""
        if self._loaded:
            return
        self._loaded = True
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            if data.get("format") != FORMAT_VERSION:
                raise ValueError(
                    f"unknown repository format {data.get('format')!r}")
            for item in data.get("statements", []):
                entry = FingerprintEntry.from_dict(item)
                self._entries[entry.fingerprint] = entry
            for item in data.get("changes", []):
                self._changes.append(PlanChange.from_dict(item))
            self._change_seq = int(data.get("change_seq", len(self._changes)))
            trigger = data.get("last_trigger")
            self._last_trigger = None if trigger is None else str(trigger)
        except FileNotFoundError:
            pass
        except Exception:
            self._entries.clear()
            self._changes.clear()
            self._change_seq = 0
            self._last_trigger = None
            if self.metrics is not None:
                self.metrics.counter("repository.load_errors").inc()

    def save(self) -> bool:
        """Write the repository to its JSON file; True when written.

        No-op without a path or without changes since the last save.  A
        write failure counts ``repository.save_errors`` and returns False
        rather than failing the close/checkpoint that triggered it.
        """
        if self.path is None:
            return False
        with self._lock:
            if not self._dirty and self._loaded:
                return False
            self._ensure_loaded()
            payload = {
                "format": FORMAT_VERSION,
                "change_seq": self._change_seq,
                "last_trigger": self._last_trigger,
                "statements": [entry.to_dict()
                               for entry in self._entries.values()],
                "changes": [change.to_dict() for change in self._changes],
            }
            self._dirty = False
        from repro.store.atomic import atomic_write_text
        try:
            atomic_write_text(self.path, json.dumps(payload, sort_keys=True))
            return True
        except OSError:
            if self.metrics is not None:
                self.metrics.counter("repository.save_errors").inc()
            return False
