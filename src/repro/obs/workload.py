"""Live workload introspection: statement rows, cancellation, resources.

A statement is one :class:`~repro.obs.trace.StatementRecord` from
admission to completion, and ``$SYSTEM.DM_QUERY_LOG`` lists it as one row
— finished or, with ``STATUS`` ``running``, in flight: what it is, how far
along it is, what it is costing.  This module holds that row and the
workload half of the record:

* :data:`STATEMENT_COLUMNS` — the one column list of a statement, each
  column ``(name, type, read(record))``.  ``DM_QUERY_LOG`` is these
  columns over :func:`statements`; :func:`statement_dict` is the same
  values under lower-cased names, which the slow-query sink, the
  ``/queries`` route and the Chrome trace carry.
* :class:`WorkloadRegistry` — one per provider: the ``statement_id ->
  record`` map of live statements.  A record enters at admission and
  leaves at completion (:meth:`Tracer.complete`, after it joined the
  ring), so an ``execute_stream`` statement stays a ``running`` row and
  reachable by ``CANCEL <id>`` until its stream ends.
* :class:`CancelToken` — cooperative cancellation.  ``CANCEL <id>`` (or
  :meth:`Connection.cancel`) sets the token; the executing statement
  observes it at its next progress checkpoint — a batch a plan node
  pulls (``PlanNode.run``), a pool task collected, a grown node or a
  training iteration in the algorithms — and unwinds with :class:`~repro.errors.CancelledError`.  Nothing is
  interrupted mid-mutation: the mutation either completes or is rolled
  back by its owner, and a cancelled statement is never journaled.
* Per-statement resource accounting — CPU-ms (``time.thread_time`` deltas
  over the record's activations plus per-task deltas shipped back from
  pool workers), lock-wait-ms reported by :class:`repro.exec.locks.RWLock`,
  rows/batches processed, and pool tasks in flight.
  Lock waits also aggregate per (lock, mode) into the contention table
  behind ``$SYSTEM.DM_LOCK_WAITS``.

Instrumented modules never hold a registry; they call the module-level
functions (:func:`checkpoint`, :func:`set_phase`, :func:`note_lock_wait`,
...), which resolve the active record from :mod:`repro.obs.trace`'s one
thread-local slot.  With no active record — or one admitted while the
registry was disabled — every call is a near-free no-op, so the engine
and algorithm layers stay usable standalone.
"""

from __future__ import annotations

import threading
import time
from datetime import datetime
from operator import attrgetter
from typing import Any, Dict, List, Optional

from repro.errors import CancelledError, Error
from repro.obs.trace import StatementRecord, _local
from repro.sqlstore.types import BOOLEAN, DOUBLE, LONG, TEXT

#: ``.session`` is the network session bound to this thread — a fact about
#: the thread, not about any one statement.
_session = threading.local()


class CancelToken:
    """A one-way latch checked cooperatively at batch boundaries."""

    __slots__ = ("cancelled", "reason", "statement_id")

    def __init__(self, statement_id: int = 0):
        self.statement_id = statement_id
        # A plain attribute: a per-batch loop reads it without a call.
        self.cancelled = False
        self.reason: Optional[str] = None

    def cancel(self, reason: str = "cancelled by operator") -> None:
        # Write order matters for lock-free readers: reason first, then the
        # flag that makes check() raise.
        self.reason = reason
        self.cancelled = True

    def check(self) -> None:
        """Raise :class:`CancelledError` if cancellation was requested."""
        if self.cancelled:
            raise CancelledError(
                f"statement {self.statement_id} was cancelled "
                f"({self.reason})")


class _LockContention:
    """Aggregated waits for one (lock, mode) pair — a DM_LOCK_WAITS row."""

    __slots__ = ("lock", "mode", "waits", "total_wait_ms", "max_wait_ms",
                 "last_wait_at")

    def __init__(self, lock: str, mode: str):
        self.lock = lock
        self.mode = mode
        self.waits = 0
        self.total_wait_ms = 0.0
        self.max_wait_ms = 0.0
        self.last_wait_at: Optional[float] = None


class WorkloadRegistry:
    """Per-provider map of live statements, plus lock-contention stats.

    ``enabled = False`` turns the whole layer off (used by the accounting
    overhead benchmark to measure its own cost): nothing is admitted, so
    every module-level call short-circuits on the record's empty
    ``registry`` field.
    """

    def __init__(self, metrics=None):
        self.enabled = True
        self.metrics = metrics
        self._lock = threading.Lock()
        self._live: Dict[int, StatementRecord] = {}
        self._contention: Dict[tuple, _LockContention] = {}

    # -- statement lifecycle ---------------------------------------------------

    def admit(self, record) -> None:
        """Make an admitted record live: accounted, visible, cancellable.
        Nothing happens when the layer is off or for the null record."""
        if not self.enabled or not record.statement_id:
            return
        record.registry = self
        record.token = CancelToken(record.statement_id)
        with self._lock:
            self._live[record.statement_id] = record

    def retire(self, record) -> None:
        """Drop a completing record from the live map."""
        with self._lock:
            self._live.pop(record.statement_id, None)

    def cancel(self, statement_id: int,
               reason: str = "cancelled by operator",
               session: Optional[int] = None) -> StatementRecord:
        """Request cancellation of an active statement; raises on unknown id.

        ``session`` scopes the request: a network session may cancel only
        statements it owns (the server and the CANCEL verb pass the
        caller's session id), while an embedded caller (``session=None``)
        acts as the operator and may cancel anything.
        """
        with self._lock:
            statement = self._live.get(statement_id)
            active_ids = sorted(self._live)
        if statement is None:
            raise Error(
                f"no active statement with id {statement_id} "
                f"(active: {', '.join(map(str, active_ids)) or 'none'}); "
                f"see SELECT * FROM $SYSTEM.DM_QUERY_LOG "
                f"WHERE STATUS = 'running'")
        if session is not None and statement.session != session:
            owner = (f"session {statement.session}"
                     if statement.session is not None
                     else "the embedded connection")
            raise Error(
                f"statement {statement_id} is owned by {owner}; a session "
                f"may only cancel its own statements")
        statement.token.cancel(reason)
        if self.metrics is not None:
            self.metrics.counter("resource.cancel_requests").inc()
        return statement

    # -- snapshots -------------------------------------------------------------

    def active(self) -> List[StatementRecord]:
        """Live statements, oldest first."""
        with self._lock:
            return sorted(self._live.values(),
                          key=lambda s: s.statement_id)

    def contention(self) -> List[_LockContention]:
        """DM_LOCK_WAITS rows, sorted by (lock, mode)."""
        with self._lock:
            return [self._contention[key]
                    for key in sorted(self._contention)]

    # -- lock-wait profiling ---------------------------------------------------

    def record_lock_wait(self, lock: str, mode: str, wait_ms: float) -> None:
        with self._lock:
            entry = self._contention.get((lock, mode))
            if entry is None:
                entry = self._contention[(lock, mode)] = \
                    _LockContention(lock, mode)
            entry.waits += 1
            entry.total_wait_ms += wait_ms
            if wait_ms > entry.max_wait_ms:
                entry.max_wait_ms = wait_ms
            entry.last_wait_at = time.time()
        if self.metrics is not None:
            self.metrics.fold({"lock.waits": 1, f"lock.waits.{mode}": 1,
                               "lock.wait_ms": wait_ms})


# ---------------------------------------------------------------------------
# One statement, one row: the columns every statement surface reads
# ---------------------------------------------------------------------------

def timestamp(seconds: Optional[float]) -> Optional[str]:
    """A wall-clock instant as ISO 8601 local time with its UTC offset, to
    the millisecond: every timestamp column and JSON field spells it so."""
    if seconds is None:
        return None
    return datetime.fromtimestamp(seconds).astimezone().isoformat(
        timespec="milliseconds")


def _counter(name: str):
    return lambda record: int(record.totals().get(name, 0))


def _accounted(read):
    """A resource column: NULL for a record the workload layer never
    accounted (admitted while the registry was disabled)."""
    return lambda record: None if record.registry is None else read(record)


#: ``(name, type, read(record))`` of every column of a statement, in
#: ``$SYSTEM.DM_QUERY_LOG``'s order.  A running statement's DURATION_MS is
#: the time elapsed so far.
STATEMENT_COLUMNS = [
    ("STATEMENT_ID", LONG, attrgetter("statement_id")),
    ("STATEMENT", TEXT, lambda record: " ".join(record.text.split())),
    ("KIND", TEXT, attrgetter("kind")),
    ("STATUS", TEXT, attrgetter("status")),
    ("ERROR", TEXT, attrgetter("error")),
    ("STARTED_AT", TEXT, lambda record: timestamp(record.started_at)),
    ("DURATION_MS", DOUBLE, lambda record: round(record.elapsed_ms(), 3)),
    ("ROWS_SCANNED", LONG, _counter("rows_scanned")),
    ("ROWS_OUT", LONG, _counter("rows_out")),
    ("CASES", LONG, _counter("cases_bound")),
    ("SPAN_COUNT", LONG, lambda record: 1 + len(record.regions or ())),
    ("THREAD", TEXT, attrgetter("thread")),
    ("SESSION", LONG, attrgetter("session")),
    ("FINGERPRINT", TEXT, attrgetter("fingerprint")),
    ("PLAN_HASH", TEXT, attrgetter("plan_hash")),
    ("PHASE", TEXT, _accounted(attrgetter("phase"))),
    ("CPU_MS", DOUBLE,
     _accounted(lambda record: round(record.total_cpu_ms(), 3))),
    ("POOL_CPU_MS", DOUBLE,
     _accounted(lambda record: round(record.pool_cpu_ms, 3))),
    ("LOCK_WAIT_MS", DOUBLE,
     _accounted(lambda record: round(record.lock_wait_ms, 3))),
    ("LOCK_WAITS", LONG, _accounted(attrgetter("lock_waits"))),
    ("ROWS_PROCESSED", LONG, _accounted(attrgetter("rows_processed"))),
    ("PEAK_BATCH_ROWS", LONG, _accounted(attrgetter("peak_batch_rows"))),
    ("BATCHES", LONG, _accounted(attrgetter("batches"))),
    ("POOL_TASKS", LONG, _accounted(attrgetter("pool_tasks"))),
    ("POOL_TASKS_IN_FLIGHT", LONG,
     _accounted(attrgetter("pool_tasks_in_flight"))),
    ("CACHE_HITS", LONG, _accounted(attrgetter("cache_hits"))),
    ("CACHE_MISSES", LONG, _accounted(attrgetter("cache_misses"))),
    ("CANCEL_REQUESTED", BOOLEAN,
     _accounted(attrgetter("token.cancelled"))),
]


def statement_dict(record) -> Dict[str, Any]:
    """The record's statement row as JSON: the lower-cased column names."""
    return {name.lower(): read(record)
            for name, _, read in STATEMENT_COLUMNS}


def statements(provider) -> List[StatementRecord]:
    """Every statement once: the finished ring, then the live statements.

    The live map is read first.  A completing record joins the ring before
    it leaves the live map, so one that completes between the two reads is
    in both, and is listed once, with the live ones.
    """
    live = provider.workload.active()
    ids = {record.statement_id for record in live}
    return [record for record in provider.tracer.statements()
            if record.statement_id not in ids] + live


# ---------------------------------------------------------------------------
# Module-level instrumentation API (resolves the thread-active record)
# ---------------------------------------------------------------------------

def set_session(session: Optional[int]) -> None:
    """Bind this thread to a network session id (None to unbind).

    The DMX server calls this once on each session thread; every statement
    admitted on the thread then carries the session id into its
    ``DM_QUERY_LOG`` row and is protected by the cancel ownership check.
    """
    _session.session = session


def session_id() -> Optional[int]:
    """The network session id bound to this thread, or None (embedded)."""
    return getattr(_session, "session", None)


def current() -> Optional[StatementRecord]:
    """This thread's active record if the registry accounts for it (read
    straight off the trace module's thread slot: every checkpoint, phase
    change and lock wait comes through here)."""
    record = getattr(_local, "record", None)
    if record is not None and record.registry is not None:
        return record
    return None


def checkpoint() -> None:
    """One step of work no plan node streams — a training loop's bound
    batch or tree node: count a batch and honor cancellation (a plan
    node's pull does both for what it streams, ``Actuals.counted``).  It
    raises :class:`CancelledError` when the statement's token is set.
    """
    record = current()
    if record is not None:
        record.advance()


def check() -> None:
    """Honor cancellation without recording progress (entry-point guard)."""
    record = current()
    if record is not None:
        record.token.check()


def set_phase(phase: str, leaving: Optional[str] = None) -> None:
    """Move the active statement into a new execution phase — only out of
    the phase ``leaving``, when one is given."""
    record = current()
    if record is not None and leaving in (None, record.phase):
        record.phase = phase


def note_lock_wait(lock: str, mode: str, wait_ms: float) -> None:
    """Report one contended lock acquisition (called by RWLock)."""
    record = current()
    if record is not None:
        record.lock_wait_ms += wait_ms
        record.lock_waits += 1
        record.registry.record_lock_wait(lock, mode, wait_ms)


def note_cache(hit: bool) -> None:
    """Attribute one caseset-cache lookup to the active statement."""
    record = current()
    if record is not None:
        if hit:
            record.cache_hits += 1
        else:
            record.cache_misses += 1
