"""Statement records: one object per statement, from admission to completion.

The paper's thesis is that every part of the mining life cycle is driven
through the SQL command surface; this module applies the same idea to the
provider's own runtime behaviour.  Each statement is one
:class:`StatementRecord` with one lifetime:

* **admission** (:meth:`Tracer.admit`) issues its id — one contiguous id
  space — and creates the record: text, kind, session, its ``counters``,
  its list of captured ``regions`` (None unless ``tracer.enabled`` was on
  at admission), and the progress/CPU/lock-wait/cache/pool counters the
  workload layer (:mod:`repro.obs.workload`) reads and writes;
* every plan node it **runs** keeps its actuals in a cell of the record's
  ``actuals`` (:meth:`repro.obs.explain.PlanNode.run`, the one place they
  are taken) — what ``EXPLAIN ANALYZE`` renders;
* while it **runs** it occupies this thread's one slot (:func:`activate` /
  :func:`deactivate`), through which every module-level helper here and
  in :mod:`repro.obs.workload` resolves.  A streamed statement occupies
  the slot only while a batch is being produced, so whatever its consumer
  executes between batches has its own record, and statement CPU is the
  sum of ``thread_time`` deltas over the activations;
* **completion** (:meth:`Tracer.complete`, idempotent) stamps status,
  error, duration and CPU, folds the plan's row counters (``rows_out``,
  ``rows_scanned``, ``cases_bound``) out of the cells into ``counters``,
  appends the record to the bounded ring, takes it out of the registry's
  live map and calls ``on_statement`` — once.
  ``execute()`` completes on return or raise; ``execute_stream()`` when
  the stream it returned is exhausted, raises, is closed or is dropped.

What a statement ran is one list of rows, :meth:`StatementRecord.trace_rows`:
the statement itself, holding its counter totals, then each captured
:class:`Region` in the order it opened.  A plan node's region reads its
time, rows and batches from the node's cell, so a node is timed once.
``$SYSTEM.DM_TRACE_EVENTS``, the Chrome trace, the slow-query sink and
``TRACE LAST`` all render those rows; ``$SYSTEM.DM_QUERY_LOG`` lists the
ring, in completion order, and then the live statements, one row each in
the columns of :data:`repro.obs.workload.STATEMENT_COLUMNS`.

Cost model (the contract the overhead benchmark asserts):

* ``recording`` off — ``admit()`` returns a shared null record; nothing
  is allocated, registered, cancellable, counted, or stored;
* ``recording`` on, capture off (the default) — one record per
  statement, one cell per plan node run and a handful of counter adds
  into its one dict; :func:`region` returns a shared no-op context;
* capture on — additionally one :class:`Region` per plan node run and
  per free region (``parse``, ``algorithm.train``).

Instrumented modules never hold a tracer; they call the module-level
:func:`region` and :func:`add`.  With no active record both are near-free
no-ops, so the engine, shaping, and algorithm layers stay usable
standalone.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from contextlib import contextmanager, nullcontext
from typing import Any, Dict, List, Optional

from repro.errors import CancelledError

#: The one per-statement thread-local: ``.record`` is the statement
#: active on this thread (None between statements and between the batches
#: of a stream).
_local = threading.local()

DEFAULT_RING_SIZE = 256

#: What :func:`region` returns when nothing is captured (``as`` binds None).
NO_REGION = nullcontext()


class Region:
    """One captured region of a statement: its name, attributes, depth
    under the statement and start, in its record's ``regions`` in the order
    regions opened.  A plan node's region points at the node's
    :class:`~repro.obs.explain.Actuals` cell, whose time, rows and batches
    it reports; a free region times itself."""

    __slots__ = ("name", "attributes", "depth", "started", "duration_ms",
                 "cell", "_record")

    def __init__(self, record: "StatementRecord", name: str,
                 attributes: Dict[str, Any], cell=None):
        self.name = name
        self.attributes = attributes
        self.depth = record.depth
        self.started = time.perf_counter()
        self.duration_ms: Optional[float] = None
        self.cell = cell
        self._record = record  # while open: its close restores the depth
        record.depth += 1
        record.regions.append(self)

    def close(self) -> None:
        self.duration_ms = (time.perf_counter() - self.started) * 1000.0
        self._record.depth = self.depth
        self._record = None

    def __enter__(self) -> "Region":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class StatementRecord:
    """One statement — identity, outcome, counters, captured regions,
    repository attribution and resource accounting — live from admission
    until completion.

    Progress counters are written by the thread producing the statement
    (pool results are collected there too); snapshot readers on other
    threads see monotonically advancing plain attributes, which is all the
    live views need.
    """

    __slots__ = (
        "statement_id", "text", "kind", "thread", "session", "started_at",
        "status", "error", "duration_ms", "started", "counters",
        "regions", "depth", "actuals", "fingerprint", "plan_hash", "plan_est_rows",
        "attribution",
        "registry", "token", "phase",
        "rows_processed", "batches", "peak_batch_rows",
        "pool_tasks", "pool_tasks_in_flight", "pool_cpu_ms",
        "cpu_ms", "_cpu_mark", "lock_wait_ms", "lock_waits",
        "cache_hits", "cache_misses", "folds",
    )

    def __init__(self, statement_id: int, text: str, kind: str = "UNKNOWN",
                 session: Optional[int] = None, capture: bool = False):
        self.statement_id = statement_id
        self.text = text
        self.kind = kind
        self.thread = threading.current_thread().name
        # Network session that issued the statement; None when embedded.
        self.session = session
        self.started_at = time.time()
        self.status = "running"  # -> ok | error | cancelled at completion
        self.error: Optional[str] = None
        self.duration_ms: Optional[float] = None
        self.started = time.perf_counter()  # the clock regions start on
        self.counters: Dict[str, float] = {}
        # Provider metrics counted on the statement's path (:func:`count`),
        # folded with the rest at completion.
        self.folds: Dict[str, float] = {}
        # Captured regions in the order they opened (None: no capture),
        # and the depth the next one opens at.
        self.regions: Optional[List[Region]] = [] if capture else None
        self.depth = 0
        # The cells of the plan nodes this statement ran, keyed by node in
        # the order they started (repro.obs.explain.PlanActuals): None
        # until the first node runs, and again once completion folded them.
        self.actuals = None
        # Workload-repository attribution, stamped by the dispatcher after
        # parse: statement fingerprint, captured plan-skeleton hash, and
        # the plan root's estimated cardinality (for q-error at retire).
        self.fingerprint: Optional[str] = None
        self.plan_hash: Optional[str] = None
        self.plan_est_rows: Optional[float] = None
        self.attribution = None  # (normalized text, skeleton): repository's
        # Set by WorkloadRegistry.admit; both stay None for a statement
        # admitted with the workload layer off, which then carries no
        # resource accounting and cannot be cancelled.
        self.registry = None
        self.token = None
        self.phase = "queued"  # -> parse | bind | train | predict | scan
        self.rows_processed = 0
        self.batches = 0
        self.peak_batch_rows = 0
        self.pool_tasks = 0
        self.pool_tasks_in_flight = 0
        self.pool_cpu_ms = 0.0
        self.cpu_ms = 0.0  # producing-thread CPU over closed activations
        self._cpu_mark: Optional[float] = None  # thread_time at activation
        self.lock_wait_ms = 0.0
        self.lock_waits = 0
        self.cache_hits = 0
        self.cache_misses = 0

    # -- what it ran -----------------------------------------------------------

    def totals(self) -> Dict[str, float]:
        # A copy: a running statement may gain counters while another
        # thread reads its row.
        return self.counters.copy()

    def trace_rows(self) -> List[tuple]:
        """What this statement ran, one row per span — the statement, then
        each captured region in the order it opened — as ``(span_id,
        parent_span_id, depth, name, started, duration_ms, counters,
        attributes)``.  Dotted span ids encode nesting (``1`` is the
        statement, ``1.2`` its second child); ``started`` is on the
        ``perf_counter`` clock; the statement's row holds its counter
        totals and a region's none; a plan node's region adds its
        cell's ``rows`` and ``batches`` to its attributes."""
        rows = [("1", None, 0, "statement", self.started, self.duration_ms,
                 self.totals(), {})]
        path = [1]  # the position of the latest span at each depth
        for region in self.regions or ():
            depth = region.depth + 1
            del path[depth + 1:]
            if len(path) > depth:
                path[depth] += 1
            else:
                path.append(1)
            span_id = ".".join(map(str, path))
            duration_ms, attributes = region.duration_ms, region.attributes
            cell = region.cell
            if cell is not None:
                duration_ms = cell.wall_ms
                attributes = dict(attributes, rows=cell.rows)
                if cell.batches is not None:
                    attributes["batches"] = cell.batches
            rows.append((span_id, span_id.rpartition(".")[0], depth,
                         region.name, region.started, duration_ms, {},
                         attributes))
        return rows

    # -- progress and accounting (producing thread) ---------------------------

    def advance(self, rows: int = 0) -> None:
        """One batch boundary: record progress, then honor cancellation."""
        if rows:
            self.rows_processed += rows
            if rows > self.peak_batch_rows:
                self.peak_batch_rows = rows
        self.batches += 1
        if self.token.cancelled:
            self.token.check()

    def elapsed_ms(self) -> float:
        if self.duration_ms is not None:
            return self.duration_ms
        return (time.perf_counter() - self.started) * 1000.0

    def total_cpu_ms(self) -> float:
        """Producing-thread CPU plus worker CPU shipped back from the pool;
        includes the open activation when read from the producing thread."""
        cpu_ms = self.cpu_ms + self.pool_cpu_ms
        if self._cpu_mark is not None and \
                getattr(_local, "record", None) is self:
            cpu_ms += (time.thread_time() - self._cpu_mark) * 1000.0
        return cpu_ms

    def _bank_cpu(self) -> None:
        if self._cpu_mark is not None:
            self.cpu_ms += (time.thread_time() - self._cpu_mark) * 1000.0
            self._cpu_mark = None

    def __repr__(self) -> str:
        return (f"StatementRecord(#{self.statement_id}, {self.kind}, "
                f"{self.status}, {self.phase}, {self.rows_processed} rows)")


class _NullRecord:
    """What admission returns when statement recording is off: absorbs the
    dispatcher's stamps, never occupies the slot, never completes."""

    statement_id = 0
    status = None

    def __setattr__(self, name: str, value: Any) -> None:
        pass  # swallow kind/fingerprint/plan assignments


NULL_RECORD = _NullRecord()


class Tracer:
    """Per-provider statement log: admission, completion, the ring.

    ``recording`` gates the statement log (query log rows, statement
    counters, the completion callback); ``enabled``, read at admission,
    additionally captures each record's regions.  The ring holds the most recent ``ring_size`` completed
    statements, in completion order.
    """

    def __init__(self, ring_size: int = DEFAULT_RING_SIZE,
                 enabled: bool = False):
        self.enabled = enabled
        self.recording = True
        self._ring: deque = deque(maxlen=max(1, int(ring_size)))
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        # on_statement(record) is invoked once per completed statement;
        # the provider fans it out to repository, metrics and sink.
        self.on_statement = None

    # -- configuration --------------------------------------------------------

    @property
    def ring_size(self) -> int:
        return self._ring.maxlen

    def resize_ring(self, ring_size: int) -> None:
        """Rebound the ring, keeping the newest records."""
        with self._lock:
            self._ring = deque(self._ring, maxlen=max(1, int(ring_size)))

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()

    # -- statement lifecycle --------------------------------------------------

    def admit(self, text: str, kind: str = "UNKNOWN",
              session: Optional[int] = None):
        """Issue the next statement id and create its record (the shared
        null record when ``recording`` is off)."""
        if not self.recording:
            return NULL_RECORD
        return StatementRecord(next(self._ids), text, kind, session,
                               capture=self.enabled)

    def complete(self, record, exc: Optional[BaseException] = None) -> None:
        """End ``record``'s life, once however many paths call this: stamp
        status/error/duration/CPU, join the ring, leave the live map, and
        call ``on_statement``."""
        if record.status != "running":
            return
        if exc is None:
            record.status = "ok"
        else:
            record.status = ("cancelled" if isinstance(exc, CancelledError)
                             else "error")
            record.error = f"{type(exc).__name__}: {exc}"
        record._bank_cpu()
        if record.actuals is not None:
            # The plan's row counters join the statement's; the cells are
            # kept only by the regions that report them, and the plan
            # nodes they are keyed by not at all.
            record.counters.update(record.actuals.totals())
            record.actuals = None
        record.duration_ms = (time.perf_counter() - record.started) * 1000.0
        # Ring first: a reader between the two steps finds the record in
        # both lists (statement readers list it once), never in neither.
        with self._lock:
            self._ring.append(record)
        if record.registry is not None:
            record.registry.retire(record)
        if self.on_statement is not None:
            self.on_statement(record)

    @contextmanager
    def statement(self, text: str, kind: str = "UNKNOWN"):
        """A statement whose whole life is one block: admitted and active
        on entry, completed on exit.  Yields its :class:`StatementRecord`."""
        record = self.admit(text, kind)
        previous = activate(record)
        try:
            yield record
        except BaseException as exc:
            self.complete(record, exc)
            raise
        finally:
            deactivate(previous)
        self.complete(record)

    # -- ring access ----------------------------------------------------------

    def statements(self) -> List[StatementRecord]:
        """Snapshot of the ring, oldest first."""
        with self._lock:
            return list(self._ring)

    def last(self) -> Optional[StatementRecord]:
        with self._lock:
            return self._ring[-1] if self._ring else None

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


# ---------------------------------------------------------------------------
# Module-level instrumentation API (resolves the thread-active record)
# ---------------------------------------------------------------------------

def activate(record):
    """Make ``record`` this thread's active statement and start its CPU
    clock; returns the prior occupant for :func:`deactivate`.  The null
    record empties the slot; re-activating the active record nests."""
    previous = getattr(_local, "record", None)
    if record is NULL_RECORD:
        record = None
    elif record._cpu_mark is None:
        record._cpu_mark = time.thread_time()
    _local.record = record
    return previous


def deactivate(previous) -> None:
    """Undo the matching :func:`activate`: bank the active record's CPU
    and restore the prior occupant."""
    record = _local.record
    if record is not None and record is not previous:
        record._bank_cpu()
    _local.record = previous


def active_record() -> Optional[StatementRecord]:
    """This thread's active statement record, or None."""
    return getattr(_local, "record", None)


def region(name: str, **attributes):
    """Open a region on the active record when it captures; otherwise the
    shared :data:`NO_REGION`."""
    record = getattr(_local, "record", None)
    if record is None or record.regions is None:
        return NO_REGION
    return Region(record, name, attributes)


def count(metrics, name: str) -> None:
    """Count one ``name`` in the provider ``metrics`` (none: nothing) for
    the active statement: it rides the record into the statement's one
    completion fold, or, with no record active (statement recording off),
    is folded now."""
    if metrics is not None:
        record = getattr(_local, "record", None)
        if record is None:
            metrics.fold({name: 1})
        else:
            record.folds[name] = record.folds.get(name, 0) + 1


def add(counter: str, amount: float = 1) -> None:
    """Add to a counter of the active record: one dict per statement,
    whatever is captured, read by ``DM_QUERY_LOG`` and every trace view."""
    record = getattr(_local, "record", None)
    if record is not None:
        counters = record.counters
        counters[counter] = counters.get(counter, 0) + amount
