"""Statement records: one object per statement, from admission to completion.

The paper's thesis is that every part of the mining life cycle is driven
through the SQL command surface; this module applies the same idea to the
provider's own runtime behaviour.  Each statement is one
:class:`StatementRecord` with one lifetime:

* **admission** (:meth:`Tracer.admit`) issues its id — one contiguous id
  space — and creates the record: text, kind, session, its own span stack
  under a ``statement`` root span, its ``capture`` flag (seeded from
  ``tracer.enabled``), and the progress/CPU/lock-wait/cache/pool counters
  the workload layer (:mod:`repro.obs.workload`) reads and writes;
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
  ``rows_scanned``, ``cases_bound``) out of the cells into the root span,
  appends the record to the bounded ring, takes it out of the registry's
  live map and calls ``on_statement`` — once.
  ``execute()`` completes on return or raise; ``execute_stream()`` when
  the stream it returned is exhausted, raises, is closed or is dropped.

``$SYSTEM.DM_QUERY_LOG`` lists the ring, in completion order, and then
the live statements, one row each in the columns of
:data:`repro.obs.workload.STATEMENT_COLUMNS`; ``DM_TRACE_EVENTS`` projects
the ring's span trees.

Cost model (the contract the overhead benchmark asserts):

* ``recording`` off — ``admit()`` returns a shared null record; nothing
  is allocated, registered, cancellable, counted, or stored;
* ``recording`` on, capture off (the default) — one record with one root
  span per statement, one cell per plan node run and a handful of
  batched counter adds; child ``span()`` calls return a shared no-op span;
* capture on — the full span tree is captured, one span per plan node
  run among them.

Instrumented modules never hold a tracer; they call the module-level
:func:`span` and :func:`add`.  With no active record both are near-free
no-ops, so the engine, shaping, and algorithm layers stay usable
standalone.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import CancelledError

#: The one per-statement thread-local: ``.record`` is the statement
#: active on this thread (None between statements and between the batches
#: of a stream).
_local = threading.local()

DEFAULT_RING_SIZE = 256


class Span:
    """One timed region of statement execution, with counters and children."""

    __slots__ = ("name", "attributes", "counters", "children", "started",
                 "duration_ms", "_stack")

    def __init__(self, name: str, attributes: Optional[Dict[str, Any]],
                 stack: List["Span"]):
        self.name = name
        self.attributes: Dict[str, Any] = dict(attributes) if attributes else {}
        self.counters: Dict[str, float] = {}
        self.children: List[Span] = []
        self.started = time.perf_counter()
        self.duration_ms: Optional[float] = None
        self._stack = stack  # its record's open spans, innermost last

    def add(self, counter: str, amount: float = 1) -> None:
        """Increment a named counter on this span."""
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def set(self, attribute: str, value: Any) -> None:
        self.attributes[attribute] = value

    def walk(self, depth: int = 0) -> Iterator[Tuple["Span", int]]:
        """Yield (span, depth) over this subtree, pre-order."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)

    def totals(self) -> Dict[str, float]:
        """Counters aggregated over this span and all descendants."""
        aggregate: Dict[str, float] = {}
        for span, _ in self.walk():
            # A copy: a running statement's spans may gain counters while
            # another thread reads its row.
            for name, amount in span.counters.copy().items():
                aggregate[name] = aggregate.get(name, 0) + amount
        return aggregate

    def span_count(self) -> int:
        return sum(1 for _ in self.walk())

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration_ms = (time.perf_counter() - self.started) * 1000.0
        if self._stack[-1] is self:
            self._stack.pop()
        return False

    def __repr__(self) -> str:
        timing = "open" if self.duration_ms is None else \
            f"{self.duration_ms:.3f} ms"
        return (f"Span({self.name!r}, {timing}, {len(self.children)} "
                f"children, {self.counters})")


class _NullSpan:
    """Shared no-op span returned when tracing is disabled."""

    __slots__ = ()

    def add(self, counter: str, amount: float = 1) -> None:
        pass

    def set(self, attribute: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class StatementRecord:
    """One statement — identity, outcome, span tree, repository attribution
    and resource accounting — live from admission until completion.

    Progress counters are written by the thread producing the statement
    (pool results are collected there too); snapshot readers on other
    threads see monotonically advancing plain attributes, which is all the
    live views need.
    """

    __slots__ = (
        "statement_id", "text", "kind", "thread", "session", "started_at",
        "status", "error", "duration_ms", "root", "capture", "_stack",
        "actuals", "fingerprint", "plan_hash", "plan_est_rows",
        "registry", "token", "phase",
        "rows_processed", "batches", "peak_batch_rows",
        "partitions_done", "partitions_total",
        "pool_tasks", "pool_tasks_in_flight", "pool_cpu_ms",
        "cpu_ms", "_cpu_mark", "lock_wait_ms", "lock_waits",
        "cache_hits", "cache_misses",
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
        self._stack: List[Span] = []
        self.root = Span("statement", None, self._stack)
        self._stack.append(self.root)
        self.capture = capture
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
        # Set by WorkloadRegistry.admit; both stay None for a statement
        # admitted with the workload layer off, which then carries no
        # resource accounting and cannot be cancelled.
        self.registry = None
        self.token = None
        self.phase = "queued"  # -> parse | bind | train | predict | scan
        self.rows_processed = 0
        self.batches = 0
        self.peak_batch_rows = 0
        self.partitions_done = 0
        self.partitions_total = 0
        self.pool_tasks = 0
        self.pool_tasks_in_flight = 0
        self.pool_cpu_ms = 0.0
        self.cpu_ms = 0.0  # producing-thread CPU over closed activations
        self._cpu_mark: Optional[float] = None  # thread_time at activation
        self.lock_wait_ms = 0.0
        self.lock_waits = 0
        self.cache_hits = 0
        self.cache_misses = 0

    # -- spans ----------------------------------------------------------------

    def start_span(self, name: str,
                   attributes: Optional[Dict[str, Any]] = None) -> Span:
        """Open a child of the innermost open span, whatever ``capture``."""
        span = Span(name, attributes, self._stack)
        self._stack[-1].children.append(span)
        self._stack.append(span)
        return span

    def totals(self) -> Dict[str, float]:
        return self.root.totals()

    def spans(self) -> List[Tuple[Span, int]]:
        return list(self.root.walk())

    # -- progress and accounting (producing thread) ---------------------------

    def advance(self, rows: int = 0) -> None:
        """One batch boundary: record progress, then honor cancellation."""
        if rows:
            self.rows_processed += rows
            if rows > self.peak_batch_rows:
                self.peak_batch_rows = rows
        self.batches += 1
        self.token.check()

    def elapsed_ms(self) -> float:
        if self.duration_ms is not None:
            return self.duration_ms
        return (time.perf_counter() - self.root.started) * 1000.0

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
    root = None
    status = None

    def __setattr__(self, name: str, value: Any) -> None:
        pass  # swallow kind/fingerprint/plan assignments


NULL_RECORD = _NullRecord()


class Tracer:
    """Per-provider statement log: admission, completion, the ring.

    ``recording`` gates the statement log (query log rows, root-span
    counters, the completion callback); ``enabled`` seeds each admitted
    record's ``capture`` flag, which additionally captures nested span
    trees.  The ring holds the most recent ``ring_size`` completed
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
            # The plan's row counters join the root span's; the cells, and
            # the plan nodes they are keyed by, are not kept in the ring.
            record.root.counters.update(record.actuals.totals())
            record.actuals = None
        root = record.root
        root.duration_ms = (time.perf_counter() - root.started) * 1000.0
        record.duration_ms = root.duration_ms
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

    def start_span(self, name: str, **attributes):
        """Open a span on this thread's active record, whatever its
        ``capture`` flag (no-op span with no active record)."""
        record = getattr(_local, "record", None)
        return NULL_SPAN if record is None \
            else record.start_span(name, attributes)

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


def span(name: str, **attributes):
    """Open a child span on the active record (no-op span unless it
    captures)."""
    record = getattr(_local, "record", None)
    if record is None or not record.capture:
        return NULL_SPAN
    return record.start_span(name, attributes)


def add(counter: str, amount: float = 1) -> None:
    """Add to a counter on the innermost open span of the active record.

    With span capture off the innermost span is the statement root, so
    counters still roll up into ``$SYSTEM.DM_QUERY_LOG`` row totals.
    """
    record = getattr(_local, "record", None)
    if record is not None:
        record._stack[-1].add(counter, amount)
