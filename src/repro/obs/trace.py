"""Statement tracing: nested spans with counters, in a bounded ring buffer.

The paper's thesis is that every part of the mining life cycle is driven
through the SQL command surface; this module applies the same idea to the
provider's own runtime behaviour.  Each executed statement becomes a
:class:`StatementRecord` holding a tree of :class:`Span` objects
(``statement -> parse -> shape/bind -> engine -> algorithm -> predict``),
each carrying wall-time and named counters (rows scanned, cases bound,
observations trained, ...).  Records land in a thread-safe, bounded ring
buffer which the ``$SYSTEM.DM_QUERY_LOG`` and ``$SYSTEM.DM_TRACE_EVENTS``
schema rowsets expose back through the very surface being traced.

Cost model (the contract the overhead benchmark asserts):

* ``recording`` off — ``statement()`` yields a shared null record; nothing
  is allocated, counted, or stored;
* ``recording`` on, ``enabled`` off (the default) — one root span per
  statement plus a handful of batched counter adds; child ``span()`` calls
  return a shared no-op span;
* ``enabled`` on — the full span tree is captured.

Instrumented modules never hold a tracer; they call the module-level
:func:`span` and :func:`add`, which resolve the active tracer from a
thread-local slot that :meth:`Provider.execute` populates around each
statement.  With no active tracer both are near-free no-ops, so the
engine, shaping, and algorithm layers stay usable standalone.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

_local = threading.local()

DEFAULT_RING_SIZE = 256


class Span:
    """One timed region of statement execution, with counters and children."""

    __slots__ = ("name", "attributes", "counters", "children", "started",
                 "duration_ms", "_tracer")

    def __init__(self, name: str, attributes: Optional[Dict[str, Any]] = None,
                 tracer: Optional["Tracer"] = None):
        self.name = name
        self.attributes: Dict[str, Any] = dict(attributes) if attributes else {}
        self.counters: Dict[str, float] = {}
        self.children: List[Span] = []
        self.started = time.perf_counter()
        self.duration_ms: Optional[float] = None
        self._tracer = tracer

    def add(self, counter: str, amount: float = 1) -> None:
        """Increment a named counter on this span."""
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def set(self, attribute: str, value: Any) -> None:
        self.attributes[attribute] = value

    def extend(self) -> None:
        """Stretch this closed span's duration to now.  A lazy producer
        calls it when its last batch is out, so the span times the work it
        names and not just its planning (the counterpart of
        :func:`add_to` for counters)."""
        self.duration_ms = (time.perf_counter() - self.started) * 1000.0

    def walk(self, depth: int = 0) -> Iterator[Tuple["Span", int]]:
        """Yield (span, depth) over this subtree, pre-order."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)

    def totals(self) -> Dict[str, float]:
        """Counters aggregated over this span and all descendants."""
        aggregate: Dict[str, float] = {}
        for span, _ in self.walk():
            for name, amount in span.counters.items():
                aggregate[name] = aggregate.get(name, 0) + amount
        return aggregate

    def span_count(self) -> int:
        return sum(1 for _ in self.walk())

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._tracer is not None:
            self._tracer._finish_span(self)
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

    def extend(self) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class StatementRecord:
    """One executed statement: text, outcome, latency, and its span tree."""

    __slots__ = ("statement_id", "text", "kind", "status", "error",
                 "started_at", "duration_ms", "root", "thread", "session",
                 "resources", "fingerprint", "plan_hash", "plan_est_rows")

    def __init__(self, statement_id: int, text: str, kind: str = "UNKNOWN"):
        self.statement_id = statement_id
        self.text = text
        self.kind = kind
        self.thread = threading.current_thread().name
        # Network session id, stamped by the dispatcher when the statement
        # arrived over the wire; None for embedded statements.
        self.session: Optional[int] = None
        self.status: Optional[str] = None
        self.error: Optional[str] = None
        self.started_at = time.time()
        self.duration_ms: Optional[float] = None
        self.root: Optional[Span] = None
        # Resource summary dict stamped by the workload registry at finish
        # (CPU-ms, lock-wait-ms, rows, partitions, ...); None when the
        # workload layer is disabled.
        self.resources: Optional[Dict[str, Any]] = None
        # Workload-repository attribution, stamped by the dispatcher after
        # parse: statement fingerprint, captured plan-skeleton hash, and
        # the plan root's estimated cardinality (for q-error at retire).
        self.fingerprint: Optional[str] = None
        self.plan_hash: Optional[str] = None
        self.plan_est_rows: Optional[float] = None

    def totals(self) -> Dict[str, float]:
        return self.root.totals() if self.root is not None else {}

    def spans(self) -> List[Tuple[Span, int]]:
        return list(self.root.walk()) if self.root is not None else []

    def __repr__(self) -> str:
        return (f"StatementRecord(#{self.statement_id}, {self.kind}, "
                f"{self.status}, {self.duration_ms and round(self.duration_ms, 3)} ms)")


class _NullRecord:
    """Absorbs record mutations when statement recording is off."""

    root = None
    statement_id = 0
    text = ""
    thread = ""
    session = None
    duration_ms = None
    status = None
    error = None
    resources = None
    fingerprint = None
    plan_hash = None
    plan_est_rows = None

    def __setattr__(self, name: str, value: Any) -> None:
        pass  # swallow kind/status assignments from the dispatcher

    def totals(self) -> Dict[str, float]:
        return {}

    def spans(self) -> list:
        return []


NULL_RECORD = _NullRecord()


class Tracer:
    """Per-provider trace collector: span stack + statement ring buffer.

    ``recording`` gates the statement log (query log rows, root-span
    counters, metrics callback); ``enabled`` additionally captures nested
    span trees.  The ring holds the most recent ``ring_size`` statements.
    """

    def __init__(self, ring_size: int = DEFAULT_RING_SIZE,
                 enabled: bool = False):
        self.enabled = enabled
        self.recording = True
        self._ring: deque = deque(maxlen=max(1, int(ring_size)))
        self._lock = threading.Lock()
        self._seq = 0
        self._stacks = threading.local()
        # on_statement(record) is invoked after each completed statement;
        # the provider uses it to fold trace totals into its metrics.
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

    def _stack(self) -> List[Span]:
        stack = getattr(self._stacks, "value", None)
        if stack is None:
            stack = []
            self._stacks.value = stack
        return stack

    @contextmanager
    def statement(self, text: str, kind: str = "UNKNOWN"):
        """Trace one statement; yields its mutable :class:`StatementRecord`."""
        if not self.recording:
            yield NULL_RECORD
            return
        with self._lock:
            self._seq += 1
            record = StatementRecord(self._seq, text, kind)
        root = Span("statement", tracer=self)
        record.root = root
        stack = self._stack()
        stack.append(root)
        try:
            yield record
            if record.status is None:
                record.status = "ok"
        except Exception as exc:
            from repro.errors import CancelledError
            record.status = ("cancelled" if isinstance(exc, CancelledError)
                             else "error")
            record.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            root.duration_ms = (time.perf_counter() - root.started) * 1000.0
            record.duration_ms = root.duration_ms
            # Unwind any spans left open by an exception, then the root.
            while stack and stack[-1] is not root:
                stack.pop()
            if stack:
                stack.pop()
            with self._lock:
                self._ring.append(record)
            if self.on_statement is not None:
                self.on_statement(record)

    # -- span stack -----------------------------------------------------------

    def start_span(self, name: str, **attributes) -> Span:
        span = Span(name, attributes, tracer=self)
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        stack.append(span)
        return span

    def _finish_span(self, span: Span) -> None:
        span.duration_ms = (time.perf_counter() - span.started) * 1000.0
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def current_span(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

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
# Module-level instrumentation API (resolves the thread-active tracer)
# ---------------------------------------------------------------------------

def activate(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install ``tracer`` as this thread's active tracer; returns the prior."""
    previous = getattr(_local, "tracer", None)
    _local.tracer = tracer
    return previous


def deactivate(previous: Optional[Tracer]) -> None:
    """Restore the tracer returned by the matching :func:`activate`."""
    _local.tracer = previous


def active_tracer() -> Optional[Tracer]:
    return getattr(_local, "tracer", None)


def span(name: str, **attributes):
    """Open a child span on the active tracer (no-op span when disabled)."""
    tracer = getattr(_local, "tracer", None)
    if tracer is None or not tracer.enabled:
        return NULL_SPAN
    return tracer.start_span(name, **attributes)


def add(counter: str, amount: float = 1) -> None:
    """Add to a counter on the innermost open span of the active tracer.

    With span tracing disabled the innermost span is the statement root, so
    counters still roll up into ``$SYSTEM.DM_QUERY_LOG`` row totals.
    """
    tracer = getattr(_local, "tracer", None)
    if tracer is None or not tracer.recording:
        return
    stack = tracer._stack()
    if stack:
        stack[-1].add(counter, amount)


def current_span():
    """The innermost open span of the active tracer, for pinning.

    Lazy producers call this at plan time and pass the result to
    :func:`add_to`, so counters produced after the enclosing span closes
    still attribute to it.  Returns :data:`NULL_SPAN` when span capture is
    off, which makes :func:`add_to` fall back to :func:`add`.
    """
    tracer = getattr(_local, "tracer", None)
    if tracer is None or not tracer.enabled:
        return NULL_SPAN
    stack = tracer._stack()
    return stack[-1] if stack else NULL_SPAN


def add_to(span, counter: str, amount: float = 1) -> None:
    """Add to a counter on a captured span; used by lazy producers.

    Streaming operators capture their span at plan time and produce rows
    after it has closed; pinning the counter to the captured span keeps the
    trace attribution right.  When span capture is off the captured span is
    the shared null span, so fall back to :func:`add` and the counter rolls
    up into whatever statement is live at consumption time.
    """
    if span is NULL_SPAN:
        add(counter, amount)
    else:
        span.add(counter, amount)
