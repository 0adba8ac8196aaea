"""The shared worker pool behind ``connect(max_workers=N)`` and MAXDOP.

One :class:`WorkerPool` lives on each provider.  It is deliberately lazy:
no executor exists until the first statement actually runs with an
effective degree of parallelism above one, so the default serial provider
pays nothing.  Three transports:

* ``process`` — a :class:`~concurrent.futures.ProcessPoolExecutor` (the
  ``fork`` start method when the platform offers it).  This is the mode
  that yields wall-clock speedup for CPU-bound training/prediction under
  CPython's GIL; tasks must be picklable module-level functions.
* ``thread`` — a :class:`~concurrent.futures.ThreadPoolExecutor`.  Same
  semantics and ordering, no pickling, but no CPU speedup under the GIL;
  useful for tests and for I/O-ish workloads.
* ``serial`` — never parallelize, run every task inline.

``auto`` (the default) resolves to ``process`` where ``fork`` is available
and ``thread`` elsewhere.

Observability: the pool owns the ``pool.*`` metrics surfaced through
``$SYSTEM.DM_PROVIDER_METRICS`` and counts each task onto the statement
that submitted it — pinned when :meth:`WorkerPool.map_ordered` starts,
because results may be collected lazily, and worker threads and processes
have no statement of their own.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import (
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.errors import Error
from repro.obs import trace as obs_trace
from repro.obs import workload as obs_workload

MODES = ("auto", "serial", "thread", "process")

_session_local = threading.local()


def set_session_dop_cap(cap: Optional[int]) -> None:
    """Cap the effective DOP for statements run on this thread.

    The DMX server binds each session thread to the client's negotiated
    ``max_dop`` knob; like ``WITH MAXDOP`` it can only lower the pool
    ceiling, never raise it.  ``None`` clears the cap (embedded default).
    """
    _session_local.cap = cap


def session_dop_cap() -> Optional[int]:
    """This thread's session DOP cap, or None when unbound."""
    return getattr(_session_local, "cap", None)


def _cpu_timed(func: Callable[[Any], Any], payload: Any) -> tuple:
    """Run one task, measuring its own CPU time where it executes.

    ``time.thread_time`` is per-thread, so the submitting thread cannot
    observe worker CPU; instead the delta is taken inside the task (worker
    thread, or worker *process* — the value is picklable either way) and
    shipped back alongside the result for the collector to aggregate onto
    the statement's resource account.
    """
    started = time.thread_time()
    result = func(payload)
    return time.thread_time() - started, result


def _fork_context():
    """The ``fork`` multiprocessing context, or None if unavailable."""
    import multiprocessing
    try:
        if "fork" in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context("fork")
    except Exception:  # pragma: no cover - platform-specific
        pass
    return None


def resolve_mode(mode: str) -> str:
    """Normalize a ``pool_mode`` knob value to a concrete transport."""
    mode = (mode or "auto").lower()
    if mode not in MODES:
        raise Error(
            f"unknown pool_mode {mode!r}; expected one of {', '.join(MODES)}")
    if mode == "auto":
        return "process" if _fork_context() is not None else "thread"
    return mode


class WorkerPool:
    """A lazily-created, shared executor with ordered fan-out helpers.

    ``max_workers`` is the provider-level ceiling; a statement's
    ``WITH MAXDOP n`` can only lower it (SQL Server semantics — the server
    configuration wins).  ``effective_dop(None)`` and ``effective_dop(0)``
    both mean "use the configured maximum".
    """

    def __init__(self, max_workers: int = 1, mode: str = "auto",
                 metrics=None):
        self.max_workers = max(1, int(max_workers))
        self.mode = resolve_mode(mode)
        self.metrics = metrics
        self._executor = None
        self._lock = threading.Lock()
        if metrics is not None:
            metrics.gauge("pool.max_workers").set(self.max_workers)
            metrics.gauge("pool.workers_live").set(0)

    # -- knobs ----------------------------------------------------------------

    def effective_dop(self, requested: Optional[int] = None) -> int:
        """Clamp a statement's MAXDOP request against the pool ceiling.

        The ceiling is the provider's ``max_workers``, further lowered by
        the calling thread's session DOP cap when the statement arrived
        over the wire (:func:`set_session_dop_cap`).
        """
        if self.mode == "serial":
            return 1
        ceiling = self.max_workers
        session_cap = session_dop_cap()
        if session_cap is not None:
            ceiling = max(1, min(int(session_cap), ceiling))
        if requested is None or requested == 0:
            return ceiling
        return max(1, min(int(requested), ceiling))

    # -- bookkeeping ----------------------------------------------------------

    def _counter(self, name: str, amount: float = 1) -> None:
        if self.metrics is not None:
            self.metrics.fold({name: amount})

    def note_parallel_statement(self, kind: str) -> None:
        """One statement chose the parallel path (a prediction join)."""
        self._counter("pool.parallel_statements")
        self._counter(f"pool.parallel_statements.{kind}")

    def note_serial_fallback(self, reason: str) -> None:
        """One statement requested dop>1 but ran serially; say why."""
        self._counter("pool.serial_fallbacks")
        self._counter(f"pool.serial_fallbacks.{reason}")
        obs_trace.add("pool_serial_fallbacks", 1)

    # -- executor life cycle --------------------------------------------------

    def _ensure_executor(self):
        with self._lock:
            if self._executor is None:
                if self.mode == "process":
                    context = _fork_context()
                    if context is not None:
                        self._executor = ProcessPoolExecutor(
                            max_workers=self.max_workers, mp_context=context)
                    else:  # pragma: no cover - non-fork platforms
                        self._executor = ProcessPoolExecutor(
                            max_workers=self.max_workers)
                else:
                    self._executor = ThreadPoolExecutor(
                        max_workers=self.max_workers,
                        thread_name_prefix="repro-pool")
                if self.metrics is not None:
                    self.metrics.gauge("pool.workers_live").set(
                        self.max_workers)
            return self._executor

    def shutdown(self, wait: bool = True) -> None:
        """Stop the executor; idempotent, and the pool lazily revives on
        the next parallel statement (so closing one connection of a shared
        provider is always safe)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait)
            if self.metrics is not None:
                self.metrics.gauge("pool.workers_live").set(0)

    # -- ordered fan-out ------------------------------------------------------

    def map_ordered(self, func: Callable[[Any], Any],
                    payloads: Iterable[Any],
                    dop: Optional[int] = None,
                    window_factor: int = 2) -> Iterator[Any]:
        """Apply ``func`` to each payload, yielding results in submission
        order — the order-preserving primitive behind the parallel
        PREDICTION JOIN.

        At most ``dop * window_factor`` tasks are in flight, so a lazy
        consumer keeps O(window) memory.  Abandoning the generator cancels
        whatever has not started.  Task exceptions re-raise in submission
        order, exactly where the serial loop would have raised them.
        """
        dop = self.effective_dop(dop)
        # Pin the active statement at entry: results may be collected
        # lazily, and worker threads/processes have no thread-local
        # statement of their own.
        stmt = obs_workload.current()
        if dop <= 1:
            for payload in payloads:
                if stmt is not None:
                    stmt.token.check()
                yield func(payload)
            return
        executor = self._ensure_executor()
        window = max(2, dop * window_factor)
        pending: deque = deque()
        iterator = iter(payloads)

        def submit(payload) -> Future:
            self._counter("pool.tasks_submitted")
            if stmt is not None:
                # Wrap so the task reports its own CPU delta from wherever
                # it runs; unwrapped tasks stay zero-overhead.
                future = executor.submit(_cpu_timed, func, payload)
                stmt.pool_tasks_in_flight += 1
            else:
                future = executor.submit(func, payload)
            future._repro_started = time.perf_counter()
            return future

        def collect(future: Future):
            result = future.result()
            elapsed_ms = (time.perf_counter() -
                          future._repro_started) * 1000.0
            if self.metrics is not None:
                self.metrics.fold({"pool.tasks_completed": 1},
                                  {"pool.task_ms": elapsed_ms})
            if stmt is not None:
                cpu_seconds, result = result
                stmt.pool_tasks_in_flight -= 1
                stmt.pool_tasks += 1
                stmt.pool_cpu_ms += cpu_seconds * 1000.0
            return result

        try:
            # The token checks run while every submitted future is still in
            # ``pending``, so a cancellation unwinds through the finally
            # below with the accounting invariant intact.
            for payload in iterator:
                if stmt is not None:
                    stmt.token.check()
                pending.append(submit(payload))
                if len(pending) >= window:
                    yield collect(pending.popleft())
            while pending:
                if stmt is not None:
                    stmt.token.check()
                yield collect(pending.popleft())
        finally:
            # Early exit (TOP, consumer error, CANCEL): account for every
            # submitted task so pool.tasks_submitted == completed +
            # cancelled + abandoned always holds — the "no torn counts"
            # invariant.
            while pending:
                future = pending.popleft()
                if stmt is not None:
                    stmt.pool_tasks_in_flight -= 1
                if future.cancel():
                    self._counter("pool.tasks_cancelled")
                else:
                    self._counter("pool.tasks_abandoned")

    def run_all(self, func: Callable[[Any], Any], payloads,
                dop: Optional[int] = None) -> list:
        """Eager :meth:`map_ordered`: all results, in submission order."""
        return list(self.map_ordered(func, payloads, dop=dop))
