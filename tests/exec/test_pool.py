"""WorkerPool unit tests: ordering, accounting, life cycle, MAXDOP."""

import multiprocessing
import threading
import time

import pytest

from repro.errors import Error
from repro.exec.pool import WorkerPool, resolve_mode
from repro.obs.metrics import MetricsRegistry

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def _square(x):
    return x * x


def _jittered_square(x):
    # Later payloads finish first: ordering must come from the pool, not
    # from completion time.
    time.sleep(0.03 if x < 4 else 0.001)
    return x * x


def _boom(x):
    if x == 5:
        raise ValueError("payload five")
    return x


class TestModeResolution:
    def test_serial_thread_process_pass_through(self):
        assert resolve_mode("serial") == "serial"
        assert resolve_mode("thread") == "thread"
        assert resolve_mode("THREAD") == "thread"

    def test_auto_resolves_to_a_concrete_transport(self):
        assert resolve_mode("auto") in ("process", "thread")
        assert resolve_mode(None) in ("process", "thread")

    def test_unknown_mode_is_the_packages_own_error(self):
        with pytest.raises(Error):
            resolve_mode("fibers")


class TestEffectiveDop:
    def test_none_and_zero_mean_the_configured_maximum(self):
        pool = WorkerPool(max_workers=6, mode="thread")
        assert pool.effective_dop(None) == 6
        assert pool.effective_dop(0) == 6

    def test_maxdop_can_only_lower_the_ceiling(self):
        pool = WorkerPool(max_workers=4, mode="thread")
        assert pool.effective_dop(2) == 2
        assert pool.effective_dop(99) == 4
        assert pool.effective_dop(1) == 1

    def test_serial_mode_always_answers_one(self):
        pool = WorkerPool(max_workers=8, mode="serial")
        assert pool.effective_dop(None) == 1
        assert pool.effective_dop(5) == 1


class TestMapOrdered:
    def test_results_arrive_in_submission_order(self):
        pool = WorkerPool(max_workers=4, mode="thread")
        try:
            results = pool.run_all(_jittered_square, list(range(8)), dop=4)
            assert results == [x * x for x in range(8)]
        finally:
            pool.shutdown()

    def test_dop_one_runs_inline_without_an_executor(self):
        pool = WorkerPool(max_workers=4, mode="thread")
        assert pool.run_all(_square, [1, 2, 3], dop=1) == [1, 4, 9]
        assert pool._executor is None

    def test_task_ledger_balances_after_a_full_run(self):
        metrics = MetricsRegistry()
        pool = WorkerPool(max_workers=3, mode="thread", metrics=metrics)
        try:
            pool.run_all(_square, list(range(10)), dop=3)
        finally:
            pool.shutdown()
        assert metrics.value("pool.tasks_submitted") == 10
        assert metrics.value("pool.tasks_completed") == 10
        assert metrics.value("pool.tasks_cancelled") == 0
        assert metrics.value("pool.tasks_abandoned") == 0

    def test_abandoned_generator_accounts_for_every_task(self):
        metrics = MetricsRegistry()
        pool = WorkerPool(max_workers=2, mode="thread", metrics=metrics)
        try:
            iterator = pool.map_ordered(_jittered_square, list(range(20)),
                                        dop=2)
            assert next(iterator) == 0
            iterator.close()  # early exit: TOP or a consumer error
        finally:
            pool.shutdown()
        submitted = metrics.value("pool.tasks_submitted")
        accounted = (metrics.value("pool.tasks_completed")
                     + metrics.value("pool.tasks_cancelled")
                     + metrics.value("pool.tasks_abandoned"))
        assert submitted == accounted
        assert submitted < 20  # the window bounded what was in flight

    def test_exceptions_reraise_in_submission_order(self):
        pool = WorkerPool(max_workers=4, mode="thread")
        try:
            collected = []
            with pytest.raises(ValueError, match="payload five"):
                for value in pool.map_ordered(_boom, list(range(10)), dop=4):
                    collected.append(value)
            # Everything before the failing payload was yielded, exactly as
            # the serial loop would have.
            assert collected == [0, 1, 2, 3, 4]
        finally:
            pool.shutdown()

    def test_lazy_consumption_keeps_a_bounded_window(self):
        pool = WorkerPool(max_workers=2, mode="thread")
        try:
            started = []
            lock = threading.Lock()

            def tracked(x):
                with lock:
                    started.append(x)
                return x

            iterator = pool.map_ordered(tracked, list(range(50)), dop=2)
            next(iterator)
            time.sleep(0.05)
            # window = dop * window_factor = 4 (+1 already collected).
            assert len(started) <= 6
            iterator.close()
        finally:
            pool.shutdown()


class TestLifeCycle:
    def test_shutdown_is_idempotent_and_pool_revives(self):
        metrics = MetricsRegistry()
        pool = WorkerPool(max_workers=2, mode="thread", metrics=metrics)
        assert pool.run_all(_square, [2, 3], dop=2) == [4, 9]
        assert metrics.value("pool.workers_live") == 2
        pool.shutdown()
        pool.shutdown()
        assert metrics.value("pool.workers_live") == 0
        # A closed pool lazily builds a fresh executor on the next use.
        assert pool.run_all(_square, [4], dop=2) == [16]
        assert metrics.value("pool.workers_live") == 2
        pool.shutdown()

    def test_gauges_published_at_construction(self):
        metrics = MetricsRegistry()
        WorkerPool(max_workers=5, mode="thread", metrics=metrics)
        assert metrics.value("pool.max_workers") == 5
        assert metrics.value("pool.workers_live") == 0

    def test_serial_fallback_notes_reason(self):
        metrics = MetricsRegistry()
        pool = WorkerPool(max_workers=4, mode="thread", metrics=metrics)
        pool.note_serial_fallback("subquery")
        pool.note_serial_fallback("subquery")
        pool.note_serial_fallback("pickle")
        assert metrics.value("pool.serial_fallbacks") == 3
        assert metrics.value("pool.serial_fallbacks.subquery") == 2
        assert metrics.value("pool.serial_fallbacks.pickle") == 1


@pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
class TestProcessMode:
    def test_process_pool_preserves_order_and_ledger(self):
        metrics = MetricsRegistry()
        pool = WorkerPool(max_workers=2, mode="process", metrics=metrics)
        try:
            assert pool.run_all(_square, list(range(6)), dop=2) == \
                [x * x for x in range(6)]
        finally:
            pool.shutdown()
        assert metrics.value("pool.tasks_submitted") == 6
        assert metrics.value("pool.tasks_completed") == 6
