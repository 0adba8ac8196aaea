"""Concurrent statement execution vs the query-log ring.

The ring is a bounded deque shared by every executing thread; eviction
under pressure must never produce a snapshot with duplicated, reordered,
or torn records, and ``DM_QUERY_LOG`` — the ring plus the live statements
— must list each statement once, however its completion interleaves.
These tests hammer one provider from many threads while a reader
snapshots continuously.
"""

import sys
import threading

import pytest

THREADS = 6
STATEMENTS_PER_THREAD = 40


@pytest.fixture
def loaded(conn):
    conn.execute("CREATE TABLE T (x INT)")
    conn.execute("INSERT INTO T VALUES (1), (2), (3)")
    return conn


def _hammer(conn, errors):
    try:
        for _ in range(STATEMENTS_PER_THREAD):
            conn.execute("SELECT * FROM T")
    except Exception as exc:  # pragma: no cover - the assertion payload
        errors.append(exc)


class TestConcurrentRing:
    def test_snapshots_stay_consistent_under_eviction(self, loaded):
        loaded.provider.tracer.resize_ring(16)
        errors: list = []
        stop = threading.Event()
        snapshots: list = []

        def reader():
            while not stop.is_set():
                snapshots.append(loaded.provider.tracer.statements())

        workers = [threading.Thread(target=_hammer, args=(loaded, errors))
                   for _ in range(THREADS)]
        observer = threading.Thread(target=reader)
        observer.start()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        stop.set()
        observer.join()

        assert not errors
        assert snapshots
        for snapshot in snapshots:
            ids = [record.statement_id for record in snapshot]
            # No duplicates and never more than the ring holds.  The ring
            # is completion-ordered, so ids need not be sorted — a long
            # statement lands after later-started short ones — but no id
            # may appear twice and no snapshot may tear mid-eviction.
            assert len(ids) == len(set(ids))
            assert len(ids) <= 16
            assert all(record.status == "ok" for record in snapshot)

    def test_statement_ids_are_unique_across_threads(self, loaded):
        loaded.provider.tracer.resize_ring(
            THREADS * STATEMENTS_PER_THREAD + 10)
        errors: list = []
        workers = [threading.Thread(target=_hammer, args=(loaded, errors))
                   for _ in range(THREADS)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert not errors
        records = [r for r in loaded.provider.tracer.statements()
                   if "FROM T" in r.text]
        assert len(records) == THREADS * STATEMENTS_PER_THREAD
        ids = [record.statement_id for record in records]
        assert len(set(ids)) == len(ids)

    def test_log_lists_every_statement_once_while_others_complete(
            self, loaded):
        """DM_QUERY_LOG is the ring plus the live statements: a snapshot
        taken while statements complete on other threads lists each of
        them once, and a statement listed once stays listed (the ring
        holds them all) — none is lost between the live map and the
        ring."""
        from repro.core.schema_rowsets import system_rowset
        loaded.provider.tracer.resize_ring(
            THREADS * STATEMENTS_PER_THREAD + 10)
        errors: list = []
        stop = threading.Event()
        snapshots: list = []

        def snapshot():
            rowset = system_rowset(loaded.provider, "DM_QUERY_LOG")
            snapshots.append([row[0] for row in rowset.rows])

        def reader():
            while not stop.is_set():
                snapshot()

        workers = [threading.Thread(target=_hammer, args=(loaded, errors))
                   for _ in range(THREADS)]
        observer = threading.Thread(target=reader)
        switching = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave completions finely
        try:
            observer.start()
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(60.0)
            stop.set()
            observer.join(60.0)
        finally:
            sys.setswitchinterval(switching)
        assert not any(thread.is_alive() for thread in workers + [observer])
        snapshot()  # after every statement completed

        assert not errors
        assert len(snapshots) > 2
        listed: set = set()
        for ids in snapshots:
            assert len(ids) == len(set(ids))
            assert listed <= set(ids)
            listed = set(ids)
        assert len(listed) == 2 + THREADS * STATEMENTS_PER_THREAD

    def test_thread_names_are_recorded(self, loaded):
        loaded.provider.tracer.resize_ring(64)
        done = threading.Event()

        def run():
            loaded.execute("SELECT * FROM T")
            done.set()

        thread = threading.Thread(target=run, name="worker-obs-test")
        thread.start()
        thread.join()
        assert done.is_set()
        threads = {record.thread
                   for record in loaded.provider.tracer.statements()}
        assert "worker-obs-test" in threads
        rowset = loaded.execute(
            "SELECT THREAD FROM $SYSTEM.DM_QUERY_LOG "
            "WHERE THREAD = 'worker-obs-test'")
        assert len(rowset) == 1
