"""Concurrent writers end where a serial replay of their statements ends.

Three threads write one PRIMARY KEY table at once: one DELETEs single
rows, one runs ``UPDATE … SET v = v + 1`` on other keys, one INSERTs new
keys.  The statements touch disjoint keys, so every serial order of them
ends in the same rows and every statement returns the same count.  A
writer that planned its access path, or read the row list, before
another's commit would change rows it did not read or lose the other's
work; the provider's writer lock, held by every mutating statement from
its planning to its commit, rules that out on every provider.  A tiny
switch interval makes the threads interleave inside statements.
"""

import sys
import threading

import pytest

import repro

ROWS = 1500
PER_THREAD = 50

DELETES = [f"DELETE FROM T WHERE id = {2 * k}" for k in range(PER_THREAD)]
UPDATES = [f"UPDATE T SET v = v + 1 WHERE id = {ROWS // 2 + 2 * k + 1}"
           for k in range(PER_THREAD)]
INSERTS = [f"INSERT INTO T VALUES ({ROWS + k}, {-k})"
           for k in range(PER_THREAD)]
THREADS = (DELETES, UPDATES, INSERTS)


def _connect(kind, tmp_path):
    if kind == "memory":
        return repro.connect()
    if kind == "paged":
        return repro.connect(storage_path=str(tmp_path / "pages"))
    return repro.connect(durable_path=str(tmp_path / "store"))


def _load(conn):
    conn.execute("CREATE TABLE T (id LONG PRIMARY KEY, v LONG)")
    conn.execute("INSERT INTO T VALUES " + ", ".join(
        f"({i}, {i * 10})" for i in range(ROWS)))


def _rows(conn):
    return sorted(conn.execute("SELECT id, v FROM T").rows)


@pytest.fixture(scope="module")
def serial():
    """The rows and each thread's counts of one serial replay."""
    conn = repro.connect()
    try:
        _load(conn)
        counts = [[conn.execute(text) for text in texts]
                  for texts in THREADS]
        return _rows(conn), counts
    finally:
        conn.close()


@pytest.fixture
def tiny_switch_interval():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(previous)


@pytest.mark.parametrize("kind", ["memory", "paged", "durable"])
def test_concurrent_writers_match_a_serial_replay(tmp_path, kind, serial,
                                                   tiny_switch_interval):
    expected_rows, expected_counts = serial
    conn = _connect(kind, tmp_path)
    try:
        _load(conn)
        counts = [[] for _ in THREADS]
        errors = []
        start = threading.Barrier(len(THREADS))

        def run(texts, out):
            try:
                start.wait()
                for text in texts:
                    out.append(conn.execute(text))
            except BaseException as exc:   # surfaced by the assert below
                errors.append(exc)
        threads = [threading.Thread(target=run, args=(texts, out))
                   for texts, out in zip(THREADS, counts)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert counts == expected_counts
        assert _rows(conn) == expected_rows
    finally:
        conn.close()


def test_mutating_statements_are_matched_by_exact_type():
    """The provider tests ``type(statement) in MUTATING_STATEMENTS``: a
    subclass of a mutating statement would run without the writer lock."""
    from repro.store.durable import MUTATING_STATEMENTS
    assert [cls for cls in MUTATING_STATEMENTS if cls.__subclasses__()] == []
