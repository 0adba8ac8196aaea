"""DELETE and UPDATE report progress and honour CANCEL batch by batch.

A plan node's counted pull is a statement's one per-batch point: a leaf's
batches are its progress (``ROWS_PROCESSED``, ``BATCHES``), and every
streamed node's pull is where a ``CANCEL`` lands.  A DELETE or UPDATE
reads its access path through that pull, so it reports what it scanned,
and a cancel that lands after its first batch stops it before it changes
anything — DML collects every position before it applies one — and frees
the writer lock for the next writer.
"""

import threading

import pytest

import repro
from repro.errors import CancelledError
from repro.obs import workload as obs_workload

ROWS, BATCH = 300, 64
STATEMENTS = {"delete": "DELETE FROM P WHERE age = 3",
              "update": "UPDATE P SET age = age + 100 WHERE age = 2"}


@pytest.fixture
def conn():
    conn = repro.connect(batch_size=BATCH)
    conn.execute("CREATE TABLE P (id LONG, age LONG)")
    conn.execute("INSERT INTO P VALUES " + ", ".join(
        f"({i}, {i % 7})" for i in range(ROWS)))
    yield conn
    conn.close()


def _last(conn, columns):
    return conn.execute(
        f"SELECT {columns} FROM $SYSTEM.DM_QUERY_LOG "
        f"WHERE STATUS <> 'running'").rows[-1]


def _state(conn):
    return (sorted(conn.execute("SELECT id, age FROM P").rows),
            conn.execute("SELECT * FROM $SYSTEM.DM_COLUMN_STATISTICS "
                         "WHERE TABLE_NAME = 'P'").rows)


@pytest.mark.parametrize("kind", list(STATEMENTS))
def test_dml_progress_is_what_it_scanned(conn, kind):
    conn.execute(STATEMENTS[kind])
    scanned, processed, batches, peak = _last(
        conn, "ROWS_SCANNED, ROWS_PROCESSED, BATCHES, PEAK_BATCH_ROWS")
    assert scanned == processed == ROWS
    assert batches == -(-ROWS // BATCH) >= 3
    assert peak == BATCH


@pytest.mark.parametrize("kind", list(STATEMENTS))
def test_a_cancel_after_the_first_batch_changes_nothing(conn, monkeypatch,
                                                        kind):
    before = _state(conn)
    table = conn.provider.database.table("P")
    iter_batches = table.iter_batches

    def cancelled_after_first(batch_size):
        batches = iter_batches(batch_size)
        yield next(batches)
        record = obs_workload.current()
        conn.cancel(record.statement_id)
        yield from batches
    monkeypatch.setattr(table, "iter_batches", cancelled_after_first)
    with pytest.raises(CancelledError):
        conn.execute(STATEMENTS[kind])
    monkeypatch.undo()
    status, processed, batches = _last(conn,
                                       "STATUS, ROWS_PROCESSED, BATCHES")
    # It landed at the second batch's pull: counted, never handed on.
    assert (status, processed, batches) == ("cancelled", 2 * BATCH, 2)
    assert _state(conn) == before

    # The writer lock was released: a DELETE on another thread completes.
    done = []
    writer = threading.Thread(target=lambda: done.append(
        conn.execute("DELETE FROM P WHERE id = 0")))
    writer.start()
    writer.join(10)
    assert done == [1]
