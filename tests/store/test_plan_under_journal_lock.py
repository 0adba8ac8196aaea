"""A journaled statement is planned under the lock it commits under.

An ``INSERT … SELECT`` with a seekable WHERE plans an index seek: the row
positions of its source rows.  Were it planned before it took the store's
mutation lock, a DELETE on the source table could commit in between; the
INSERT would then read the positions' new rows, while the journal replays
it against the data after the DELETE and inserts the rows it names.  The
INSERT is parked after planning (in the workload repository's annotate
hook) while a DELETE of the rows before its range is started: the DELETE
waits for the INSERT, and a copy of the store taken after both were
acknowledged recovers to the live state.
"""

import shutil
import threading

import repro

ROWS = 300
INSERT = "INSERT INTO D (id, v) SELECT id, v FROM S WHERE id >= 100 " \
         "AND id < 110"
DELETE = "DELETE FROM S WHERE id < 50"


def _state(conn):
    return {table: sorted(conn.execute(f"SELECT id, v FROM {table}").rows)
            for table in ("S", "D")}


def test_insert_select_and_a_concurrent_delete_recover_as_they_ran(
        tmp_path, monkeypatch):
    path = str(tmp_path / "store")
    conn = repro.connect(durable_path=path)
    conn.execute("CREATE TABLE S (id LONG, v LONG)")
    conn.execute("CREATE INDEX s_id ON S (id)")
    conn.execute("INSERT INTO S VALUES " + ", ".join(
        f"({i}, {i * 10})" for i in range(ROWS)))
    conn.execute("CREATE TABLE D (id LONG, v LONG)")
    plan = conn.execute("EXPLAIN " + INSERT)
    assert "index seek" in plan.column_values("OPERATOR")

    parked, release = threading.Event(), threading.Event()
    repository = conn.provider.repository
    annotate = repository.annotate

    def park(record, command, *args):
        annotate(record, command, *args)
        if command == INSERT:
            parked.set()
            assert release.wait(10), "the parked INSERT was never released"
    monkeypatch.setattr(repository, "annotate", park)
    errors = []

    def run(text):
        try:
            conn.execute(text)
        except BaseException as exc:          # surfaced by the assert below
            errors.append(exc)

    insert = threading.Thread(target=run, args=(INSERT,))
    delete = threading.Thread(target=run, args=(DELETE,))
    insert.start()
    assert parked.wait(10)
    delete.start()
    delete.join(0.5)
    assert delete.is_alive(), "the DELETE committed between the INSERT's " \
        "planning and its run"
    release.set()
    insert.join(10)
    delete.join(10)
    assert not insert.is_alive() and not delete.is_alive()
    assert errors == []

    live = _state(conn)
    assert live["D"] == [(i, i * 10) for i in range(100, 110)]
    assert live["S"] == [(i, i * 10) for i in range(50, ROWS)]
    copy = str(tmp_path / "copy")
    shutil.copytree(path, copy)               # the crash: no clean close
    conn.close()
    recovered = repro.connect(durable_path=copy)
    try:
        assert _state(recovered) == live
    finally:
        recovered.close()
