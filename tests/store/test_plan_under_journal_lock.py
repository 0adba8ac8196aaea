"""A mutating statement is planned under the lock it commits under.

An ``INSERT … SELECT``, a DELETE or an UPDATE with a seekable WHERE plans
an index seek: the row positions of the rows it reads.  Were it planned
before it took the provider's writer lock, a DELETE on the table could
commit in between; the statement would then read the positions' new rows
— and change rows it never named — while a journal replays it against
the data after the DELETE.  The statement is parked after planning (in
the workload repository's annotate hook) while a DELETE of the rows
before its range is started, on a provider in memory, on the paged store
and on the journaled store alike: the DELETE waits for it, the live state
is the serial one, and a copy of a store taken after both were
acknowledged recovers to it.
"""

import shutil
import threading

import pytest

import repro

ROWS = 300
RANGE = "WHERE id >= 100 AND id < 110"
DELETE = "DELETE FROM S WHERE id < 50"
KEPT = [(i, i * 10) for i in range(50, ROWS)]
#: name -> (the parked statement, S and D once it and DELETE have run)
PARKED = {
    "insert": (f"INSERT INTO D (id, v) SELECT id, v FROM S {RANGE}",
               KEPT, [(i, i * 10) for i in range(100, 110)]),
    "delete": (f"DELETE FROM S {RANGE}",
               [row for row in KEPT if not 100 <= row[0] < 110], []),
    "update": (f"UPDATE S SET v = -v {RANGE}",
               [(i, -v if 100 <= i < 110 else v) for i, v in KEPT], []),
}


def _state(conn):
    return {table: sorted(conn.execute(f"SELECT id, v FROM {table}").rows)
            for table in ("S", "D")}


#: provider kind -> its connect() keywords, given its directory
PROVIDERS = {
    "memory": lambda path: {},
    # Small pages: S spans enough of them that a seek beats the scan.
    "paged": lambda path: {"storage_path": path, "storage_page_bytes": 256},
    "durable": lambda path: {"durable_path": path},
}


@pytest.mark.parametrize("kind", list(PROVIDERS))
@pytest.mark.parametrize("name", list(PARKED))
def test_a_seeking_statement_and_a_concurrent_delete_recover_as_they_ran(
        tmp_path, monkeypatch, name, kind):
    statement, s_rows, d_rows = PARKED[name]
    path = str(tmp_path / "store")
    conn = repro.connect(**PROVIDERS[kind](path))
    conn.execute("CREATE TABLE S (id LONG, v LONG)")
    conn.execute("CREATE INDEX s_id ON S (id)")
    conn.execute("INSERT INTO S VALUES " + ", ".join(
        f"({i}, {i * 10})" for i in range(ROWS)))
    conn.execute("CREATE TABLE D (id LONG, v LONG)")
    plan = conn.execute("EXPLAIN " + statement)
    assert "index seek" in plan.column_values("OPERATOR")

    parked, release = threading.Event(), threading.Event()
    repository = conn.provider.repository
    annotate = repository.annotate

    def park(record, *args):
        annotate(record, *args)
        if record.text == statement:
            parked.set()
            assert release.wait(10), "the parked statement was never " \
                "released"
    monkeypatch.setattr(repository, "annotate", park)
    errors = []

    def run(text):
        try:
            conn.execute(text)
        except BaseException as exc:          # surfaced by the assert below
            errors.append(exc)

    parked_run = threading.Thread(target=run, args=(statement,))
    delete = threading.Thread(target=run, args=(DELETE,))
    parked_run.start()
    assert parked.wait(10)
    delete.start()
    delete.join(0.5)
    assert delete.is_alive(), "the DELETE committed between the parked " \
        "statement's planning and its run"
    release.set()
    parked_run.join(10)
    delete.join(10)
    assert not parked_run.is_alive() and not delete.is_alive()
    assert errors == []

    live = _state(conn)
    assert live == {"S": s_rows, "D": d_rows}
    if kind == "memory":
        conn.close()
        return
    copy = str(tmp_path / "copy")
    shutil.copytree(path, copy)               # the crash: no clean close
    conn.close()
    recovered = repro.connect(**PROVIDERS[kind](copy))
    try:
        assert _state(recovered) == live
    finally:
        recovered.close()
