"""Two sessions commit on one paged provider: the root moves in commit order.

A commit used to build its catalog document under the pool lock and write it
outside: session A builds document 5, B builds and saves 6, A saves 5 — the
root regresses and B's acknowledged rows are gone after a crash.  The whole
commit (flush → directory syncs → root record) now runs under one commit
lock.  The first writer is parked at a fault station just before its root
record; the second must wait for it, and a copy of the directory taken after
both were acknowledged must reopen to both rows.
"""

import os
import shutil
import sys
import threading

import repro
from repro.store.faults import FaultInjector
from repro.store.journal import read_journal

STATION = "catalog_log.before_write"


class ParkingFaults(FaultInjector):
    """Once ``armed``, holds the first thread to reach STATION until
    released."""

    def __init__(self):
        super().__init__()
        self.armed = False
        self.parked = threading.Event()
        self.release = threading.Event()
        self._first = threading.Lock()

    def hit(self, point):
        if point == STATION and self.armed and \
                self._first.acquire(blocking=False):
            self.parked.set()
            assert self.release.wait(10), "the parked writer was never released"
        super().hit(point)


def test_an_acknowledged_commit_is_not_lost_to_a_concurrent_one(tmp_path):
    path = str(tmp_path / "store")
    faults = ParkingFaults()
    conn = repro.connect(storage_path=path, faults=faults)
    conn.execute("CREATE TABLE T (id INT, who TEXT)")
    conn.execute("INSERT INTO T VALUES (0, 'seed')")   # appends from here on
    faults.armed = True
    errors = []

    def insert(text):
        try:
            conn.execute(text)
        except BaseException as exc:          # surfaced by the assert below
            errors.append(exc)

    first = threading.Thread(target=insert,
                             args=("INSERT INTO T VALUES (1, 'A')",))
    second = threading.Thread(target=insert,
                              args=("INSERT INTO T VALUES (2, 'B')",))
    first.start()
    assert faults.parked.wait(10)
    second.start()
    # The second writer's statement runs, but its commit queues behind the
    # parked one: it is not acknowledged while the first has not finished.
    second.join(0.5)
    assert second.is_alive(), "the second commit overtook the first"
    faults.release.set()
    first.join(10)
    second.join(10)
    assert not first.is_alive() and not second.is_alive()
    assert errors == []

    live = sorted(conn.execute("SELECT id, who FROM T").rows)
    assert live == [(0, "seed"), (1, "A"), (2, "B")]
    copy = str(tmp_path / "copy")
    shutil.copytree(path, copy)               # the crash: no clean close
    records, torn, _ = read_journal(os.path.join(copy, "catalog.log"))
    sequence = [record["commit_seq"] for record in records]
    assert torn == 0 and sequence == sorted(sequence)
    assert sequence == list(range(sequence[0], sequence[0] + len(sequence)))
    conn.close()

    reopened = repro.connect(storage_path=copy)
    try:
        assert sorted(reopened.execute("SELECT id, who FROM T").rows) == live
    finally:
        reopened.close()


def test_commits_from_many_threads_append_in_sequence(tmp_path):
    """Stress: more writers than cores, a short switch interval; every
    acknowledged row survives a reopen of a copy and the log's sequence has
    no gap and no inversion."""
    path = str(tmp_path / "store")
    conn = repro.connect(storage_path=path, buffer_pages=2,
                         storage_page_bytes=256)
    conn.execute("CREATE TABLE T (id INT, pad TEXT)")
    writers, each = 6, 12
    errors = []

    def work(writer):
        try:
            for i in range(each):
                conn.execute(f"INSERT INTO T VALUES ({writer * 100 + i}, "
                             f"'{'x' * 40}')")
        except BaseException as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(w,))
                   for w in range(writers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    copy = str(tmp_path / "copy")
    shutil.copytree(path, copy)
    records, torn, _ = read_journal(os.path.join(copy, "catalog.log"))
    sequence = [record["commit_seq"] for record in records]
    assert torn == 0
    # The log holds the commits since the base was last rewritten: none
    # when the last commit was the one whose log outgrew the base.
    if sequence:
        assert sequence == list(range(sequence[0],
                                      sequence[0] + len(sequence)))
    assert conn.provider.storage.commit_seq == 1 + writers * each
    conn.close()
    reopened = repro.connect(storage_path=copy, buffer_pages=2,
                             storage_page_bytes=256)
    try:
        ids = sorted(row[0] for row in
                     reopened.execute("SELECT id FROM T").rows)
        assert ids == sorted(w * 100 + i for w in range(writers)
                             for i in range(each))
    finally:
        reopened.close()
