"""Crash-recovery property suite: kill the provider at every journal offset.

The property: for any workload of mutating statements and any crash point,
(1) no acknowledged statement is ever lost, (2) replay is exactly-once, and
(3) recovering and resuming the workload from the durable high-water mark
yields a provider whose full snapshot dump is **byte-identical** to a
reference provider that ran the workload without ever crashing.

The grid kills the provider during every journal append (journal offsets
1..N) at four sub-points — before the write, mid-write (torn record),
after the write but before fsync, and after fsync but before the ack —
plus the checkpoint crash points, across thread- and process-pool
providers.
"""

import pytest

import repro
from repro.core.persistence import dump_provider
from repro.store.faults import FaultInjector, InjectedCrash

# Every statement here is mutating and journaled, so journal seq == 1-based
# workload index: after recovery, ``store.last_seq`` says exactly where to
# resume.
WORKLOAD = [
    "CREATE TABLE T (Id LONG PRIMARY KEY, G TEXT, Age DOUBLE, D DATETIME)",
    "INSERT INTO T VALUES (1,'m',30.0,'2001-01-01'),(2,'f',40.0,"
    "'2001-02-01'),(3,'m',50.0,'2001-03-01'),(4,'f',20.0,'2001-04-01')",
    "CREATE VIEW Men AS SELECT * FROM T WHERE G = 'm'",
    "CREATE MINING MODEL M (Id LONG KEY, G TEXT DISCRETE, "
    "Age DOUBLE DISCRETIZED(EQUAL_COUNT, 2) PREDICT) "
    "USING Repro_Naive_Bayes",
    "INSERT INTO M SELECT Id, G, Age FROM T",
    "INSERT INTO T VALUES (5,'m',25.0,'2001-05-01'),(6,'f',45.0,"
    "'2001-06-01')",
    "INSERT INTO M SELECT Id, G, Age FROM T WHERE Id > 4",
    "UPDATE T SET Age = 35.0 WHERE Id = 1",
    "CREATE TABLE U (Id LONG, N TEXT)",
    "INSERT INTO U VALUES (1,'a'),(2,'b'),(3,'c')",
    "DELETE FROM U WHERE Id = 2",
    "DROP TABLE U",
]

CRASH_POINTS = ["journal.before_write", "journal.torn_write",
                "journal.before_fsync", "journal.after_fsync"]


@pytest.fixture(scope="module")
def reference_dump():
    """The never-crashed run the recovered providers must match, byte for
    byte."""
    conn = repro.connect()
    for statement in WORKLOAD:
        conn.execute(statement)
    dump = dump_provider(conn.provider)
    conn.close()
    return dump


def run_until_crash(path, faults, **kwargs):
    """Execute the workload until the injected crash; return acked count."""
    conn = repro.connect(durable_path=path, faults=faults, **kwargs)
    acked = 0
    crashed = False
    try:
        for statement in WORKLOAD:
            conn.execute(statement)
            acked += 1
    except InjectedCrash:
        crashed = True
    finally:
        # Simulated process death: abandon the provider without closing the
        # store (a real crash would not flush anything either); only the
        # worker pool is shut down so no OS processes leak from the test.
        conn.provider.pool.shutdown()
    return acked, crashed


def recover_resume_and_check(path, acked, reference_dump,
                             expect_torn=False):
    recovered = repro.connect(durable_path=path)
    info = recovered.provider.recovery_info
    durable = recovered.provider.store.last_seq
    # (1) zero acknowledged-statement loss.
    assert durable >= acked, (
        f"acked {acked} statements but only {durable} are durable")
    # A crash between fsync and ack may leave at most one extra statement.
    assert durable <= acked + 1
    if expect_torn:
        assert info["torn_records"] == 1
        assert recovered.provider.metrics.value(
            "store.torn_records_skipped") == 1
    # (2)+(3) resume from the durable high-water mark: exactly-once replay,
    # final state byte-identical to the never-crashed reference.
    for statement in WORKLOAD[durable:]:
        recovered.execute(statement)
    assert dump_provider(recovered.provider) == reference_dump
    recovered.close()


@pytest.mark.parametrize("offset", range(1, len(WORKLOAD) + 1))
@pytest.mark.parametrize("point", CRASH_POINTS)
def test_kill_at_every_journal_offset(tmp_path, reference_dump, offset,
                                      point):
    faults = FaultInjector()
    faults.arm(point, after=offset - 1)
    path = str(tmp_path / "store")
    acked, crashed = run_until_crash(path, faults)
    assert crashed, f"{point} at offset {offset} never fired"
    assert acked == offset - 1  # the in-flight statement was never acked
    recover_resume_and_check(path, acked, reference_dump,
                             expect_torn=(point == "journal.torn_write"))


@pytest.mark.parametrize("point", ["snapshot.before_write",
                                   "snapshot.before_replace",
                                   "snapshot.after_replace",
                                   "checkpoint.after_truncate"])
def test_kill_inside_checkpoint(tmp_path, reference_dump, point):
    """Crash at every stage of an (auto) checkpoint; recovery skips journal
    records the new snapshot already covers, so replay stays exactly-once."""
    faults = FaultInjector()
    faults.arm(point)
    path = str(tmp_path / "store")
    acked, crashed = run_until_crash(path, faults,
                                     durable_checkpoint_interval=4)
    assert crashed
    recover_resume_and_check(path, acked, reference_dump)


@pytest.mark.parametrize("pool_mode", ["thread", "process"])
@pytest.mark.parametrize("offset", [5, 7])  # the two TRAIN statements
def test_kill_during_parallel_training_modes(tmp_path, reference_dump,
                                             pool_mode, offset):
    """The {thread, process} pool-mode cells of the recovery matrix: crash
    around a TRAIN statement while a multi-worker pool is attached."""
    faults = FaultInjector()
    faults.arm("journal.torn_write", after=offset - 1)
    path = str(tmp_path / "store")
    acked, crashed = run_until_crash(path, faults, max_workers=2,
                                     pool_mode=pool_mode)
    assert crashed
    assert acked == offset - 1
    recover_resume_and_check(path, acked, reference_dump, expect_torn=True)


def test_double_crash_then_recover(tmp_path, reference_dump):
    """Crash, recover, crash again later, recover again — still identical."""
    path = str(tmp_path / "store")
    first = FaultInjector()
    first.arm("journal.torn_write", after=3)
    acked, crashed = run_until_crash(path, first)
    assert crashed and acked == 3

    second = FaultInjector()
    second.arm("journal.before_fsync", after=4)  # 4 appends post-recovery
    middle = repro.connect(durable_path=path, faults=second)
    durable = middle.provider.store.last_seq
    resumed = 0
    try:
        for statement in WORKLOAD[durable:]:
            middle.execute(statement)
            resumed += 1
    except InjectedCrash:
        pass
    finally:
        middle.provider.pool.shutdown()

    recover_resume_and_check(path, durable + resumed, reference_dump)
