"""Crash the paged store at every page/root write offset; never serve a
torn page or a torn root record.

Shadow-paging property: page files are immutable and unreferenced until the
root moves, and the root moves by one checksummed appended record or one
atomic base replacement, so for ANY crash point during ANY page or root
write the reopened provider must present exactly some statement-boundary
prefix of the workload (the last committed one, or — for a crash between
the root becoming durable and the acknowledgement — the one in flight), and
resuming the remaining statements must land byte-for-byte on the
never-crashed reference state.  A torn page file can exist on disk, under
its final name, but nothing references it: it is swept at reopen and never
served.

Where the writer dies (``docs/internals.md`` §5½ has the owners):

=============================  ============================================
station                        what is on disk
=============================  ============================================
``page.before_write``          nothing of this page
``page.torn_write``            half a page file under its final name
``page.before_fsync``          the whole file, not durable
``page.after_fsync``           page files durable, directories not synced
``catalog_log.before_write``   directories synced, record not written
``catalog_log.torn_write``     half a record (flushed and fsync'd)
``catalog_log.before_fsync``   record written, not fsync'd
``catalog_log.after_fsync``    record durable, not acknowledged
``catalog.before_write`` …     base rewrite (DDL, first commit, compaction,
``catalog.before_replace``     close) at each of its atomic stages
``catalog.after_replace``      base rewritten, log not yet reset
=============================  ============================================
"""

import glob
import json
import os
from collections import Counter

import pytest

import repro
from repro.core.persistence import dump_provider
from repro.errors import Error
from repro.sqlstore.pages import decode_page
from repro.store.faults import FaultInjector, InjectedCrash

GEOMETRY = {"buffer_pages": 2, "storage_page_bytes": 256}

WORKLOAD = [
    "CREATE TABLE T (id INT, name TEXT)",
    "INSERT INTO T VALUES " + ", ".join(
        f"({i}, 'name-{i:03d}-xxxxxxxxxx')" for i in range(18)),
    "CREATE INDEX IX_NAME ON T (name)",
    "UPDATE T SET name = 'renamed' WHERE id < 4",
    "DELETE FROM T WHERE id >= 15",
    # A run of append-only commits long enough for the log to outgrow the
    # base: one of these rewrites the base mid-run (compaction).
    *[f"INSERT INTO T VALUES ({i}, 'late-{i:03d}-xxxxxxxxxx')"
      for i in range(100, 116)],
    "CREATE TABLE U (k INT)",
    "INSERT INTO U VALUES (1), (2), (3)",
    "DROP TABLE U",
]

PAGE_POINTS = ["page.before_write", "page.torn_write",
               "page.before_fsync", "page.after_fsync"]
LOG_POINTS = ["catalog_log.before_write", "catalog_log.torn_write",
              "catalog_log.before_fsync", "catalog_log.after_fsync"]
CATALOG_POINTS = ["catalog.before_write", "catalog.torn_write",
                  "catalog.before_fsync", "catalog.before_replace",
                  "catalog.after_replace"]


def _state(provider):
    """Logical provider state; data_version excluded (restore DDL replays
    a different bump sequence — the floor only guarantees monotonicity)."""
    document = json.loads(dump_provider(provider))
    document.pop("data_version", None)
    return json.dumps(document, sort_keys=True)


@pytest.fixture(scope="module")
def prefix_states():
    """Reference state after 0..N statements, from a never-crashed run."""
    conn = repro.connect()
    states = [_state(conn.provider)]
    for statement in WORKLOAD:
        conn.execute(statement)
        states.append(_state(conn.provider))
    conn.close()
    return states


class CountingFaults(FaultInjector):
    """Passive pass: counts how often every station is asked."""

    def __init__(self):
        super().__init__()
        self.seen = Counter()

    def check(self, point):
        self.seen[point] += 1
        return super().check(point)


@pytest.fixture(scope="module")
def station_hits(tmp_path_factory):
    """Total hits per crash point across workload + close (the grid's
    offset space)."""
    faults = CountingFaults()
    conn = repro.connect(storage_path=str(tmp_path_factory.mktemp("count")),
                         faults=faults, **GEOMETRY)
    rewrites = conn.provider.metrics.counter("buffer.catalog_rewrites")
    compactions = []
    for statement in WORKLOAD:
        before = rewrites.value
        conn.execute(statement)
        if statement.startswith("INSERT INTO T") and rewrites.value > before:
            compactions.append(statement)
    conn.close()
    # The grid below only covers compaction if the workload performs one: an
    # append-only statement, not the first commit, that rewrote the base.
    assert compactions and WORKLOAD[1] not in compactions
    return dict(faults.seen)


def _run_until_crash(path, faults):
    conn = repro.connect(storage_path=path, faults=faults,
                         **GEOMETRY)
    acked = 0
    try:
        for statement in WORKLOAD:
            conn.execute(statement)
            acked += 1
        conn.close()
    except InjectedCrash:
        # Simulated process death: abandon the provider unflushed; only
        # the worker pool is shut down so no OS threads leak.
        conn.provider.pool.shutdown()
        return acked, True
    return acked, False


def _recover_and_check(path, acked, prefix_states):
    recovered = repro.connect(storage_path=path, **GEOMETRY)
    try:
        # Reopen swept every unreferenced file, a torn one included.
        for name in glob.glob(os.path.join(path, "pages", "*", "*")):
            with open(name, "rb") as handle:
                decode_page(handle.read())
        state = _state(recovered.provider)
        # The reopened state is a statement boundary: the last acked one,
        # or acked+1 when the crash hit between catalog swap and ack.
        candidates = sorted({min(acked, len(WORKLOAD)),
                             min(acked + 1, len(WORKLOAD))})
        matches = [n for n in candidates if prefix_states[n] == state]
        assert matches, (
            f"recovered state is not the state after {candidates} "
            f"statements — a torn or stale page was served")
        for statement in WORKLOAD[matches[0]:]:
            recovered.execute(statement)
        assert _state(recovered.provider) == prefix_states[len(WORKLOAD)]
    finally:
        recovered.close()


def _offsets(station_hits, point):
    total = station_hits.get(point, 0)
    assert total > 0, f"workload never hits {point}"
    # Cap the per-station sweep: early offsets catch the first table's
    # pages, late offsets the close-time flush; the interior repeats.
    step = max(1, total // 12)
    return sorted(set(range(1, total + 1, step)) | {total})


@pytest.mark.parametrize("point", PAGE_POINTS + LOG_POINTS + CATALOG_POINTS)
def test_kill_at_every_write_offset(tmp_path, prefix_states, station_hits,
                                    point):
    for offset in _offsets(station_hits, point):
        faults = FaultInjector()
        faults.arm(point, after=offset - 1)
        path = str(tmp_path / f"store-{point}-{offset}")
        acked, crashed = _run_until_crash(path, faults)
        assert crashed, f"{point} offset {offset} never fired"
        _recover_and_check(path, acked, prefix_states)


def test_corrupted_page_file_is_never_served(tmp_path):
    """Bit-rot control: truncate a committed page file in place — the read
    must fail loudly (CRC/torn detection), never return partial rows."""
    path = str(tmp_path / "store")
    conn = repro.connect(storage_path=path, **GEOMETRY)
    for statement in WORKLOAD[:2]:
        conn.execute(statement)
    conn.close()

    victims = glob.glob(os.path.join(path, "pages", "*", "*.pg"))
    assert victims
    with open(victims[0], "rb") as handle:
        data = handle.read()
    with open(victims[0], "wb") as handle:
        handle.write(data[:len(data) // 2])

    reopened = repro.connect(storage_path=path, **GEOMETRY)
    try:
        with pytest.raises(Error, match="torn|CRC|truncated"):
            reopened.execute("SELECT * FROM T")
    finally:
        reopened.provider.pool.shutdown()


def test_ephemeral_spill_crash_recovers_from_journal(tmp_path):
    """storage+durable mode: the journal is the authority — a crash during
    a spill write loses nothing that was acked."""
    durable = str(tmp_path / "journal")
    spill = str(tmp_path / "spill")
    faults = FaultInjector()
    faults.arm("page.torn_write", after=3)
    conn = repro.connect(durable_path=durable, storage_path=spill,
                         faults=faults, **GEOMETRY)
    acked = 0
    crashed = False
    try:
        for statement in WORKLOAD:
            conn.execute(statement)
            acked += 1
    except InjectedCrash:
        crashed = True
    finally:
        conn.provider.pool.shutdown()
    assert crashed

    recovered = repro.connect(durable_path=durable, storage_path=spill,
                              **GEOMETRY)
    try:
        durable_seq = recovered.provider.store.last_seq
        assert durable_seq >= acked
        reference = repro.connect()
        for statement in WORKLOAD[:durable_seq]:
            reference.execute(statement)
        assert _state(recovered.provider) == _state(reference.provider)
        reference.close()
    finally:
        recovered.close()
