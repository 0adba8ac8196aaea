"""Golden pin of the telemetry rowset schemas.

Dashboards, log scrapers, and the differential harness all key on the exact
column names and types of the ``$SYSTEM`` telemetry rowsets.  This test is
the contract: any column rename, reorder, retype, addition, or removal must
show up as a diff against these literals and be made deliberately.

The pool's ``pool.*`` metric family is pinned the same way: the parallel
subsystem promises these names to operators, and a silent rename would
leave fleets graphing empty series.
"""

import pytest

import repro

# -- golden schemas: (name, type) in exact column order ------------------------

DM_QUERY_LOG_SCHEMA = [
    ("STATEMENT_ID", "LONG"),
    ("STATEMENT", "TEXT"),
    ("KIND", "TEXT"),
    ("STATUS", "TEXT"),
    ("ERROR", "TEXT"),
    ("STARTED_AT", "TEXT"),
    ("DURATION_MS", "DOUBLE"),
    ("ROWS_SCANNED", "LONG"),
    ("ROWS_OUT", "LONG"),
    ("CASES", "LONG"),
    ("SPAN_COUNT", "LONG"),
    ("THREAD", "TEXT"),
    ("SESSION", "LONG"),
    ("FINGERPRINT", "TEXT"),
    ("PLAN_HASH", "TEXT"),
    ("PHASE", "TEXT"),
    ("CPU_MS", "DOUBLE"),
    ("POOL_CPU_MS", "DOUBLE"),
    ("LOCK_WAIT_MS", "DOUBLE"),
    ("LOCK_WAITS", "LONG"),
    ("ROWS_PROCESSED", "LONG"),
    ("PEAK_BATCH_ROWS", "LONG"),
    ("BATCHES", "LONG"),
    ("PARTITIONS_DONE", "LONG"),
    ("PARTITIONS_TOTAL", "LONG"),
    ("POOL_TASKS", "LONG"),
    ("POOL_TASKS_IN_FLIGHT", "LONG"),
    ("CACHE_HITS", "LONG"),
    ("CACHE_MISSES", "LONG"),
    ("CANCEL_REQUESTED", "BOOLEAN"),
]

DM_TRACE_EVENTS_SCHEMA = [
    ("STATEMENT_ID", "LONG"),
    ("SPAN_ID", "TEXT"),
    ("PARENT_SPAN_ID", "TEXT"),
    ("DEPTH", "LONG"),
    ("SPAN", "TEXT"),
    ("DURATION_MS", "DOUBLE"),
    ("COUNTERS", "TEXT"),
    ("ATTRIBUTES", "TEXT"),
]

DM_PROVIDER_METRICS_SCHEMA = [
    ("METRIC", "TEXT"),
    ("KIND", "TEXT"),
    ("COUNT", "LONG"),
    ("VALUE", "DOUBLE"),
    ("SUM", "DOUBLE"),
    ("MIN", "DOUBLE"),
    ("MAX", "DOUBLE"),
    ("MEAN", "DOUBLE"),
    ("P50", "DOUBLE"),
    ("P95", "DOUBLE"),
    ("P99", "DOUBLE"),
]

DM_LOCK_WAITS_SCHEMA = [
    ("LOCK", "TEXT"),
    ("MODE", "TEXT"),
    ("WAITS", "LONG"),
    ("TOTAL_WAIT_MS", "DOUBLE"),
    ("MAX_WAIT_MS", "DOUBLE"),
    ("LAST_WAIT_AT", "TEXT"),
]

DM_SESSIONS_SCHEMA = [
    ("SESSION_ID", "LONG"),
    ("REMOTE", "TEXT"),
    ("STATE", "TEXT"),
    ("CONNECTED_AT", "TEXT"),
    ("STATEMENTS", "LONG"),
    ("ROWS_SENT", "LONG"),
    ("BYTES_IN", "LONG"),
    ("BYTES_OUT", "LONG"),
    ("BATCH_SIZE", "LONG"),
    ("MAX_DOP", "LONG"),
    ("LAST_STATEMENT", "TEXT"),
]

DM_BUFFER_POOL_SCHEMA = [
    ("TABLE_NAME", "TEXT"),
    ("PAGE_ID", "LONG"),
    ("ROWS", "LONG"),
    ("DIRTY", "BOOLEAN"),
    ("PINS", "LONG"),
    ("SIZE_BYTES", "LONG"),
]

DM_INDEXES_SCHEMA = [
    ("TABLE_NAME", "TEXT"),
    ("INDEX_NAME", "TEXT"),
    ("COLUMN_NAME", "TEXT"),
    ("KIND", "TEXT"),
    ("KEYS", "LONG"),
    ("ENTRIES", "LONG"),
    ("SEEKS", "LONG"),
    ("RANGE_SEEKS", "LONG"),
    ("JOIN_PROBES", "LONG"),
]

DM_COLUMN_STATISTICS_SCHEMA = [
    ("TABLE_NAME", "TEXT"),
    ("COLUMN_NAME", "TEXT"),
    ("ROW_COUNT", "LONG"),
    ("NDV", "LONG"),
    ("NULL_COUNT", "LONG"),
    ("NULL_FRACTION", "DOUBLE"),
    ("MIN_VALUE", "TEXT"),
    ("MAX_VALUE", "TEXT"),
    ("HISTOGRAM_BUCKETS", "LONG"),
    ("HISTOGRAM", "TEXT"),
]

DM_STATEMENT_STATS_SCHEMA = [
    ("FINGERPRINT", "TEXT"),
    ("STATEMENT", "TEXT"),
    ("EXEMPLAR", "TEXT"),
    ("KIND", "TEXT"),
    ("CALLS", "LONG"),
    ("ERRORS", "LONG"),
    ("CANCELS", "LONG"),
    ("TOTAL_MS", "DOUBLE"),
    ("MEAN_MS", "DOUBLE"),
    ("MIN_MS", "DOUBLE"),
    ("MAX_MS", "DOUBLE"),
    ("P50_MS", "DOUBLE"),
    ("P95_MS", "DOUBLE"),
    ("P99_MS", "DOUBLE"),
    ("ROWS_RETURNED", "LONG"),
    ("CPU_MS", "DOUBLE"),
    ("CACHE_HITS", "LONG"),
    ("CACHE_MISSES", "LONG"),
    ("BUFFER_READS", "LONG"),
    ("POOL_TASKS", "LONG"),
    ("PLANS", "LONG"),
    ("PLAN_HASH", "TEXT"),
    ("FIRST_AT", "TEXT"),
    ("LAST_AT", "TEXT"),
]

DM_PLAN_HISTORY_SCHEMA = [
    ("FINGERPRINT", "TEXT"),
    ("PLAN_HASH", "TEXT"),
    ("IS_ACTIVE", "BOOLEAN"),
    ("FIRST_SEEN", "TEXT"),
    ("LAST_SEEN", "TEXT"),
    ("EXECUTIONS", "LONG"),
    ("MEAN_MS", "DOUBLE"),
    ("Q_SAMPLES", "LONG"),
    ("MEAN_Q_ERROR", "DOUBLE"),
    ("MAX_Q_ERROR", "DOUBLE"),
    ("SKELETON", "TEXT"),
]

DM_PLAN_CHANGES_SCHEMA = [
    ("CHANGE_ID", "LONG"),
    ("FINGERPRINT", "TEXT"),
    ("STATEMENT", "TEXT"),
    ("CHANGED_AT", "TEXT"),
    ("OLD_PLAN_HASH", "TEXT"),
    ("NEW_PLAN_HASH", "TEXT"),
    ("TRIGGER_STATEMENT", "TEXT"),
    ("BEFORE_MEAN_MS", "DOUBLE"),
    ("AFTER_MEAN_MS", "DOUBLE"),
]

# The pool metric names the parallel subsystem promises to operators.
POOL_METRIC_FAMILY = [
    "pool.max_workers",
    "pool.workers_live",
    "pool.parallel_statements",
    "pool.parallel_statements.train",
    "pool.parallel_statements.predict",
    "pool.serial_fallbacks",
    "pool.serial_fallbacks.algorithm",
    "pool.tasks_submitted",
    "pool.tasks_completed",
    "pool.task_ms",
]


@pytest.fixture(scope="module")
def conn():
    connection = repro.connect(max_workers=2, pool_mode="thread")
    # One statement of each flavour so every telemetry rowset has rows and
    # the pool counters materialize: a parallel train, a fallback train,
    # and a parallel prediction.
    connection.execute("CREATE TABLE T (Id LONG, G TEXT, Age DOUBLE, "
                       "Buys TEXT)")
    connection.execute("INSERT INTO T VALUES " + ", ".join(
        f"({i}, '{'m' if i % 2 else 'f'}', {20 + i % 5}, "
        f"'{'yes' if i % 3 else 'no'}')" for i in range(1, 13)))
    connection.execute("CREATE MINING MODEL NB (Id LONG KEY, "
                       "G TEXT DISCRETE, Buys TEXT DISCRETE PREDICT) "
                       "USING Repro_Naive_Bayes")
    connection.execute("INSERT INTO NB (Id, G, Buys) "
                       "SELECT Id, G, Buys FROM T")
    connection.execute("CREATE MINING MODEL DT (Id LONG KEY, "
                       "Age DOUBLE CONTINUOUS, Buys TEXT DISCRETE PREDICT) "
                       "USING Repro_Decision_Trees")
    connection.execute("INSERT INTO DT (Id, Age, Buys) "
                       "SELECT Id, Age, Buys FROM T")
    connection.execute("SELECT t.Id, NB.Buys FROM NB "
                       "NATURAL PREDICTION JOIN (SELECT Id, G FROM T) AS t")
    yield connection
    connection.close()


def _schema(conn, rowset_name):
    rowset = conn.execute(f"SELECT * FROM $SYSTEM.{rowset_name}")
    return [(c.name, c.type.name) for c in rowset.columns]


@pytest.mark.parametrize("rowset_name, expected", [
    ("DM_QUERY_LOG", DM_QUERY_LOG_SCHEMA),
    ("DM_TRACE_EVENTS", DM_TRACE_EVENTS_SCHEMA),
    ("DM_PROVIDER_METRICS", DM_PROVIDER_METRICS_SCHEMA),
    # Aliases of DM_QUERY_LOG (its running rows; all of it), for one
    # release.
    ("DM_ACTIVE_STATEMENTS", DM_QUERY_LOG_SCHEMA),
    ("DM_STATEMENT_RESOURCES", DM_QUERY_LOG_SCHEMA),
    ("DM_LOCK_WAITS", DM_LOCK_WAITS_SCHEMA),
    ("DM_SESSIONS", DM_SESSIONS_SCHEMA),
    ("DM_BUFFER_POOL", DM_BUFFER_POOL_SCHEMA),
    ("DM_INDEXES", DM_INDEXES_SCHEMA),
    ("DM_COLUMN_STATISTICS", DM_COLUMN_STATISTICS_SCHEMA),
    ("DM_STATEMENT_STATS", DM_STATEMENT_STATS_SCHEMA),
    ("DM_PLAN_HISTORY", DM_PLAN_HISTORY_SCHEMA),
    ("DM_PLAN_CHANGES", DM_PLAN_CHANGES_SCHEMA),
])
def test_telemetry_rowset_schema_is_pinned(conn, rowset_name, expected):
    assert _schema(conn, rowset_name) == expected, (
        f"$SYSTEM.{rowset_name} changed shape; telemetry consumers key on "
        f"exact column names, order, and types — update the golden schema "
        f"only with a deliberate, documented migration")


def test_telemetry_rowsets_have_rows(conn):
    for name in ("DM_QUERY_LOG", "DM_TRACE_EVENTS", "DM_PROVIDER_METRICS"):
        assert len(conn.execute(f"SELECT * FROM $SYSTEM.{name}").rows) > 0


def test_pool_metric_family_is_pinned(conn):
    rows = conn.execute(
        "SELECT METRIC FROM $SYSTEM.DM_PROVIDER_METRICS").rows
    published = {row[0] for row in rows}
    missing = [name for name in POOL_METRIC_FAMILY if name not in published]
    assert not missing, (
        f"pool metrics vanished from DM_PROVIDER_METRICS: {missing}")


# The storage metric names the paged-store subsystem promises to
# operators.  (The pool and the storage manager resolve theirs at
# construction, so buffer.pin_overflow and the commit trio are published —
# at 0 — before any frame is pinned or any statement committed.)
BUFFER_METRIC_FAMILY = [
    "buffer.hits",
    "buffer.misses",
    "buffer.evictions",
    "buffer.flushes",
    "buffer.pin_overflow",
    "buffer.commits",
    "buffer.commit_ms",
    "buffer.catalog_rewrites",
    "buffer.pages_resident",
    "index.seeks",
    "index.range_seeks",
    "index.join_probes",
]


def test_storage_metric_family_is_pinned(tmp_path):
    connection = repro.connect(storage_path=str(tmp_path / "store"),
                               buffer_pages=2, storage_page_bytes=256)
    try:
        connection.execute("CREATE TABLE S (id INT, v TEXT)")
        connection.execute("INSERT INTO S VALUES " + ", ".join(
            f"({i}, 'value-{i:04d}-xxxxxxxxxx')" for i in range(40)))
        connection.execute("CREATE INDEX IX_ID ON S (id)")
        connection.execute("SELECT * FROM S WHERE id = 7")
        connection.execute("SELECT * FROM S WHERE id > 30")
        connection.execute("CREATE TABLE O (sid INT)")
        connection.execute("INSERT INTO O VALUES (1), (2)")
        connection.execute("CREATE INDEX IX_SID ON O (sid)")
        connection.execute("SELECT s.id FROM S AS s JOIN O AS o "
                           "ON s.id = o.sid")
        published = {row[0] for row in connection.execute(
            "SELECT METRIC FROM $SYSTEM.DM_PROVIDER_METRICS").rows}
    finally:
        connection.close()
    missing = [name for name in BUFFER_METRIC_FAMILY
               if name not in published]
    assert not missing, (
        f"storage metrics vanished from DM_PROVIDER_METRICS: {missing}")


def test_commit_metrics_are_published_before_the_first_commit(tmp_path):
    connection = repro.connect(storage_path=str(tmp_path / "store"))
    try:
        def published():
            return {row[0]: (row[1], row[2]) for row in connection.execute(
                "SELECT METRIC, KIND, VALUE FROM "
                "$SYSTEM.DM_PROVIDER_METRICS WHERE METRIC LIKE 'buffer.c%'"
            ).rows}
        assert published() == {"buffer.commits": ("counter", 0.0),
                               "buffer.commit_ms": ("histogram", 0.0),
                               "buffer.catalog_rewrites": ("counter", 0.0)}
        connection.execute("CREATE TABLE S (id INT)")       # rewrites the base
        connection.execute("INSERT INTO S VALUES (1)")      # appends
        connection.execute("INSERT INTO S VALUES (2)")
        after = published()
        assert after["buffer.commits"] == ("counter", 3.0)
        assert after["buffer.catalog_rewrites"] == ("counter", 1.0)
        assert connection.provider.metrics.histogram(
            "buffer.commit_ms").count == 3
    finally:
        connection.close()


def test_reset_leaves_every_holder_counting(tmp_path):
    """``provider.metrics.reset()`` zeroes in place: the buffer pool, the
    provider's completion path and a DMX server all hold the metrics they
    write, and what they count after a reset must be readable by name —
    through ``DM_PROVIDER_METRICS`` and ``/metrics`` alike."""
    from repro.client import connect as net_connect
    from repro.obs.export import render_prometheus
    from repro.server import DmxServer

    connection = repro.connect(storage_path=str(tmp_path / "store"),
                               buffer_pages=2, storage_page_bytes=256)
    scan = "SELECT COUNT(*) FROM S"

    def published():
        return {row[0]: row[1] for row in connection.execute(
            "SELECT METRIC, VALUE FROM $SYSTEM.DM_PROVIDER_METRICS").rows}
    try:
        connection.execute("CREATE TABLE S (id INT, v TEXT)")
        connection.execute("INSERT INTO S VALUES " + ", ".join(
            f"({i}, 'value-{i:04d}-xxxxxxxxxx')" for i in range(40)))
        with DmxServer(connection.provider, port=0) as server, \
                net_connect("127.0.0.1", server.port) as wire:
            wire.execute(scan)
            before = published()
            assert before["buffer.hits"] + before["buffer.misses"] > 0
            assert before["server.statements"] == 1

            connection.provider.metrics.reset()
            stale = [row for row in connection.provider.metrics.snapshot()
                     if row.get("value") or row.get("count")]
            assert stale == []

            wire.execute(scan)
            connection.execute(scan)
            after = published()
            exposition = render_prometheus(connection.provider.metrics)
        assert server.thread_errors == []
    finally:
        connection.close()
    assert after["buffer.hits"] + after["buffer.misses"] > 0
    assert after["buffer.misses"] <= before["buffer.misses"] * 2
    assert after["statements.select.count"] == 2
    assert after["statements.total"] == 2
    assert after["activity.rows_scanned"] == 80
    assert after["resource.rows_processed"] == 80
    assert after["server.statements"] == 1
    assert after["server.bytes_in"] > 0 and after["server.bytes_out"] > 0
    for series in ("repro_buffer_misses", "repro_statements_total 3",
                   "repro_server_statements 1"):
        assert series in exposition, series


def test_pool_metrics_carry_sane_values(conn):
    rows = conn.execute("SELECT METRIC, KIND, VALUE FROM "
                        "$SYSTEM.DM_PROVIDER_METRICS").rows
    values = {metric: (kind, value) for metric, kind, value in rows}
    assert values["pool.max_workers"] == ("gauge", 2.0)
    assert values["pool.parallel_statements"][0] == "counter"
    submitted = values["pool.tasks_submitted"][1]
    completed = values["pool.tasks_completed"][1]
    cancelled = values.get("pool.tasks_cancelled", ("counter", 0.0))[1]
    abandoned = values.get("pool.tasks_abandoned", ("counter", 0.0))[1]
    assert submitted == completed + cancelled + abandoned
    assert values["pool.task_ms"][0] == "histogram"
