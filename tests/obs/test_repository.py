"""The workload repository: fingerprints, plan history, plan changes.

Covers the normalizer property suite (idempotence; literals collapse,
structure does not), the deterministic quantile sketch, q-error edge
cases, the plan-change end-to-end path (CREATE INDEX and UPDATE
STATISTICS each flip the active plan and append exactly one
``DM_PLAN_CHANGES`` row), persistence round-trips including corrupt-file
degradation, concurrent aggregation without double-counting, and the
Prometheus ``repro_statement_*`` exposition.
"""

import json
import os
import threading

import pytest

import repro
from repro.lang.normalizer import normalize_statement, statement_fingerprint
from repro.lang.parser import parse_statement
from repro.obs.export import render_statement_families
from repro.obs.repository import QuantileSketch, WorkloadRepository, q_error


# -- fingerprint normalization properties -------------------------------------

PROPERTY_STATEMENTS = [
    "SELECT * FROM Customers",
    "SELECT name, age FROM customers WHERE age > 40 ORDER BY age DESC",
    "SELECT c.name, o.qty FROM Customers AS c JOIN Orders AS o "
    "ON c.cid = o.cid WHERE o.price > 9.5",
    "SELECT city, COUNT(*) AS n FROM Customers GROUP BY city "
    "HAVING COUNT(*) > 10",
    "INSERT INTO T VALUES (1, 'a'), (2, 'b')",
    "DELETE FROM T WHERE id = 7",
    "CREATE TABLE T2 (id INT, name TEXT)",
    "CREATE INDEX idx ON T(id)",
    "UPDATE STATISTICS T",
    "SELECT TOP 5 name FROM Customers WHERE name LIKE 'c0%'",
    "EXPORT MINING MODEL M TO '/tmp/m.json'",
]


@pytest.mark.parametrize("text", PROPERTY_STATEMENTS)
def test_normalization_is_idempotent(text):
    """format -> parse -> normalize is a fixed point: the normalized text
    re-parses and re-normalizes to itself (and hence the same
    fingerprint)."""
    statement = parse_statement(text)
    normalized = normalize_statement(statement)
    again = normalize_statement(parse_statement(normalized))
    assert again == normalized
    assert statement_fingerprint(parse_statement(normalized)) == \
        statement_fingerprint(statement)


def _fingerprint(text):
    return statement_fingerprint(parse_statement(text))


LITERAL_VARIANTS = [
    ("SELECT * FROM T WHERE id = 5", "SELECT * FROM T WHERE id = 99"),
    ("SELECT * FROM T WHERE name = 'alice'",
     "SELECT * FROM T WHERE name = 'bob'"),
    ("SELECT TOP 5 * FROM T WHERE x > 1.5 AND y < 2",
     "SELECT TOP 5 * FROM T WHERE x > 0.25 AND y < 1000"),
    ("INSERT INTO T VALUES (1, 'a')", "INSERT INTO T VALUES (2, 'zz')"),
    ("select * from t where ID = 5", "SELECT * FROM T WHERE id = 7"),
    ("CANCEL 17", "CANCEL 99"),
    ("EXPORT MINING MODEL M TO '/a.json'",
     "EXPORT MINING MODEL M TO '/b.json'"),
]


@pytest.mark.parametrize("left, right", LITERAL_VARIANTS)
def test_literal_changes_collapse_to_one_fingerprint(left, right):
    assert _fingerprint(left) == _fingerprint(right)


STRUCTURAL_VARIANTS = [
    ("SELECT * FROM T WHERE id = 5", "SELECT * FROM T WHERE id > 5"),
    ("SELECT * FROM T WHERE id = 5", "SELECT * FROM T WHERE name = 5"),
    ("SELECT * FROM T", "SELECT * FROM U"),
    ("SELECT a FROM T", "SELECT a, b FROM T"),
    ("SELECT * FROM T WHERE a = 1 AND b = 2",
     "SELECT * FROM T WHERE a = 1 OR b = 2"),
    ("SELECT a FROM T ORDER BY a", "SELECT a FROM T ORDER BY a DESC"),
    ("SELECT city, COUNT(*) AS n FROM T GROUP BY city",
     "SELECT city, SUM(x) AS n FROM T GROUP BY city"),
]


@pytest.mark.parametrize("left, right", STRUCTURAL_VARIANTS)
def test_structural_changes_keep_distinct_fingerprints(left, right):
    assert _fingerprint(left) != _fingerprint(right)


def test_identifier_case_is_folded():
    assert _fingerprint("select name from customers") == \
        _fingerprint("SELECT NAME FROM CUSTOMERS")


# -- quantile sketch ----------------------------------------------------------

def test_sketch_is_exact_before_first_compaction():
    sketch = QuantileSketch(capacity=256)
    for value in range(1, 101):
        sketch.observe(float(value))
    assert sketch.count == 100
    assert sketch.quantile(0.50) == 50.0
    assert sketch.quantile(0.99) == 99.0
    assert sketch.quantile(1.0) == 100.0


def test_sketch_is_deterministic():
    left, right = QuantileSketch(capacity=32), QuantileSketch(capacity=32)
    values = [(i * 7919) % 1000 / 3.0 for i in range(5000)]
    for value in values:
        left.observe(value)
        right.observe(value)
    assert left.samples == right.samples
    assert left.stride == right.stride
    assert left.count == right.count == 5000


def test_sketch_error_stays_bounded_after_compaction():
    sketch = QuantileSketch(capacity=256)
    n = 10_000
    # Deterministic permutation of 0..n-1 (8009 is coprime to 10000).
    for i in range(n):
        sketch.observe(float((i * 8009) % n))
    assert len(sketch.samples) < sketch.capacity
    assert sketch.stride > 1
    for fraction in (0.5, 0.95, 0.99):
        estimate = sketch.quantile(fraction)
        # Rank error ~ stride/n per retained sample; allow a loose 5%.
        assert abs(estimate - fraction * n) <= 0.05 * n


def test_sketch_round_trips_through_dict():
    sketch = QuantileSketch(capacity=16)
    for value in range(100):
        sketch.observe(float(value))
    restored = QuantileSketch.from_dict(sketch.to_dict())
    assert restored.samples == sketch.samples
    assert restored.stride == sketch.stride
    assert restored.count == sketch.count
    assert restored.quantile(0.5) == sketch.quantile(0.5)


# -- q-error ------------------------------------------------------------------

@pytest.mark.parametrize("estimated, actual, expected", [
    (None, 10, None),
    (10, None, None),
    (None, None, None),
    (10.0, 10.0, 1.0),
    (0.0, 0.0, 1.0),     # correct estimate of an empty result
    (0.0, 10.0, None),   # unbounded ratio: undefined, not infinity
    (10.0, 0.0, None),
    (10.0, 5.0, 2.0),
    (5.0, 10.0, 2.0),    # symmetric
    (1.0, 1000.0, 1000.0),
])
def test_q_error_edges(estimated, actual, expected):
    assert q_error(estimated, actual) == expected


# -- end-to-end: aggregates, plan history, plan changes -----------------------

def _load_t(conn, rows=30):
    conn.execute("CREATE TABLE T (id INT, val TEXT)")
    values = ", ".join(f"({i}, 'v{i}')" for i in range(1, rows + 1))
    conn.execute(f"INSERT INTO T VALUES {values}")


QUERY = "SELECT * FROM T WHERE id > 0"


def _stats_row(conn, fingerprint):
    for row in conn.provider.repository.statement_stats():
        if row["fingerprint"] == fingerprint:
            return row
    return None


def test_statement_stats_aggregate_by_fingerprint():
    conn = repro.connect()
    try:
        _load_t(conn)
        for bound in (3, 7, 11, 3):  # literal varies; one shape
            conn.execute(f"SELECT * FROM T WHERE id > {bound}")
        fingerprint = _fingerprint("SELECT * FROM T WHERE id > 0")
        row = _stats_row(conn, fingerprint)
        assert row is not None
        assert row["kind"] == "SELECT"
        assert row["calls"] == 4
        assert row["errors"] == 0
        assert row["rows_returned"] == (30 - 3) + (30 - 7) + (30 - 11) + \
            (30 - 3)
        assert row["statement"] == "SELECT * FROM [T] WHERE ([ID] > '?')"
        assert row["mean_ms"] is not None and row["mean_ms"] >= 0
        assert row["p99_ms"] is not None
        assert row["plan_hash"] is not None
    finally:
        conn.close()


def test_errors_are_counted_per_fingerprint():
    conn = repro.connect()
    try:
        _load_t(conn)
        for _ in range(3):
            with pytest.raises(Exception):
                conn.execute("SELECT nope FROM T WHERE id = 1")
        row = _stats_row(conn, _fingerprint("SELECT nope FROM T WHERE id = 0"))
        assert row is not None
        assert row["calls"] == 3
        assert row["errors"] == 3
    finally:
        conn.close()


def test_plan_change_events_end_to_end():
    """CREATE INDEX then UPDATE STATISTICS each flip the active plan of the
    hot SELECT; each appends exactly one DM_PLAN_CHANGES row."""
    conn = repro.connect(statistics=False)
    try:
        _load_t(conn)
        for _ in range(3):
            conn.execute(QUERY)
        conn.execute("CREATE INDEX idx_id ON T(id)")
        for _ in range(3):
            conn.execute(QUERY)
        conn.execute("UPDATE STATISTICS T")
        for _ in range(3):
            conn.execute(QUERY)

        fingerprint = _fingerprint(QUERY)
        changes = [c for c in conn.provider.repository.plan_changes()
                   if c["fingerprint"] == fingerprint]
        assert len(changes) == 2
        first, second = changes
        assert "CREATE INDEX" in first["trigger"]
        assert second["trigger"] == "UPDATE STATISTICS T"
        for change in changes:
            assert change["old_plan_hash"] != change["new_plan_hash"]
            assert change["before_mean_ms"] is not None
            assert change["after_mean_ms"] is not None
        # The second change reverts to the first plan (stats made the seek
        # unattractive again), so the hashes swap.
        assert second["old_plan_hash"] == first["new_plan_hash"]
        assert second["new_plan_hash"] == first["old_plan_hash"]

        history = [h for h in conn.provider.repository.plan_history_rows()
                   if h["fingerprint"] == fingerprint]
        assert len(history) == 2
        assert sum(1 for h in history if h["active"]) == 1
        assert all(h["executions"] > 0 for h in history)
        assert all(h["skeleton"] for h in history)

        # The same events are visible through the SQL surface.
        rowset = conn.execute("SELECT * FROM $SYSTEM.DM_PLAN_CHANGES")
        names = [c.name for c in rowset.columns]
        visible = [row for row in rowset.rows
                   if row[names.index("FINGERPRINT")] == fingerprint]
        assert len(visible) == 2
    finally:
        conn.close()


def test_retraining_under_the_same_text_is_a_plan_change():
    """The recorded plan is the one that ran, whatever state chose it: the
    second ``INSERT INTO <model>`` of one text, against an unchanged
    warehouse, runs the incremental absorb tree — model state, which no
    statement text or data version shows — and is recorded as that."""
    conn = repro.connect()
    try:
        _load_t(conn)
        conn.execute("CREATE MINING MODEL M (id LONG KEY, val TEXT DISCRETE "
                     "PREDICT) USING Repro_Naive_Bayes")
        train = "INSERT INTO M (id, val) SELECT id, val FROM T"
        hashes, printed = [], []
        for _ in range(2):
            printed.append(conn.execute(f"EXPLAIN {train}").rows)
            conn.execute(train)
            hashes.append(conn.provider.tracer.last().plan_hash)
        assert printed[0] != printed[1]  # fit, then absorb
        assert hashes[0] != hashes[1]
        changes = [c for c in conn.provider.repository.plan_changes()
                   if c["fingerprint"] == _fingerprint(train)]
        assert [(c["old_plan_hash"], c["new_plan_hash"])
                for c in changes] == [tuple(hashes)]
        stats = _stats_row(conn, _fingerprint(train))
        assert (stats["calls"], stats["plans"], stats["plan_hash"]) == \
            (2, 2, hashes[1])
    finally:
        conn.close()


def test_rowsets_are_queryable_and_joinable():
    conn = repro.connect()
    try:
        _load_t(conn)
        conn.execute(QUERY)
        stats = conn.execute("SELECT * FROM $SYSTEM.DM_STATEMENT_STATS")
        assert len(stats.rows) >= 1
        history = conn.execute("SELECT * FROM $SYSTEM.DM_PLAN_HISTORY")
        hist_names = [c.name for c in history.columns]
        assert "SKELETON" in hist_names
        # Every active plan hash in stats appears in the history rowset.
        stat_names = [c.name for c in stats.columns]
        hashes = {row[stat_names.index("PLAN_HASH")] for row in stats.rows}
        hashes.discard(None)
        assert hashes
        history_hashes = {row[hist_names.index("PLAN_HASH")]
                          for row in history.rows}
        assert hashes <= history_hashes
        # A query-log row joins its shape's aggregate on FINGERPRINT.
        joined = conn.execute(
            "SELECT s.CALLS, q.PLAN_HASH, s.PLAN_HASH "
            "FROM $SYSTEM.DM_QUERY_LOG AS q JOIN $SYSTEM.DM_STATEMENT_STATS "
            "AS s ON q.FINGERPRINT = s.FINGERPRINT "
            f"WHERE q.STATEMENT = '{QUERY}'").rows
        assert len(joined) == 1
        calls, logged_hash, active_hash = joined[0]
        assert calls == 1 and logged_hash == active_hash is not None
    finally:
        conn.close()


def test_repository_kwarg_disables_collection():
    conn = repro.connect(repository=False)
    try:
        _load_t(conn)
        conn.execute(QUERY)
        assert conn.provider.repository.statement_stats() == []
        rowset = conn.execute("SELECT * FROM $SYSTEM.DM_STATEMENT_STATS")
        assert rowset.rows == []
    finally:
        conn.close()


# -- persistence --------------------------------------------------------------

def test_repository_persists_across_restart(tmp_path):
    durable = str(tmp_path / "db")
    fingerprint = _fingerprint(QUERY)
    conn = repro.connect(durable_path=durable)
    try:
        _load_t(conn)
        for _ in range(4):
            conn.execute(QUERY)
    finally:
        conn.close()
    assert os.path.exists(os.path.join(durable, "workload_repository.json"))

    conn = repro.connect(durable_path=durable)
    try:
        row = _stats_row(conn, fingerprint)
        assert row is not None, "aggregates must survive restart"
        # Journal replay must not re-count the replayed statements.
        assert row["calls"] == 4
        conn.execute(QUERY)
        assert _stats_row(conn, fingerprint)["calls"] == 5
    finally:
        conn.close()


def test_corrupt_repository_file_degrades_to_empty(tmp_path):
    durable = str(tmp_path / "db")
    conn = repro.connect(durable_path=durable)
    try:
        _load_t(conn)
        conn.execute(QUERY)
    finally:
        conn.close()

    path = os.path.join(durable, "workload_repository.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{not json at all")
    conn = repro.connect(durable_path=durable)
    try:
        assert conn.provider.repository.statement_stats() == []
        assert conn.provider.metrics.counter(
            "repository.load_errors").value >= 1
        # Still collects fresh data after the failed load.
        conn.execute("SELECT * FROM T")
        assert len(conn.provider.repository.statement_stats()) >= 1
    finally:
        conn.close()


def test_alien_format_version_degrades_to_empty(tmp_path):
    path = str(tmp_path / "workload_repository.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"format": 999, "statements": [{"bogus": True}]}, handle)
    repository = WorkloadRepository(path=path)
    assert repository.statement_stats() == []
    assert len(repository) == 0


def test_save_is_noop_without_changes(tmp_path):
    path = str(tmp_path / "workload_repository.json")
    repository = WorkloadRepository(path=path)
    assert repository.statement_stats() == []
    assert repository.save() is False
    assert not os.path.exists(path)


# -- concurrency --------------------------------------------------------------

def test_concurrent_identical_statements_aggregate_once():
    """Byte-identical statements retiring from many threads fold into ONE
    fingerprint whose calls equal the total executions — no double counts,
    no split entries."""
    conn = repro.connect(max_workers=2, pool_mode="thread")
    try:
        _load_t(conn)
        threads, per_thread = 4, 25
        errors = []

        def hammer():
            try:
                for _ in range(per_thread):
                    conn.execute(QUERY)
            except Exception as exc:  # pragma: no cover - diagnostic only
                errors.append(exc)

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert errors == []
        row = _stats_row(conn, _fingerprint(QUERY))
        assert row is not None
        assert row["calls"] == threads * per_thread
        assert row["rows_returned"] == threads * per_thread * 30
    finally:
        conn.close()


def test_two_wire_sessions_aggregate_into_one_fingerprint():
    """Two network sessions running the byte-identical statement
    concurrently: every retirement is counted exactly once (the registry
    keys by unique statement id, so neither session double-retires)."""
    from repro.client import connect as net_connect
    from repro.server import DmxServer

    conn = repro.connect()
    try:
        _load_t(conn)
        with DmxServer(conn.provider, port=0) as server:
            per_session = 20
            errors = []

            def session():
                try:
                    with net_connect("127.0.0.1", server.port) as client:
                        for _ in range(per_session):
                            client.execute(QUERY)
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            workers = [threading.Thread(target=session) for _ in range(2)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
            assert errors == []
        assert server.thread_errors == []
        row = _stats_row(conn, _fingerprint(QUERY))
        assert row is not None
        assert row["calls"] == 2 * per_session
        assert row["errors"] == 0
    finally:
        conn.close()


def test_sink_records_carry_fingerprint_and_plan_hash():
    """Slow-sink / /queries records join back to DM_STATEMENT_STATS."""
    from repro.obs.sink import statement_record_dict

    conn = repro.connect()
    try:
        _load_t(conn)
        conn.execute(QUERY)
        record = conn.provider.tracer.last()
        out = statement_record_dict(record)
        assert out["fingerprint"] == _fingerprint(QUERY)
        assert out["plan_hash"] == \
            _stats_row(conn, out["fingerprint"])["plan_hash"]
    finally:
        conn.close()


# -- Prometheus exposition ----------------------------------------------------

def test_statement_families_expose_p99():
    conn = repro.connect()
    try:
        _load_t(conn)
        for _ in range(5):
            conn.execute(QUERY)
        fingerprint = _fingerprint(QUERY)
        row = _stats_row(conn, fingerprint)
        assert row["p99_ms"] is not None
        body = render_statement_families(conn.provider.repository)
        assert f'repro_statement_calls_total{{fingerprint="{fingerprint}"}}' \
            in body
        assert (f'repro_statement_latency_ms{{fingerprint="{fingerprint}",'
                f'quantile="0.99"}}') in body
        assert "repro_statement_plan_changes_total" in body
    finally:
        conn.close()


def test_statement_families_empty_when_disabled():
    conn = repro.connect(repository=False)
    try:
        _load_t(conn)
        conn.execute(QUERY)
        assert render_statement_families(conn.provider.repository) == ""
    finally:
        conn.close()
