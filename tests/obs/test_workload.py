"""Live workload introspection: registry, resources, lock waits, exports.

Companion to ``tests/exec/test_cancellation.py`` (which drives the CANCEL
verb end to end).  Here the focus is the accounting itself: the registry
and token primitives, the ``$SYSTEM`` rowsets fed by them, per-statement
CPU/lock-wait reconciliation, the Chrome-trace exporter, the ``/active``
HTTP route, and the telemetry-server lifecycle.
"""

import gc
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro
from repro.errors import CancelledError, Error
from repro.obs import workload as obs_workload
from repro.obs.export import chrome_trace_events
from repro.obs.trace import StatementRecord, Tracer
from repro.obs.workload import CancelToken, WorkloadRegistry


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.read().decode("utf-8")


# -- primitives ----------------------------------------------------------------

class TestCancelToken:
    def test_starts_clear_and_latches(self):
        token = CancelToken(7)
        assert not token.cancelled
        token.check()  # no-op while clear
        token.cancel("operator said so")
        assert token.cancelled
        assert token.reason == "operator said so"

    def test_check_raises_with_the_reason(self):
        token = CancelToken(7)
        token.cancel("test reason")
        with pytest.raises(CancelledError, match="test reason"):
            token.check()

    def test_module_helpers_are_noops_without_a_statement(self):
        # The instrumented layers call these unconditionally; with no
        # active statement they must cost nothing and raise nothing.
        assert obs_workload.current() is None
        obs_workload.check()
        obs_workload.checkpoint(rows=10)
        obs_workload.set_phase("train")
        obs_workload.note_cache(hit=True)
        obs_workload.set_partitions(4)
        obs_workload.partition_done()


class TestWorkloadRegistry:
    @staticmethod
    def _admitted(registry, statement_id, text="SELECT 1", kind="SELECT"):
        record = StatementRecord(statement_id, text, kind)
        registry.admit(record)
        return record

    def test_admit_complete_moves_to_the_ring(self):
        registry, tracer = WorkloadRegistry(), Tracer()
        statement = tracer.admit("SELECT 1", kind="SELECT")
        registry.admit(statement)
        assert [s.statement_id for s in registry.active()] == [1]
        assert statement.status == "running"
        tracer.complete(statement)
        assert registry.active() == []
        records = tracer.statements()
        assert len(records) == 1
        assert records[0] is statement
        assert records[0].status == "ok"
        assert records[0].duration_ms is not None
        tracer.complete(statement)  # idempotent
        assert len(tracer.statements()) == 1

    def test_disabled_registry_registers_nothing(self):
        registry = WorkloadRegistry()
        registry.enabled = False
        statement = self._admitted(registry, 1)
        assert statement.registry is None and statement.token is None
        assert registry.active() == []

    def test_cancel_unknown_id_names_the_active_set(self):
        registry = WorkloadRegistry()
        self._admitted(registry, 3)
        with pytest.raises(Error, match="no active statement with id 9"):
            registry.cancel(9)

    def test_cancel_latches_the_statements_token(self):
        registry = WorkloadRegistry()
        statement = self._admitted(registry, 4)
        registry.cancel(4)
        assert statement.token.cancelled
        with pytest.raises(CancelledError):
            statement.token.check()

    def test_advance_tracks_rows_batches_and_peak(self):
        statement = self._admitted(WorkloadRegistry(), 1, "scan")
        statement.advance(10)
        statement.advance(30)
        statement.advance(20)
        assert statement.rows_processed == 60
        assert statement.batches == 3
        assert statement.peak_batch_rows == 30

    def test_advance_is_a_cancellation_checkpoint(self):
        statement = self._admitted(WorkloadRegistry(), 1, "scan")
        statement.token.cancel()
        with pytest.raises(CancelledError):
            statement.advance(10)


# -- the $SYSTEM rowsets -------------------------------------------------------

@pytest.fixture
def trained(conn):
    conn.execute("CREATE TABLE T (Id LONG, G TEXT, Buys TEXT)")
    conn.execute("INSERT INTO T VALUES " + ", ".join(
        f"({i}, '{'m' if i % 2 else 'f'}', '{'yes' if i % 3 else 'no'}')"
        for i in range(1, 201)))
    conn.execute("CREATE MINING MODEL NB (Id LONG KEY, G TEXT DISCRETE, "
                 "Buys TEXT DISCRETE PREDICT) USING Repro_Naive_Bayes")
    conn.execute("INSERT INTO NB (Id, G, Buys) SELECT Id, G, Buys FROM T")
    return conn


class TestStatementResourcesRowset:
    def test_train_reports_nonzero_cpu_and_rows(self, trained):
        rows = trained.execute(
            "SELECT STATUS, CPU_MS, ROWS_PROCESSED, BATCHES FROM "
            "$SYSTEM.DM_STATEMENT_RESOURCES WHERE KIND = 'TRAIN'").rows
        assert len(rows) == 1
        status, cpu_ms, rows_processed, batches = rows[0]
        assert status == "ok"
        assert cpu_ms > 0.0
        assert rows_processed >= 200
        assert batches >= 1

    def test_resources_reconcile_with_the_query_log(self, trained):
        # The finished rows only: the statement reading the log is running
        # in it, and has finished (with its whole duration) by the time
        # the resources view is read.
        log = trained.execute("SELECT STATEMENT_ID, DURATION_MS FROM "
                              "$SYSTEM.DM_QUERY_LOG "
                              "WHERE STATUS <> 'running'").rows
        resources = {row[0]: row for row in trained.execute(
            "SELECT STATEMENT_ID, DURATION_MS, CPU_MS, LOCK_WAIT_MS FROM "
            "$SYSTEM.DM_STATEMENT_RESOURCES").rows}
        assert log and resources
        for statement_id, duration_ms in log:
            assert statement_id in resources
            _, res_duration, _cpu, lock_wait = resources[statement_id]
            # Same statement, same clock: the two views agree, and a
            # statement cannot wait on locks longer than it existed.
            assert res_duration == duration_ms
            assert 0.0 <= lock_wait <= duration_ms + 1.0

    def test_cache_counters_surface(self, trained):
        # Retraining the same model from the same source hits the caseset
        # cache (the key spans model, source, and data version).
        trained.execute("INSERT INTO NB (Id, G, Buys) "
                        "SELECT Id, G, Buys FROM T")
        rows = trained.execute(
            "SELECT CACHE_HITS, CACHE_MISSES FROM "
            "$SYSTEM.DM_STATEMENT_RESOURCES WHERE KIND = 'TRAIN'").rows
        assert len(rows) == 2
        assert rows[0][1] >= 1  # first train misses
        assert rows[1][0] >= 1  # second train hits

    def test_sink_record_carries_the_same_resources(self, tmp_path):
        conn = repro.connect(telemetry_path=str(tmp_path / "slow.jsonl"),
                             slow_query_ms=0.0)
        try:
            conn.execute("CREATE TABLE T (Id LONG)")
            conn.execute("INSERT INTO T VALUES (1), (2), (3)")
            conn.execute("SELECT * FROM T")
            records = conn.provider.slow_sink.records()
            assert records
            select = [r for r in records if r["kind"] == "SELECT"][-1]
            assert {"cpu_ms", "rows_processed"} <= set(select)
            rowset = {row[0]: row for row in conn.execute(
                "SELECT STATEMENT_ID, CPU_MS, ROWS_PROCESSED FROM "
                "$SYSTEM.DM_QUERY_LOG").rows}
            pinned = rowset[select["statement_id"]]
            assert select["cpu_ms"] == pinned[1]
            assert select["rows_processed"] == pinned[2]
        finally:
            conn.close()


class TestLockWaits:
    def test_blocked_reader_is_profiled(self, trained):
        model = trained.model("NB")
        finished = threading.Event()

        def blocked_predict():
            trained.execute(
                "SELECT t.Id, NB.Buys FROM NB NATURAL PREDICTION JOIN "
                "(SELECT Id, G FROM T) AS t")
            finished.set()

        with model.lock.write():
            thread = threading.Thread(target=blocked_predict)
            thread.start()
            # Let the reader reach (and block on) the model read lock.
            time.sleep(0.08)
            assert not finished.is_set()
        thread.join(5.0)
        assert finished.is_set()

        waits = trained.execute(
            "SELECT LOCK, MODE, WAITS, TOTAL_WAIT_MS, MAX_WAIT_MS FROM "
            "$SYSTEM.DM_LOCK_WAITS").rows
        by_key = {(lock, mode): (count, total, peak)
                  for lock, mode, count, total, peak in waits}
        assert ("model:NB", "read") in by_key
        count, total, peak = by_key[("model:NB", "read")]
        assert count >= 1
        assert total >= 50.0  # we held the write lock ~80ms
        assert peak <= total + 1e-6

        resources = trained.execute(
            "SELECT LOCK_WAIT_MS, LOCK_WAITS FROM "
            "$SYSTEM.DM_STATEMENT_RESOURCES WHERE KIND = 'PREDICT'").rows
        assert resources[-1][0] >= 50.0
        assert resources[-1][1] >= 1

        metrics = {metric: value for metric, value in trained.execute(
            "SELECT METRIC, VALUE FROM $SYSTEM.DM_PROVIDER_METRICS "
            "WHERE METRIC LIKE 'lock.%'").rows}
        assert metrics["lock.waits"] >= 1
        assert metrics["lock.waits.read"] >= 1

    def test_uncontended_statements_report_no_waits(self, trained):
        assert trained.execute(
            "SELECT * FROM $SYSTEM.DM_LOCK_WAITS").rows == []


class TestActiveStatementsRowset:
    def test_idle_provider_shows_only_the_observer(self, trained):
        # The SELECT over DM_ACTIVE_STATEMENTS is itself a live statement,
        # so the rowset always reflects at least its own execution.
        rows = trained.execute(
            "SELECT KIND, PHASE, CANCEL_REQUESTED FROM "
            "$SYSTEM.DM_ACTIVE_STATEMENTS").rows
        assert len(rows) == 1
        kind, phase, cancel_requested = rows[0]
        assert kind == "SELECT"
        assert phase == "scan"
        assert cancel_requested is False


# -- exports -------------------------------------------------------------------

class TestChromeTraceExport:
    def test_export_writes_loadable_trace_json(self, trained, tmp_path):
        path = tmp_path / "trace.json"
        count = trained.provider.export_trace(str(path))
        assert count >= 4  # create table/insert/create model/train
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        phases = {event["ph"] for event in events}
        assert phases == {"X", "M"}
        roots = [event for event in events
                 if event["ph"] == "X" and "statement" in event["args"]]
        assert any(event["args"]["kind"] == "TRAIN" for event in roots)
        for event in roots:
            assert event["dur"] > 0
            assert event["args"]["cpu_ms"] >= 0.0

    def test_span_offsets_stay_inside_the_statement(self, trained):
        events = chrome_trace_events(trained.provider)
        roots = {}
        for event in events:
            if event["ph"] == "X" and "statement" in event["args"]:
                roots[event["name"]] = event
        assert roots
        for event in events:
            if event["ph"] != "X" or "statement" in event["args"]:
                continue
            parents = [root for root in roots.values()
                       if root["ts"] - 1.0 <= event["ts"] and
                       event["ts"] + event["dur"] <=
                       root["ts"] + root["dur"] + 1000.0]
            assert parents, f"span event {event['name']} outside any root"


class TestActiveRoute:
    def test_active_route_serves_the_live_view(self, conn):
        server = conn.provider.serve_metrics(port=0)
        try:
            status, body = _get(server.url + "/active")
            assert status == 200
            assert json.loads(body) == []

            release = threading.Event()
            started = threading.Event()

            def hold():
                statement = StatementRecord(12345, "SELECT sleep",
                                            kind="SELECT")
                conn.provider.workload.admit(statement)
                statement.phase = "scan"
                started.set()
                release.wait(5.0)
                conn.provider.workload.retire(statement)

            thread = threading.Thread(target=hold)
            thread.start()
            try:
                assert started.wait(5.0)
                payload = json.loads(_get(server.url + "/active")[1])
                assert [entry["statement_id"] for entry in payload] == \
                    [12345]
                assert payload[0]["phase"] == "scan"
                assert payload[0]["cancel_requested"] is False
            finally:
                release.set()
                thread.join(5.0)
            assert json.loads(_get(server.url + "/active")[1]) == []
        finally:
            server.close()


class TestTelemetryServerLifecycle:
    def test_repeated_cycles_leak_neither_threads_nor_ports(self, conn):
        baseline = threading.active_count()
        last_port = None
        for _ in range(3):
            server = conn.provider.serve_metrics(port=last_port or 0)
            assert _get(server.url + "/healthz")[0] == 200
            last_port = server.port
            server.close()
            assert server.closed
            server.close()  # idempotent
        # The port was released each cycle (rebound above) and no serving
        # threads are left behind.
        assert threading.active_count() <= baseline + 1
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(
                f"http://127.0.0.1:{last_port}/healthz", timeout=1)

    def test_provider_close_closes_the_attached_server(self):
        conn = repro.connect()
        server = conn.provider.serve_metrics(port=0)
        conn.close()
        assert server.closed


# -- one record, one lifetime --------------------------------------------------

Q = "SELECT Id, V FROM T WHERE V > 10"
T_ROWS = 3000


@pytest.fixture
def scanned(conn):
    """T(Id, V) with V = Id / 2, so ``Q`` keeps all but the first 21 rows."""
    conn.execute("CREATE TABLE T (Id LONG, V DOUBLE)")
    conn.execute("INSERT INTO T VALUES " + ", ".join(
        f"({i}, {i * 0.5})" for i in range(T_ROWS)))
    return conn


def _views(conn, text=Q):
    """{statement_id: (log row, resources row)} of the finished statements
    whose text is ``text`` — DM_QUERY_LOG joined to DM_STATEMENT_RESOURCES."""
    log = conn.execute(
        "SELECT STATEMENT_ID, STATEMENT, KIND, STATUS, DURATION_MS, "
        "ROWS_SCANNED, ROWS_OUT FROM $SYSTEM.DM_QUERY_LOG").rows
    resources = {row[0]: row for row in conn.execute(
        "SELECT STATEMENT_ID, KIND, STATUS, DURATION_MS, ROWS_PROCESSED, "
        "BATCHES FROM $SYSTEM.DM_STATEMENT_RESOURCES").rows}
    return {row[0]: (row, resources.get(row[0]))
            for row in log if row[1] == text}


class TestStreamedStatementLifetime:
    def test_streamed_and_blocking_records_agree(self, scanned):
        conn = scanned
        expected = len(conn.execute(Q).rows)
        produced_ms, received = 0.0, 0
        batches = conn.execute_stream(Q, batch_size=100).batches()
        while True:
            began = time.perf_counter()
            batch = next(batches, None)
            if batch is None:
                break  # the exhausting pull is not a production
            produced_ms += (time.perf_counter() - began) * 1000.0
            received += len(batch)
        assert received == expected == T_ROWS - 21

        views = _views(conn)  # blocking first: ids are admission order
        (blocking_log, blocking_res), (stream_log, stream_res) = \
            [views[statement_id] for statement_id in sorted(views)]
        assert stream_log[3] == blocking_log[3] == "ok"
        assert stream_log[5] == blocking_log[5] == T_ROWS   # ROWS_SCANNED
        assert stream_log[6] == blocking_log[6] == expected  # ROWS_OUT
        assert stream_res[4] == blocking_res[4] == T_ROWS   # ROWS_PROCESSED
        # Every production happened inside the statement's lifetime.
        streamed = [r for r in conn.provider.tracer.statements()
                    if r.statement_id == stream_log[0]][0]
        assert streamed.duration_ms >= produced_ms

        stats = conn.execute(
            "SELECT CALLS, ROWS_RETURNED FROM $SYSTEM.DM_STATEMENT_STATS "
            f"WHERE FINGERPRINT = '{streamed.fingerprint}'").rows
        assert stats == [(2, 2 * expected)]

    def test_a_stream_is_visible_and_cancellable_between_batches(
            self, scanned):
        conn = scanned
        cancelled_before = conn.provider.metrics.value(
            "statements.cancelled") or 0
        batches = conn.execute_stream(Q, batch_size=100).batches()
        assert next(batches)
        active = conn.execute(
            "SELECT STATEMENT_ID, PHASE, ROWS_PROCESSED FROM "
            "$SYSTEM.DM_ACTIVE_STATEMENTS WHERE STATEMENT = "
            f"'{Q}'").rows
        assert len(active) == 1
        statement_id, phase, rows_processed = active[0]
        assert phase == "scan"
        assert 100 <= rows_processed < T_ROWS
        assert f"statement {statement_id}" in conn.cancel(statement_id)
        with pytest.raises(CancelledError):
            next(batches)
        assert conn.provider.workload.active() == []
        log, resources = _views(conn)[statement_id]
        assert log[3] == resources[2] == "cancelled"
        assert conn.provider.metrics.value("statements.cancelled") == \
            cancelled_before + 1

    @pytest.mark.parametrize("ending", ["closed", "dropped",
                                        "dropped-unstarted"])
    def test_an_abandoned_stream_retires_exactly_once(self, scanned,
                                                      ending):
        conn = scanned
        retired = []
        observe = conn.provider.tracer.on_statement

        def counting(record):
            retired.append(record.statement_id)
            observe(record)

        conn.provider.tracer.on_statement = counting
        stream = conn.execute_stream(Q, batch_size=100)
        (live,) = conn.provider.workload.active()
        batches = stream.batches()
        received = 0
        if ending != "dropped-unstarted":
            received = len(next(batches))
        if ending == "closed":
            batches.close()
        del stream, batches
        gc.collect()
        assert conn.provider.workload.active() == []
        assert retired == [live.statement_id]
        log, resources = _views(conn)[live.statement_id]
        assert log[3] == resources[2] == "ok"
        assert log[6] == received  # ROWS_OUT: what was produced

    def test_a_statement_between_two_pulls_has_its_own_record(
            self, scanned):
        conn = scanned
        batches = conn.execute_stream(Q, batch_size=100).batches()
        next(batches)
        assert conn.execute("SELECT COUNT(*) FROM T").rows == [(T_ROWS,)]
        (count_log, _), = _views(conn, "SELECT COUNT(*) FROM T").values()
        assert count_log[5] == T_ROWS  # the inner scan, all of it, only it
        for _ in batches:
            pass
        (stream_log, stream_res), = _views(conn).values()
        assert stream_log[0] < count_log[0]  # admitted first, retired last
        assert stream_log[5] == stream_res[4] == T_ROWS

    def test_log_and_resources_list_the_same_statements(self, scanned):
        from repro.core.schema_rowsets import system_rowset
        conn = scanned

        def projections():
            # No statement runs between the two reads: same ring.
            views = []
            for name in ("DM_QUERY_LOG", "DM_STATEMENT_RESOURCES"):
                rowset = system_rowset(conn.provider, name)
                at = [rowset.index_of(column) for column in (
                    "STATEMENT_ID", "KIND", "STATUS", "DURATION_MS")]
                views.append([tuple(row[i] for i in at)
                              for row in rowset.rows])
            return views

        conn.provider.tracer.resize_ring(4)
        for index in range(12):
            conn.execute(f"SELECT {index} AS n FROM T WHERE Id = 1")
        log, resources = projections()
        assert len(log) == 4
        assert resources == log
        # ...so a join on STATEMENT_ID keeps every log row, and the joining
        # statement itself, running in both.
        joined = conn.execute(
            "SELECT l.STATEMENT_ID, l.STATUS FROM $SYSTEM.DM_QUERY_LOG AS l "
            "JOIN $SYSTEM.DM_STATEMENT_RESOURCES AS r "
            "ON l.STATEMENT_ID = r.STATEMENT_ID").rows
        assert joined == [(row[0], row[2]) for row in log] + \
            [(log[-1][0] + 1, "running")]
        conn.provider.tracer.clear()
        assert projections() == [[], []]

    def test_a_completing_statement_is_listed_while_it_retires(
            self, scanned, monkeypatch):
        """Completion puts the record in the ring before it leaves the
        live map, so a read between the two steps still finds it."""
        from repro.core.schema_rowsets import system_rowset
        conn = scanned
        workload = conn.provider.workload
        retire = workload.retire
        seen = []

        def retire_and_read(record):
            retire(record)
            for name in ("DM_QUERY_LOG", "DM_STATEMENT_RESOURCES"):
                seen.append((record.statement_id, [
                    row[0] for row in system_rowset(conn.provider,
                                                    name).rows]))

        monkeypatch.setattr(workload, "retire", retire_and_read)
        conn.execute("INSERT INTO T VALUES (-1, 0.0)")
        for _ in conn.execute_stream(Q, batch_size=1000).batches():
            pass
        assert len(seen) == 4
        for statement_id, listed in seen:
            assert listed.count(statement_id) == 1
