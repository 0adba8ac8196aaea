"""Concurrent sessions: isolation, attribution, drain, and scoped CANCEL.

The acceptance contract of the server tentpole: N client threads running a
mixed TRAIN / SELECT / PREDICTION JOIN workload against one server must
all succeed, each session's work must be attributed to it (its own
``DM_SESSIONS`` row, its own SESSION values in ``DM_QUERY_LOG``), a
session must NOT be able to cancel another session's statement, and a
drain must leave zero live server threads and every session retired.
"""

import threading
import time

import pytest

import repro
from repro.algorithms.registry import register_algorithm, unregister_algorithm
from repro.client import connect as net_connect
from repro.errors import Error, ServerBusyError
from repro.server import DmxServer

from tests.exec.test_cancellation import SlowIterative

WORKERS = 6
STATEMENTS_PER_WORKER = 8


def _load_shared(conn):
    conn.execute("CREATE TABLE People (pid INT, sex TEXT, age INT, "
                 "buys TEXT)")
    conn.execute("INSERT INTO People VALUES " + ", ".join(
        f"({i}, '{'m' if i % 2 else 'f'}', {20 + i % 40}, "
        f"'{'yes' if i % 3 else 'no'}')" for i in range(1, 81)))


@pytest.fixture
def served():
    conn = repro.connect(max_workers=2, pool_mode="thread")
    _load_shared(conn)
    server = DmxServer(conn.provider, port=0, max_sessions=WORKERS + 2)
    yield conn, server
    server.close()
    conn.close()
    assert server.thread_errors == []


def _worker_body(port, index, failures):
    try:
        with net_connect("127.0.0.1", port) as client:
            model = f"M{index}"
            client.execute(
                f"CREATE MINING MODEL {model} (pid LONG KEY, "
                f"sex TEXT DISCRETE, buys TEXT DISCRETE PREDICT) "
                f"USING Repro_Naive_Bayes")
            for round_no in range(STATEMENTS_PER_WORKER):
                rowset = client.execute(
                    f"SELECT pid, age FROM People WHERE pid > {round_no}")
                assert len(rowset.rows) == 80 - round_no
                if round_no == 1:
                    client.execute(
                        f"INSERT INTO {model} (pid, sex, buys) "
                        f"SELECT pid, sex, buys FROM People")
                if round_no >= 2:
                    predicted = client.execute(
                        f"SELECT t.pid, {model}.buys FROM {model} "
                        f"NATURAL PREDICTION JOIN (SELECT pid, sex FROM "
                        f"People WHERE pid <= 10) AS t")
                    assert len(predicted.rows) == 10
                streamed = client.execute_stream(
                    "SELECT pid FROM People", batch_size=9)
                assert len(list(streamed)) == 80
    except BaseException as exc:  # noqa: BLE001 - collected for the assert
        failures.append((index, exc))


def test_mixed_workload_across_sessions(served):
    conn, server = served
    failures = []
    threads = [threading.Thread(target=_worker_body,
                                args=(server.port, i, failures))
               for i in range(WORKERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not failures, failures
    assert not any(t.is_alive() for t in threads)

    # The goodbye reply races the server-side retire by a few microseconds;
    # wait for the gauge to settle before asserting on the session ring.
    deadline = time.monotonic() + 10
    while conn.provider.metrics.value("server.sessions_active") > 0:
        assert time.monotonic() < deadline, "sessions never retired"
        time.sleep(0.01)

    # Every worker session is retired in the DM_SESSIONS ring with its
    # statement and byte accounting populated.
    sessions = conn.execute("SELECT * FROM $SYSTEM.DM_SESSIONS")
    closed = [row for row in sessions.rows
              if row[sessions.index_of("STATE")] == "closed"]
    assert len(closed) == WORKERS
    for row in closed:
        assert row[sessions.index_of("STATEMENTS")] >= STATEMENTS_PER_WORKER
        assert row[sessions.index_of("ROWS_SENT")] > 0
        assert row[sessions.index_of("BYTES_IN")] > 0
        assert row[sessions.index_of("BYTES_OUT")] > 0

    # DM_QUERY_LOG attributes wire statements to their session ids.
    log = conn.execute("SELECT SESSION, KIND FROM $SYSTEM.DM_QUERY_LOG")
    by_session = {}
    for session, kind in log.rows:
        if session is not None:
            by_session.setdefault(session, set()).add(kind)
    assert len(by_session) == WORKERS
    for kinds in by_session.values():
        assert {"SELECT", "TRAIN", "PREDICT"} <= kinds

    # Embedded statements carry no session id.
    assert any(session is None for session, _ in log.rows)

    # All six models trained on the one shared provider.
    assert len(conn.models()) == WORKERS

    # Metrics saw every session come and go.
    assert conn.provider.metrics.value("server.sessions_total") >= WORKERS
    assert conn.provider.metrics.value("server.sessions_active") == 0


def test_cancel_is_scoped_to_the_owning_session(served):
    conn, server = served
    register_algorithm(SlowIterative)
    try:
        with net_connect("127.0.0.1", server.port) as owner, \
                net_connect("127.0.0.1", server.port) as intruder:
            owner.execute("CREATE MINING MODEL Slow (pid LONG KEY, "
                          "sex TEXT DISCRETE) USING [Test_Slow_Iterative]")
            outcome = {}

            def train():
                try:
                    outcome["result"] = owner.execute(
                        "INSERT INTO Slow (pid, sex) "
                        "SELECT pid, sex FROM People")
                except Error as exc:
                    outcome["error"] = exc

            thread = threading.Thread(target=train)
            thread.start()
            assert SlowIterative.started.wait(timeout=10)

            actives = {}
            for _ in range(100):
                rowset = intruder.execute(
                    "SELECT STATEMENT_ID, SESSION FROM $SYSTEM.DM_QUERY_LOG "
                    "WHERE KIND = 'TRAIN' AND STATUS = 'running'")
                actives = dict(rowset.rows)
                if actives:
                    break
                time.sleep(0.05)
            assert actives, "TRAIN never showed up running in DM_QUERY_LOG"
            statement_id = next(iter(actives))
            assert actives[statement_id] == owner.session_id

            # Another session may not kill it...
            with pytest.raises(Error, match="owned by"):
                intruder.cancel(statement_id)
            assert "error" not in outcome

            # ...but the owner may, out of band, mid-statement.
            message = owner.cancel(statement_id)
            assert f"statement {statement_id}" in message
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert "cancelled" in str(outcome.get("error"))
    finally:
        unregister_algorithm(SlowIterative)


def test_sessions_sharing_a_kept_singleton_each_get_their_own_answer(
        served):
    """Two sessions issue one singleton PREDICTION JOIN shape at once, each
    with its own literal: the shape's kept plan binds every statement's
    own row, so each session reads back its own case and prediction."""
    conn, server = served
    conn.execute("CREATE MINING MODEL Buyer (pid LONG KEY, sex TEXT "
                 "DISCRETE, buys TEXT DISCRETE PREDICT) "
                 "USING Repro_Naive_Bayes")
    conn.execute("CREATE TABLE Sexes (pid INT, sex TEXT, buys TEXT)")
    conn.execute("INSERT INTO Sexes VALUES " + ", ".join(
        f"({i}, '{'m' if i % 2 else 'f'}', '{'yes' if i % 2 else 'no'}')"
        for i in range(1, 41)))
    conn.execute("INSERT INTO Buyer (pid, sex, buys) "
                 "SELECT pid, sex, buys FROM Sexes")
    hits = conn.provider.metrics.value("sqlstore.plan_cache.hits")
    failures, rounds = [], 150

    def ask(sex, expected):
        try:
            with net_connect("127.0.0.1", server.port) as client:
                for _ in range(rounds):
                    rows = client.execute(
                        f"SELECT t.sex, Buyer.buys FROM Buyer NATURAL "
                        f"PREDICTION JOIN (SELECT '{sex}' AS sex) AS t").rows
                    assert rows == [(sex, expected)], rows
        except BaseException as exc:  # noqa: BLE001 - asserted below
            failures.append(exc)

    threads = [threading.Thread(target=ask, args=args)
               for args in (("m", "yes"), ("f", "no"))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not failures, failures
    assert conn.provider.metrics.value("sqlstore.plan_cache.hits") >= \
        hits + 2 * rounds - 2


def _session_row(conn, session_id):
    sessions = conn.execute("SELECT * FROM $SYSTEM.DM_SESSIONS")
    (row,) = [row for row in sessions.rows
              if row[sessions.index_of("SESSION_ID")] == session_id]
    return {column.name: value
            for column, value in zip(sessions.columns, row)}


def test_a_wire_stream_logs_what_the_client_received(served):
    conn, server = served
    query = "SELECT pid, age FROM People WHERE pid > 5"
    with net_connect("127.0.0.1", server.port) as client:
        before = _session_row(conn, client.session_id)["ROWS_SENT"]
        received = len(list(client.execute_stream(query, batch_size=9)))
        assert received == 75
        # The end frame can beat the server-side completion by a hair.
        deadline = time.monotonic() + 10
        while conn.provider.workload.active():
            assert time.monotonic() < deadline, "stream never completed"
            time.sleep(0.005)
        sent = _session_row(conn, client.session_id)["ROWS_SENT"] - before
    logged = conn.execute(
        "SELECT ROWS_OUT, STATUS FROM $SYSTEM.DM_QUERY_LOG "
        f"WHERE SESSION = {client.session_id} AND STATEMENT = '{query}'"
    ).rows
    assert logged == [(received, "ok")]
    assert sent == received


def test_a_wire_stream_is_cancellable_mid_stream_by_its_owner(served):
    """One batch into a wire stream the statement is live, another session
    may not cancel it, its owner may, and the client's next pull raises."""
    from repro.sqlstore.rowset import RowStream
    conn, server = served
    provider = conn.provider
    first_batch_out, resume = threading.Event(), threading.Event()
    open_stream = provider.execute_stream

    def paced(command, batch_size=None):
        stream = open_stream(command, batch_size)

        def batches():
            for index, batch in enumerate(stream.batches()):
                if index == 1:  # between two productions: not active
                    first_batch_out.set()
                    assert resume.wait(10)
                yield batch
        return RowStream(stream.columns, batches())

    provider.execute_stream = paced
    cancelled_before = provider.metrics.value("statements.cancelled") or 0
    try:
        with net_connect("127.0.0.1", server.port) as owner, \
                net_connect("127.0.0.1", server.port) as intruder:
            batches = owner.execute_stream("SELECT pid FROM People",
                                           batch_size=9).batches()
            assert len(next(batches)) == 9
            assert first_batch_out.wait(10)
            (statement_id, phase), = intruder.execute(
                "SELECT STATEMENT_ID, PHASE FROM $SYSTEM.DM_QUERY_LOG "
                f"WHERE SESSION = {owner.session_id} "
                "AND STATUS = 'running'").rows
            assert phase == "scan"
            with pytest.raises(Error, match="owned by"):
                intruder.cancel(statement_id)
            assert f"statement {statement_id}" in owner.cancel(statement_id)
            resume.set()
            with pytest.raises(Error, match="cancelled"):
                for _ in batches:
                    pass
            assert owner.ping()  # the session survives its cancelled stream
    finally:
        resume.set()
        del provider.execute_stream
    assert provider.workload.active() == []
    assert conn.execute(
        "SELECT STATUS FROM $SYSTEM.DM_QUERY_LOG "
        f"WHERE STATEMENT_ID = {statement_id}").rows == [("cancelled",)]
    assert provider.metrics.value("statements.cancelled") == \
        cancelled_before + 1


def test_admission_rejects_with_typed_error_when_full(served):
    conn, server = served
    small = DmxServer(conn.provider, port=0, max_sessions=1, queue_limit=0)
    try:
        with net_connect("127.0.0.1", small.port) as first:
            assert first.ping()
            with pytest.raises(ServerBusyError, match="capacity"):
                net_connect("127.0.0.1", small.port)
        assert conn.provider.metrics.value("server.rejections") >= 1
    finally:
        small.close()
        # The fixture's server keeps the provider attachment afterwards.
        conn.provider.dmx_server = server


def test_queued_session_admits_once_a_slot_frees(served):
    conn, server = served
    small = DmxServer(conn.provider, port=0, max_sessions=1, queue_limit=2)
    try:
        first = net_connect("127.0.0.1", small.port)
        admitted = {}

        def queued_connect():
            with net_connect("127.0.0.1", small.port) as second:
                admitted["session"] = second.session_id
                admitted["pong"] = second.ping()

        thread = threading.Thread(target=queued_connect)
        thread.start()
        deadline = time.monotonic() + 10
        while conn.provider.metrics.value("server.queue_depth") < 1:
            assert time.monotonic() < deadline, "hello never queued"
            time.sleep(0.01)
        assert "session" not in admitted  # still waiting for the slot
        first.close()
        thread.join(timeout=10)
        assert admitted.get("pong") is True
        assert conn.provider.metrics.value("server.queue_depth") == 0
    finally:
        small.close()
        conn.provider.dmx_server = server


def test_drain_leaves_no_server_threads():
    conn = repro.connect()
    _load_shared(conn)
    server = DmxServer(conn.provider, port=0)
    clients = [net_connect("127.0.0.1", server.port) for _ in range(3)]
    for index, client in enumerate(clients):
        client.execute(f"SELECT {index} AS n FROM People WHERE pid = 1")
    server.close()
    leftovers = [t.name for t in threading.enumerate()
                 if t.name.startswith("dmx-")]
    assert leftovers == []
    assert all(s.state == "closed" for s in server.sessions())
    for client in clients:
        client.close()
    # Double close is a no-op.
    server.close()
    assert server.thread_errors == []
    conn.close()


def test_a_checkpoint_amid_wire_inserts_covers_a_statement_boundary(
        tmp_path):
    """Provider.checkpoint taken while two wire clients run INSERTs: it
    waits for the writer lock, not for the wire, so it lands between two
    statements — the journal it leaves holds exactly the statements after
    its snapshot (none it covered, none lost), and a copy of the store
    recovers to the live rows."""
    import json
    import shutil

    from repro.store.durable import SNAPSHOT_FILE
    from repro.store.journal import read_journal

    path = str(tmp_path / "store")
    conn = repro.connect(durable_path=path, durable_checkpoint_interval=0)
    conn.execute("CREATE TABLE WireT (client INT, n INT)")
    server = DmxServer(conn.provider, port=0)
    done = [[], []]
    stop, errors = threading.Event(), []

    def insert(client_no):
        try:
            with net_connect("127.0.0.1", server.port) as client:
                n = 0
                while not stop.is_set() or n < 20:
                    client.execute(
                        f"INSERT INTO WireT VALUES ({client_no}, {n})")
                    done[client_no].append(n)
                    n += 1
        except BaseException as exc:      # surfaced by the assert below
            errors.append(exc)
    clients = [threading.Thread(target=insert, args=(i,)) for i in (0, 1)]
    try:
        for thread in clients:
            thread.start()
        while min(map(len, done)) < 10 and not errors:
            time.sleep(0.001)
        before = list(map(len, done))
        conn.provider.checkpoint()
        stop.set()
        for thread in clients:
            thread.join(30)
        assert errors == [] and not any(t.is_alive() for t in clients)
        with open(tmp_path / "store" / SNAPSHOT_FILE) as handle:
            covered = json.load(handle)["last_seq"]
        records, torn, _ = read_journal(conn.provider.store.journal_path)
        # CREATE TABLE, then every INSERT acknowledged before the call.
        assert covered >= 1 + sum(before)
        assert torn == 0
        assert [record["seq"] for record in records] == list(
            range(covered + 1, conn.provider.store.last_seq + 1))
        live = sorted(conn.execute("SELECT client, n FROM WireT").rows)
        assert live == sorted((client_no, n) for client_no in (0, 1)
                              for n in done[client_no])
        copy = str(tmp_path / "copy")
        shutil.copytree(path, copy)           # the crash: no clean close
    finally:
        stop.set()
        server.close()
        conn.close()
    recovered = repro.connect(durable_path=copy)
    try:
        assert sorted(recovered.execute(
            "SELECT client, n FROM WireT").rows) == live
    finally:
        recovered.close()
