"""Cooperative cancellation: CANCEL lands at checkpoints, state stays clean.

The contract under test: a long-running TRAIN is a running row of
``DM_QUERY_LOG`` with advancing progress, ``CANCEL <id>`` stops it within
one batch/iteration boundary, and afterwards the provider is consistent —
the model is untrained (or unchanged), nothing was journaled for the
cancelled mutation, and every lock is released.  A parallel PREDICTION
JOIN cancelled while its pool tasks are in flight leaves the pool's task
ledger balanced.
"""

import threading
import time

import pytest

import repro
from repro.errors import CancelledError, Error
from repro.algorithms.base import CasePrediction, MiningAlgorithm
from repro.algorithms.registry import register_algorithm, unregister_algorithm
from repro.core.content import NODE_MODEL, ContentNode
from repro.store.journal import read_journal


class SlowIterative(MiningAlgorithm):
    """Iterative service: note_pass per iteration, so CANCEL lands between
    training passes.  ``started`` lets tests wait deterministically until
    training is underway before cancelling."""

    SERVICE_NAME = "Test_Slow_Iterative"
    started = threading.Event()
    passes = 400
    nap = 0.005

    def _train(self, space, observations):
        type(self).started.set()
        for _ in range(self.passes):
            self.note_pass()
            time.sleep(self.nap)

    def predict(self, observation):
        return CasePrediction()

    def content_nodes(self):
        return ContentNode("0", NODE_MODEL, "slow")

    # Nothing is learned, so there is nothing to persist; the pair lets a
    # durable provider create its models.
    def state(self):
        return {}

    def load_state(self, space, state):
        pass


class SlowPredict(MiningAlgorithm):
    """Trains at once and scores slowly: each case naps, so a parallel
    PREDICTION JOIN keeps pool tasks in flight while the statement thread
    collects them — where CANCEL lands.  Module-level, so a process-pool
    worker unpickles it by reference."""

    SERVICE_NAME = "Test_Slow_Predict"

    def _train(self, space, observations):
        pass

    def predict(self, observation):
        time.sleep(0.005)
        return CasePrediction()

    def content_nodes(self):
        return ContentNode("0", NODE_MODEL, "slow")


@pytest.fixture
def slow_service():
    SlowIterative.started = threading.Event()
    register_algorithm(SlowIterative)
    yield SlowIterative
    unregister_algorithm(SlowIterative)


@pytest.fixture
def slow_predict_service():
    register_algorithm(SlowPredict)
    yield SlowPredict
    unregister_algorithm(SlowPredict)


def _seed(conn, service, rows=40):
    conn.execute("CREATE TABLE T (Id LONG, G TEXT)")
    conn.execute("INSERT INTO T VALUES " + ", ".join(
        f"({i}, '{'m' if i % 2 else 'f'}')" for i in range(1, rows + 1)))
    conn.execute(f"CREATE MINING MODEL M (Id LONG KEY, G TEXT DISCRETE) "
                 f"USING [{service.SERVICE_NAME}]")


def _train_in_background(conn):
    """Run the TRAIN statement on a worker thread, capturing its outcome."""
    outcome = {}

    def run():
        try:
            outcome["result"] = conn.execute(
                "INSERT INTO M (Id, G) SELECT Id, G FROM T")
        except BaseException as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=run, name="trainer")
    thread.start()
    return thread, outcome


def _wait_for_statement(provider, timeout=5.0, predicate=None, kind="TRAIN"):
    """Poll the workload registry until the ``kind`` statement shows up."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for statement in provider.workload.active():
            if statement.kind == kind and \
                    (predicate is None or predicate(statement)):
                return statement
        time.sleep(0.002)
    raise AssertionError(f"{kind} statement never became visible")


def _assert_write_lock_free(model):
    acquired = threading.Event()

    def probe():
        with model.lock.write():
            acquired.set()

    thread = threading.Thread(target=probe)
    thread.start()
    thread.join(2.0)
    assert acquired.is_set(), "model write lock was not released"


class TestCancelMidTraining:
    def test_visible_with_advancing_progress_then_cancelled(self,
                                                            slow_service):
        conn = repro.connect()
        _seed(conn, slow_service)
        thread, outcome = _train_in_background(conn)
        try:
            assert slow_service.started.wait(5.0)
            # The statement is a running row of DM_QUERY_LOG, in the train
            # phase, and its progress counters advance between looks.
            rowset = conn.execute(
                "SELECT STATEMENT_ID, KIND, PHASE, BATCHES FROM "
                "$SYSTEM.DM_QUERY_LOG WHERE KIND = 'TRAIN' "
                "AND STATUS = 'running'")
            assert len(rowset.rows) == 1
            statement_id, kind, phase, batches = rowset.rows[0]
            assert kind == "TRAIN"
            assert phase == "train"
            active = _wait_for_statement(conn.provider,
                                     predicate=lambda s: s.batches > batches)
            assert active.statement_id == statement_id

            message = conn.execute(f"CANCEL {statement_id}")
            assert "cancel requested" in message
            thread.join(5.0)
            assert not thread.is_alive()
            assert isinstance(outcome.get("error"), CancelledError)
            # Stopped at an iteration boundary, not after all passes.
            assert active.batches < slow_service.passes
        finally:
            thread.join(5.0)
            conn.close()

    def test_model_unchanged_and_locks_released(self, slow_service):
        conn = repro.connect()
        _seed(conn, slow_service)
        thread, outcome = _train_in_background(conn)
        try:
            active = _wait_for_statement(conn.provider,
                                     predicate=lambda s: s.phase == "train")
            conn.cancel(active.statement_id)
            thread.join(5.0)
            assert isinstance(outcome.get("error"), CancelledError)
            model = conn.model("M")
            assert not model.is_trained
            assert model.case_count == 0
            assert model.insert_count == 0
            _assert_write_lock_free(model)
            # The provider still executes statements normally afterwards.
            assert len(conn.execute("SELECT * FROM T").rows) == 40
        finally:
            thread.join(5.0)
            conn.close()

    def test_query_log_records_cancelled_status(self, slow_service):
        conn = repro.connect()
        _seed(conn, slow_service)
        thread, _ = _train_in_background(conn)
        try:
            active = _wait_for_statement(conn.provider,
                                     predicate=lambda s: s.phase == "train")
            conn.cancel(active.statement_id)
            thread.join(5.0)
            log = conn.execute(
                f"SELECT STATUS, ERROR, CPU_MS FROM $SYSTEM.DM_QUERY_LOG "
                f"WHERE STATEMENT_ID = {active.statement_id}")
            assert log.rows[0][0] == "cancelled"
            assert "CancelledError" in log.rows[0][1]
            assert log.rows[0][2] >= 0.0
            cancelled = conn.execute(
                "SELECT VALUE FROM $SYSTEM.DM_PROVIDER_METRICS "
                "WHERE METRIC = 'statements.cancelled'")
            assert cancelled.rows[0][0] == 1.0
        finally:
            thread.join(5.0)
            conn.close()

    def test_cancelled_mutation_is_never_journaled(self, slow_service,
                                                   tmp_path):
        conn = repro.connect(durable_path=str(tmp_path / "store"))
        _seed(conn, slow_service)
        store = conn.provider.store
        seq_before = store.last_seq
        thread, outcome = _train_in_background(conn)
        try:
            active = _wait_for_statement(conn.provider,
                                     predicate=lambda s: s.phase == "train")
            conn.cancel(active.statement_id)
            thread.join(5.0)
            assert isinstance(outcome.get("error"), CancelledError)
            assert store.last_seq == seq_before
            records, torn, _ = read_journal(store.journal_path)
            kinds = [record["kind"] for record in records]
            assert "TRAIN" not in kinds
            assert torn == 0
        finally:
            thread.join(5.0)
            conn.close()
        # Recovery of the same path replays cleanly: table + model exist,
        # model untrained — exactly the acknowledged history.
        reopened = repro.connect(durable_path=str(tmp_path / "store"))
        try:
            assert not reopened.model("M").is_trained
            assert len(reopened.execute("SELECT * FROM T").rows) == 40
        finally:
            reopened.close()


class TestCancelParallelPredictionJoin:
    @pytest.mark.parametrize("pool_mode", ["thread", "process"])
    def test_cancel_with_pool_tasks_in_flight(self, slow_predict_service,
                                              pool_mode):
        conn = repro.connect(max_workers=2, pool_mode=pool_mode,
                             batch_size=10)
        _seed(conn, slow_predict_service, rows=200)
        conn.execute("INSERT INTO M (Id, G) SELECT Id, G FROM T")
        outcome = {}

        def run():
            try:
                outcome["result"] = conn.execute(
                    "SELECT t.Id, M.G FROM M NATURAL PREDICTION JOIN "
                    "(SELECT Id FROM T) AS t")
            except BaseException as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=run, name="scorer")
        thread.start()
        try:
            active = _wait_for_statement(
                conn.provider, kind="PREDICT",
                predicate=lambda s: s.pool_tasks_in_flight > 0)
            conn.cancel(active.statement_id)
            thread.join(10.0)
            assert not thread.is_alive()
            assert isinstance(outcome.get("error"), CancelledError)
            _assert_write_lock_free(conn.model("M"))
            # Pool accounting survived the unwind: submitted tasks are all
            # accounted as completed, cancelled, or abandoned.
            values = {metric: value for metric, value in conn.execute(
                "SELECT METRIC, VALUE FROM $SYSTEM.DM_PROVIDER_METRICS "
                "WHERE METRIC LIKE 'pool.tasks%'").rows}
            submitted = values.get("pool.tasks_submitted", 0.0)
            accounted = (values.get("pool.tasks_completed", 0.0) +
                         values.get("pool.tasks_cancelled", 0.0) +
                         values.get("pool.tasks_abandoned", 0.0))
            assert submitted > 0
            assert submitted == accounted
            status = conn.execute(
                f"SELECT STATUS FROM $SYSTEM.DM_QUERY_LOG "
                f"WHERE STATEMENT_ID = {active.statement_id}").rows
            assert status == [("cancelled",)]
        finally:
            thread.join(10.0)
            conn.close()


class TestCancelSurface:
    def test_cancel_unknown_id_lists_active_statements(self):
        conn = repro.connect()
        try:
            with pytest.raises(Error, match="no active statement"):
                conn.execute("CANCEL 12345")
            with pytest.raises(Error, match="DM_QUERY_LOG WHERE STATUS"):
                conn.cancel(54321)
        finally:
            conn.close()

    def test_cancel_requires_positive_integer(self):
        conn = repro.connect()
        try:
            with pytest.raises(Error, match="positive statement id"):
                conn.execute("CANCEL 0")
            with pytest.raises(Error, match="positive statement id"):
                conn.execute("CANCEL abc")
        finally:
            conn.close()

    def test_explain_cannot_wrap_cancel(self):
        conn = repro.connect()
        try:
            with pytest.raises(Error, match="cannot wrap the CANCEL"):
                conn.execute("EXPLAIN CANCEL 1")
        finally:
            conn.close()

    def test_cancel_round_trips_through_the_formatter(self):
        from repro.lang.formatter import format_statement
        from repro.lang.parser import parse_statement
        statement = parse_statement("cancel 42")
        assert statement.statement_id == 42
        assert format_statement(statement) == "CANCEL 42"
        assert parse_statement(
            format_statement(statement)).statement_id == 42

    def test_cancel_statement_is_logged(self):
        conn = repro.connect()
        try:
            with pytest.raises(Error):
                conn.execute("CANCEL 999")
            log = conn.execute(
                "SELECT KIND, STATUS FROM $SYSTEM.DM_QUERY_LOG")
            assert ("CANCEL", "error") in [tuple(row) for row in log.rows]
        finally:
            conn.close()


class TestEngineCheckpoint:
    def test_scan_loop_honors_a_pre_set_token(self):
        """A cancelled token stops the very next scan batch."""
        from repro.lang.parser import parse_statement
        from repro.obs import trace as obs_trace

        conn = repro.connect(batch_size=8)
        try:
            conn.execute("CREATE TABLE Big (Id LONG)")
            conn.execute("INSERT INTO Big VALUES " +
                         ", ".join(f"({i})" for i in range(64)))
            statement = obs_trace.StatementRecord(999, "manual scan",
                                                  kind="SELECT")
            conn.provider.workload.admit(statement)
            statement.token.cancel("test")
            previous = obs_trace.activate(statement)
            try:
                with pytest.raises(CancelledError):
                    conn.provider.database.execute_select(
                        parse_statement("SELECT * FROM Big"))
            finally:
                obs_trace.deactivate(previous)
                conn.provider.workload.retire(statement)
            # At most one batch was admitted before the check fired.
            assert statement.rows_processed <= 8
        finally:
            conn.close()

    @staticmethod
    def _tree_model(conn):
        """Table T (40 rows, Y = A and B) and an untrained tree model M."""
        conn.execute("CREATE TABLE T (Id LONG, A TEXT, B TEXT, Y TEXT)")
        conn.execute("INSERT INTO T VALUES " + ", ".join(
            f"({i}, '{'ab'[i % 2]}', '{'cd'[i // 2 % 2]}', "
            f"'{'yn'[(i % 2) & (i // 2 % 2)]}')" for i in range(40)))
        conn.execute(
            "CREATE MINING MODEL M (Id LONG KEY, A TEXT DISCRETE, "
            "B TEXT DISCRETE, Y TEXT DISCRETE PREDICT) "
            "USING Repro_Decision_Trees(MINIMUM_SUPPORT = 2, "
            "COMPLEXITY_PENALTY = 0)")

    def test_tree_growth_stops_at_the_next_node(self, monkeypatch):
        """A CANCEL that lands while a tree grows stops it at the next node,
        not after the whole tree."""
        from repro.algorithms import decision_tree
        from repro.obs import workload as obs_workload

        searched = []
        search = decision_tree._Growth._best_split

        def cancel_then_search(self, node, *population):
            searched.append(node)
            obs_workload.current().token.cancel("test")
            return search(self, node, *population)

        monkeypatch.setattr(decision_tree._Growth, "_best_split",
                            cancel_then_search)
        conn = repro.connect()
        try:
            self._tree_model(conn)
            with pytest.raises(CancelledError):
                conn.execute("INSERT INTO M SELECT Id, A, B, Y FROM T")
            assert len(searched) == 1       # the root split, then stop
            assert not conn.model("M").is_trained
            monkeypatch.undo()
            conn.execute("INSERT INTO M SELECT Id, A, B, Y FROM T")
            assert conn.model("M").algorithm.tree_for("Y").children
        finally:
            conn.close()

    def test_a_cancelled_refit_keeps_the_trained_tree(self, monkeypatch):
        """A CANCEL that lands while a trained tree model refits leaves the
        old trees, their space and their predictions in place."""
        from repro.algorithms import decision_tree
        from repro.obs import workload as obs_workload

        conn = repro.connect()
        try:
            self._tree_model(conn)
            conn.execute("INSERT INTO M SELECT Id, A, B, Y FROM T")
            model = conn.model("M")
            predict = ("SELECT t.Id, M.Y, PredictProbability(M.Y) FROM M "
                       "NATURAL PREDICTION JOIN (SELECT Id, A, B FROM T) "
                       "AS t")
            content = "SELECT * FROM M.CONTENT"
            before = (conn.execute(predict).rows,
                      conn.execute(content).to_dicts())
            tree, space = model.algorithm.tree_for("Y"), model.algorithm.space
            assert {row[1] for row in before[0]} == {"y", "n"}

            search = decision_tree._Growth._best_split

            def cancel_then_search(self, node, *population):
                obs_workload.current().token.cancel("test")
                return search(self, node, *population)

            monkeypatch.setattr(decision_tree._Growth, "_best_split",
                                cancel_then_search)
            with pytest.raises(CancelledError):
                conn.execute("INSERT INTO M SELECT Id, A, B, Y FROM T "
                             "WHERE Id < 7")
            monkeypatch.undo()
            assert model.is_trained and model.case_count == 40
            assert model.algorithm.tree_for("Y") is tree
            assert model.algorithm.space is space is model.space
            assert (conn.execute(predict).rows,
                    conn.execute(content).to_dicts()) == before
        finally:
            conn.close()
