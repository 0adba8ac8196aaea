"""Differential harness: parallel execution vs serial, per algorithm.

Every registered mining service trains and predicts end-to-end across the
full grid of worker counts {1, 2, 7} x batch sizes {7, 10**9} and must
produce results identical to the serial baseline: same model content rowset
(rows, order, types), same PREDICTION JOIN rows in the same order.

This pins the invariant of the parallel execution subsystem: ``WITH
MAXDOP`` is an execution detail, never an observable one.  Training runs in
one pass on every pool, so only the PREDICTION JOIN fans out — and the pool
metrics say so, because silently degraded parallelism would hide real
regressions.
"""

import multiprocessing

import pytest

import repro
from repro.algorithms.registry import algorithm_services
from repro.sqlstore.rowset import Rowset
from repro.store.journal import read_journal

TINY_BATCH = 7
HUGE_BATCH = 10 ** 9
WORKER_GRID = (1, 2, 7)
BATCH_GRID = (TINY_BATCH, HUGE_BATCH)

SETUP = [
    "CREATE TABLE C (Id LONG, G TEXT, H TEXT, Age DOUBLE, Spend DOUBLE, "
    "Buys TEXT)",
    "CREATE TABLE S (Cid LONG, P TEXT)",
    "CREATE TABLE E (Id LONG, Step LONG, Page TEXT)",
]


def _load(conn):
    for statement in SETUP:
        conn.execute(statement)
    rows = []
    for i in range(1, 61):
        g = "'m'" if i % 2 else "'f'"
        h = ("'hi'", "'mid'", "'lo'")[i % 3]
        age = 20.0 + (i % 5) * 8
        spend = round(3.0 * age + (7.0 if i % 2 else 0.0) + (i % 7) * 0.25, 2)
        buys = "'yes'" if (i % 5 + i % 3) % 2 == 0 else "'no'"
        rows.append(f"({i}, {g}, {h}, {age}, {spend}, {buys})")
    conn.execute("INSERT INTO C VALUES " + ", ".join(rows))
    baskets = []
    for i in range(1, 61):
        items = (("tv", "beer") if i % 2
                 else ("wine", "beer") if i % 3 else ("wine",))
        baskets.extend(f"({i}, '{p}')" for p in items)
    conn.execute("INSERT INTO S VALUES " + ", ".join(baskets))
    clicks = []
    for i in range(1, 31):
        pages = ["A", "B", "C"] if i % 2 else ["X", "Y", "X"]
        clicks.extend(f"({i}, {step}, '{page}')"
                      for step, page in enumerate(pages))
    conn.execute("INSERT INTO E VALUES " + ", ".join(clicks))


# One end-to-end scenario per registered service: DDL, training statement,
# and a PREDICTION JOIN with no blocking clause (so prediction is eligible
# for parallel execution in every scenario).
SCENARIOS = {
    "Repro_Naive_Bayes": dict(
        ddl="CREATE MINING MODEL M (Id LONG KEY, G TEXT DISCRETE, "
            "H TEXT DISCRETE, Buys TEXT DISCRETE PREDICT) "
            "USING Repro_Naive_Bayes",
        train="INSERT INTO M (Id, G, H, Buys) SELECT Id, G, H, Buys FROM C",
        predict="SELECT t.Id, M.Buys, PredictProbability(Buys) FROM M "
                "PREDICTION JOIN (SELECT Id, G, H FROM C) AS t "
                "ON M.G = t.G AND M.H = t.H AND M.Id = t.Id"),
    "Repro_Decision_Trees": dict(
        ddl="CREATE MINING MODEL M (Id LONG KEY, G TEXT DISCRETE, "
            "H TEXT DISCRETE, Buys TEXT DISCRETE PREDICT) "
            "USING Repro_Decision_Trees(MINIMUM_SUPPORT = 2)",
        train="INSERT INTO M (Id, G, H, Buys) SELECT Id, G, H, Buys FROM C",
        predict="SELECT t.Id, Predict(Buys), PredictProbability(Buys) "
                "FROM M NATURAL PREDICTION JOIN "
                "(SELECT Id, G, H FROM C) AS t"),
    "Repro_Clustering": dict(
        ddl="CREATE MINING MODEL M (Id LONG KEY, G TEXT DISCRETE, "
            "Age DOUBLE CONTINUOUS PREDICT) "
            "USING Repro_Clustering(CLUSTER_COUNT = 2)",
        train="INSERT INTO M (Id, G, Age) SELECT Id, G, Age FROM C",
        predict="SELECT t.Id, Cluster() FROM M NATURAL PREDICTION JOIN "
                "(SELECT Id, G, Age FROM C) AS t"),
    "Repro_KMeans": dict(
        ddl="CREATE MINING MODEL M (Id LONG KEY, G TEXT DISCRETE, "
            "Age DOUBLE CONTINUOUS PREDICT) "
            "USING Repro_KMeans(CLUSTER_COUNT = 2)",
        train="INSERT INTO M (Id, G, Age) SELECT Id, G, Age FROM C",
        predict="SELECT t.Id, Cluster() FROM M NATURAL PREDICTION JOIN "
                "(SELECT Id, G, Age FROM C) AS t"),
    "Repro_Linear_Regression": dict(
        ddl="CREATE MINING MODEL M (Id LONG KEY, G TEXT DISCRETE, "
            "Age DOUBLE CONTINUOUS, Spend DOUBLE CONTINUOUS PREDICT) "
            "USING Repro_Linear_Regression",
        train="INSERT INTO M (Id, G, Age, Spend) "
              "SELECT Id, G, Age, Spend FROM C",
        predict="SELECT t.Id, Predict(Spend) FROM M "
                "NATURAL PREDICTION JOIN (SELECT Id, G, Age FROM C) AS t"),
    "Repro_Logistic_Regression": dict(
        ddl="CREATE MINING MODEL M (Id LONG KEY, G TEXT DISCRETE, "
            "Age DOUBLE CONTINUOUS, Buys TEXT DISCRETE PREDICT) "
            "USING Repro_Logistic_Regression",
        train="INSERT INTO M (Id, G, Age, Buys) "
              "SELECT Id, G, Age, Buys FROM C",
        predict="SELECT t.Id, Predict(Buys), PredictProbability(Buys) "
                "FROM M NATURAL PREDICTION JOIN "
                "(SELECT Id, G, Age FROM C) AS t"),
    "Repro_Association_Rules": dict(
        ddl="CREATE MINING MODEL M (Id LONG KEY, B TABLE(P TEXT KEY) "
            "PREDICT) USING Repro_Association_Rules(MINIMUM_SUPPORT = 0.1, "
            "MINIMUM_PROBABILITY = 0.2)",
        train="INSERT INTO M (Id, B(P)) "
              "SHAPE {SELECT DISTINCT Cid FROM S ORDER BY Cid} "
              "APPEND ({SELECT Cid AS SC, P FROM S ORDER BY Cid} "
              "RELATE Cid TO SC) AS B",
        predict="SELECT t.Id, M.B FROM M NATURAL PREDICTION JOIN "
                "(SHAPE {SELECT Id FROM C ORDER BY Id} "
                "APPEND ({SELECT Cid AS SC, P FROM S ORDER BY Cid} "
                "RELATE Id TO SC) AS B) AS t"),
    "Repro_Sequence_Clustering": dict(
        ddl="CREATE MINING MODEL M (Id LONG KEY, "
            "Clicks TABLE(Step LONG KEY SEQUENCE_TIME, Page TEXT DISCRETE)) "
            "USING Repro_Sequence_Clustering(CLUSTER_COUNT = 2)",
        train="INSERT INTO M (Id, Clicks(Step, Page)) "
              "SHAPE {SELECT DISTINCT Id FROM E ORDER BY Id} "
              "APPEND ({SELECT Id AS EID, Step, Page FROM E ORDER BY Id} "
              "RELATE Id TO EID) AS Clicks",
        predict="SELECT t.Id, Cluster() FROM M NATURAL PREDICTION JOIN "
                "(SHAPE {SELECT DISTINCT Id FROM E ORDER BY Id} "
                "APPEND ({SELECT Id AS EID, Step, Page FROM E ORDER BY Id} "
                "RELATE Id TO EID) AS Clicks) AS t"),
}


def test_every_registered_service_has_a_scenario():
    registered = {cls.SERVICE_NAME for cls in algorithm_services()}
    assert registered == set(SCENARIOS), (
        "a mining service was registered without a differential scenario; "
        "add it to SCENARIOS so parallel equivalence stays pinned")


def _canonical(rowset):
    columns = [(c.name, c.type.name if c.type is not None else None)
               for c in rowset.columns]
    rows = [tuple(_canonical(v) if isinstance(v, Rowset) else v
                  for v in row)
            for row in rowset.rows]
    return columns, rows


def _metrics(conn):
    rows = conn.execute(
        "SELECT METRIC, VALUE FROM $SYSTEM.DM_PROVIDER_METRICS").rows
    return dict(rows)


def _run(service, workers, batch, pool_mode="thread"):
    """Train + content + predict under one pool configuration."""
    scenario = SCENARIOS[service]
    conn = repro.connect(max_workers=workers, pool_mode=pool_mode,
                         batch_size=batch, caseset_cache_capacity=0)
    try:
        _load(conn)
        conn.execute(scenario["ddl"])
        conn.execute(scenario["train"] + f" WITH MAXDOP {workers}")
        content = _canonical(conn.execute("SELECT * FROM M.CONTENT"))
        predictions = _canonical(conn.execute(scenario["predict"]))
        metrics = _metrics(conn)
    finally:
        conn.close()
    return content, predictions, metrics


_BASELINES = {}


def _baseline(service):
    """Serial reference: one worker, one giant batch."""
    if service not in _BASELINES:
        content, predictions, _ = _run(service, workers=1, batch=HUGE_BATCH)
        _BASELINES[service] = (content, predictions)
    return _BASELINES[service]


GRID = [(service, workers, batch)
        for service in sorted(SCENARIOS)
        for workers in WORKER_GRID
        for batch in BATCH_GRID]


@pytest.mark.parametrize(
    "service, workers, batch", GRID,
    ids=[f"{s}-w{w}-b{b}" for s, w, b in GRID])
def test_parallel_matches_serial(service, workers, batch):
    base_content, base_predictions = _baseline(service)
    content, predictions, metrics = _run(service, workers, batch)

    assert content == base_content, (
        f"{service}: model content diverged at workers={workers} "
        f"batch={batch}")
    assert predictions == base_predictions, (
        f"{service}: PREDICTION JOIN rows or order diverged at "
        f"workers={workers} batch={batch}")

    # A one-worker pool never parallelizes; a wider one fans the
    # prediction join out, and nothing falls back.
    expected = 0.0 if workers == 1 else 1.0
    assert metrics.get("pool.parallel_statements", 0.0) == expected
    assert metrics.get("pool.parallel_statements.predict", 0.0) == expected
    assert metrics.get("pool.serial_fallbacks", 0.0) == 0.0


requires_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process pools require the fork start method")


@requires_fork
def test_process_pool_matches_serial():
    """One process-mode cell: models and plans must survive pickling."""
    service = "Repro_Naive_Bayes"
    base_content, base_predictions = _baseline(service)
    content, predictions, metrics = _run(service, workers=2,
                                         batch=TINY_BATCH,
                                         pool_mode="process")
    assert content == base_content
    assert predictions == base_predictions
    assert metrics.get("pool.parallel_statements.predict") == 1.0
    assert metrics.get("pool.serial_fallbacks", 0.0) == 0.0


@pytest.mark.parametrize("pool_mode", [
    "thread", pytest.param("process", marks=requires_fork)])
@pytest.mark.parametrize("service", sorted(SCENARIOS))
def test_maxdop_training_is_the_serial_fit(tmp_path, service, pool_mode):
    """``INSERT INTO <model> ... WITH MAXDOP 2`` on a two-worker pool plans
    and runs ``fit schema`` then ``fit`` for every service, trains the
    serial provider's model, and a durable journal holding it recovers
    that model."""
    scenario = SCENARIOS[service]
    base_content, _ = _baseline(service)
    train = scenario["train"] + " WITH MAXDOP 2"
    path = str(tmp_path / "store")
    conn = repro.connect(max_workers=2, pool_mode=pool_mode,
                         caseset_cache_capacity=0, durable_path=path)
    try:
        _load(conn)
        conn.execute(scenario["ddl"])
        plan = conn.execute(f"EXPLAIN {train}").column_values("OPERATOR")
        assert plan[:3] == ["train", "fit schema", "fit"]
        conn.execute(train)
        assert _canonical(conn.execute("SELECT * FROM M.CONTENT")) == \
            base_content
        assert "pool.parallel_statements.train" not in _metrics(conn)
        records, _, _ = read_journal(conn.provider.store.journal_path)
        assert [record["stmt"] for record in records
                if record["kind"] == "TRAIN"] == [train]
    finally:
        # Abandon the store unclosed, as a crash would: the statement is
        # in the journal and nowhere else.
        conn.provider.pool.shutdown()
    recovered = repro.connect(durable_path=path)
    try:
        assert recovered.provider.recovery_info["replayed"] >= 1
        assert _canonical(recovered.execute("SELECT * FROM M.CONTENT")) == \
            base_content
    finally:
        recovered.close()
