"""Experiment X7 — incremental model maintenance vs. full refresh.

Paper section 2 lists "support for incremental model maintenance" among
the capabilities a provider advertises through its schema rowsets.  This
ablation measures what the capability buys: a model is refreshed with
daily batches of new cases via repeated INSERT INTO —

* **naive Bayes** declares SUPPORTS_INCREMENTAL, so each batch folds into
  the existing counts (cost proportional to the *batch*);
* **decision trees** do not, so each INSERT retrains on the accumulated
  caseset (cost proportional to the *total history*).

Expected shape: the k-th refresh is flat for the incremental service and
grows linearly with k for the full-refit service — while predictions under
the incremental path stay exactly equal to a from-scratch retrain
(asserted in tests/core/test_incremental.py).

The two checks read each refresh's ``EXPLAIN ANALYZE``: the rows its
training steps read (the whole history for a refit, the batch for an
absorb) and, for the refit, the milliseconds of ``fit schema`` + ``fit``
alone — the statement's fixed cost (scanning ``Stream``, planning,
binding the batch) does not grow with the history and would dilute the
ratio.
"""

import time

import pytest

import repro
from repro.datagen import WarehouseConfig, generate_warehouse

BATCH = 400
BATCHES = 5

DDL = """
CREATE MINING MODEL [{name}] (
    [Customer ID] LONG KEY,
    [Gender] TEXT DISCRETE,
    [Hair Color] TEXT DISCRETE,
    [Bucket] TEXT DISCRETE PREDICT
) USING {algorithm}
"""

TRAIN = """
INSERT INTO [{name}]
SELECT [Customer ID], Gender, [Hair Color], Bucket FROM Stream
WHERE Batch = {batch}
"""


def build_stream(conn):
    """A customer stream with a precomputed age bucket per batch."""
    data = generate_warehouse(WarehouseConfig(
        customers=BATCH * BATCHES, include_paper_customer=False))
    conn.execute("CREATE TABLE Stream ([Customer ID] LONG, Gender TEXT, "
                 "[Hair Color] TEXT, Bucket TEXT, Batch LONG)")
    table = conn.database.table("Stream")
    for position, (cid, gender, hair, age, _) in enumerate(data.customers):
        bucket = "young" if age < 35 else "mid" if age < 55 else "senior"
        table.insert((cid, gender, hair, bucket, position // BATCH))


def refresh_steps(conn, name):
    """Per refresh of model ``name``, ``{operator: (ACTUAL_ROWS, WALL_MS)}``
    of the plan nodes its ``EXPLAIN ANALYZE`` ran."""
    refreshes = []
    for batch in range(BATCHES):
        plan = conn.execute("EXPLAIN ANALYZE " +
                            TRAIN.format(name=name, batch=batch))
        names = [column.name for column in plan.columns]
        refreshes.append({
            row["OPERATOR"]: (row["ACTUAL_ROWS"], row["WALL_MS"])
            for row in (dict(zip(names, values)) for values in plan.rows)
            if row["ACTUAL_ROWS"] is not None})
    return refreshes


@pytest.fixture(scope="module")
def stream_conn():
    conn = repro.connect()
    build_stream(conn)
    return conn


def test_bench_x7_incremental_refresh(benchmark, stream_conn):
    """Time of the LAST batch under naive Bayes (incremental)."""
    def run():
        stream_conn.execute("DROP MINING MODEL IF EXISTS [X7 NB]")
        stream_conn.execute(DDL.format(name="X7 NB",
                                       algorithm="Repro_Naive_Bayes"))
        for batch in range(BATCHES - 1):
            stream_conn.execute(TRAIN.format(name="X7 NB", batch=batch))
        start = time.perf_counter()
        stream_conn.execute(TRAIN.format(name="X7 NB",
                                         batch=BATCHES - 1))
        return time.perf_counter() - start

    last = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["last_batch_seconds"] = last


def test_bench_x7_full_refit_refresh(benchmark, stream_conn):
    """Time of the LAST batch under decision trees (full refit)."""
    def run():
        stream_conn.execute("DROP MINING MODEL IF EXISTS [X7 DT]")
        stream_conn.execute(DDL.format(
            name="X7 DT", algorithm="Repro_Decision_Trees"))
        for batch in range(BATCHES - 1):
            stream_conn.execute(TRAIN.format(name="X7 DT", batch=batch))
        start = time.perf_counter()
        stream_conn.execute(TRAIN.format(name="X7 DT",
                                         batch=BATCHES - 1))
        return time.perf_counter() - start

    last = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["last_batch_seconds"] = last


def test_x7_incremental_refreshes_stay_flat(stream_conn):
    stream_conn.execute("DROP MINING MODEL IF EXISTS [X7 Flat]")
    stream_conn.execute(DDL.format(name="X7 Flat",
                                   algorithm="Repro_Naive_Bayes"))
    refreshes = refresh_steps(stream_conn, "X7 Flat")
    timings = [steps["train"][1] for steps in refreshes]
    print("\nX7 naive Bayes (incremental) per-batch refresh ms:",
          [f"{t:.2f}" for t in timings])
    # The model really did take the incremental path after the first
    # refresh, and each absorb read its batch alone.
    assert [steps.get("incremental absorb", (None,))[0]
            for steps in refreshes[1:]] == [BATCH] * (BATCHES - 1)
    model = stream_conn.model("X7 Flat")
    assert model.case_count == BATCH * BATCHES
    # Last refresh must not cost dramatically more than the first.
    assert timings[-1] < timings[0] * 3 + 50


def test_x7_full_refit_cost_grows(stream_conn):
    # The first pass warms what a first refit pays once (lazy imports,
    # first-use caches); the second is measured.
    for _ in range(2):
        stream_conn.execute("DROP MINING MODEL IF EXISTS [X7 Grow]")
        stream_conn.execute(DDL.format(name="X7 Grow",
                                       algorithm="Repro_Decision_Trees"))
        refreshes = refresh_steps(stream_conn, "X7 Grow")
    timings = [steps["fit schema"][1] + steps["fit"][1]
               for steps in refreshes]
    print("\nX7 decision trees (full refit) per-batch fit schema + fit ms:",
          [f"{t:.2f}" for t in timings])
    # The k-th refit reads the whole history: k batches.
    history = [BATCH * k for k in range(1, BATCHES + 1)]
    assert [steps["fit schema"][0] for steps in refreshes] == history
    assert [steps["fit"][0] for steps in refreshes] == history
    # Refitting over 5x the history costs visibly more than batch 1.
    assert timings[-1] > timings[0] * 1.5
