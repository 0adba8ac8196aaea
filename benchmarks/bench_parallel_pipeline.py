"""Parallel pipeline — a pooled provider against a serial one.

The claim of the parallel execution subsystem: a PREDICTION JOIN over a
50k-row source speeds up with ``WITH MAXDOP`` workers while producing
**byte-identical** rows in the same order.  Training naive Bayes over 100k
cases ``WITH MAXDOP`` on the pooled provider runs the one serial refit —
no pool fan-out — and trains the same model content.

Equivalence is asserted unconditionally on every run.  The prediction
speedup bar (>=1.5x at 4 workers) only applies when the host actually
exposes >=4 CPU cores; on smaller machines the benchmark still runs, still
proves equivalence, and reports the measured (possibly <1x) ratios without
failing.  The train ratio is reported, never gated.

Run directly under pytest:

    PYTHONPATH=src python -m pytest benchmarks/bench_parallel_pipeline.py -s

Set ``REPRO_BENCH_QUICK=1`` to shrink the workload for CI smoke runs.
"""

import multiprocessing
import os
import time

import pytest

import repro
from repro.sqlstore.rowset import Rowset

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
TRAIN_ROWS = 10_000 if QUICK else 100_000
PREDICT_ROWS = 5_000 if QUICK else 50_000
WORKERS = 4
MIN_SPEEDUP = 1.5

try:
    CORES = len(os.sched_getaffinity(0))
except AttributeError:  # pragma: no cover - non-Linux fallback
    CORES = os.cpu_count() or 1
ENFORCE_SPEEDUP = CORES >= WORKERS
POOL_MODE = ("process"
             if "fork" in multiprocessing.get_all_start_methods()
             else "thread")

MODEL_DDL = ("CREATE MINING MODEL Upsell (cid LONG KEY, "
             "region TEXT DISCRETE, tier TEXT DISCRETE, "
             "channel TEXT DISCRETE, buys TEXT DISCRETE PREDICT) "
             "USING Repro_Naive_Bayes")
TRAIN = ("INSERT INTO Upsell (cid, region, tier, channel, buys) "
         "SELECT cid, region, tier, channel, buys FROM TrainCases")
PREDICT = ("SELECT t.cid, Upsell.buys, PredictProbability(buys) "
           "FROM Upsell NATURAL PREDICTION JOIN Prospects AS t")

REGIONS = ("north", "south", "east", "west", "central")
TIERS = ("free", "plus", "pro")
CHANNELS = ("web", "store", "phone", "partner")


def _case_row(index):
    region = REGIONS[index % len(REGIONS)]
    tier = TIERS[(index // 3) % len(TIERS)]
    channel = CHANNELS[(index * 7) % len(CHANNELS)]
    buys = "yes" if (index % 5 + index % 3) % 2 == 0 else "no"
    return (index, region, tier, channel, buys)


def _canonical(rowset):
    columns = [(c.name, c.type.name if c.type is not None else None)
               for c in rowset.columns]
    rows = [tuple(_canonical(v) if isinstance(v, Rowset) else v for v in row)
            for row in rowset.rows]
    return columns, rows


def _make_connection(max_workers):
    conn = repro.connect(max_workers=max_workers, pool_mode=POOL_MODE,
                         caseset_cache_capacity=0)
    conn.execute("CREATE TABLE TrainCases (cid INT, region TEXT, tier TEXT, "
                 "channel TEXT, buys TEXT)")
    conn.execute("CREATE TABLE Prospects (cid INT, region TEXT, tier TEXT, "
                 "channel TEXT)")
    conn.database.table("TrainCases").insert_many(
        _case_row(i) for i in range(TRAIN_ROWS))
    conn.database.table("Prospects").insert_many(
        _case_row(i)[:4] for i in range(PREDICT_ROWS))
    conn.execute(MODEL_DDL)
    return conn


def _timed(run):
    started = time.perf_counter()
    result = run()
    return time.perf_counter() - started, result


def _pool_metric(conn, name):
    rows = conn.execute(
        "SELECT METRIC, VALUE FROM $SYSTEM.DM_PROVIDER_METRICS").rows
    for metric, value in rows:
        if metric == name:
            return value
    return 0.0


@pytest.fixture(scope="module")
def connections():
    serial = _make_connection(max_workers=1)
    parallel = _make_connection(max_workers=WORKERS)
    yield serial, parallel
    serial.close()
    parallel.close()


def test_pooled_train_equivalent_and_parallel_predict_fast(connections):
    serial, parallel = connections

    serial_train, _ = _timed(lambda: serial.execute(TRAIN))
    parallel_train, _ = _timed(
        lambda: parallel.execute(TRAIN + f" WITH MAXDOP {WORKERS}"))
    # Training never fans out: MAXDOP on a model INSERT is accepted and the
    # refit is the serial one.
    assert "pool.parallel_statements.train" not in {
        metric for metric, _ in parallel.execute(
            "SELECT METRIC, VALUE FROM $SYSTEM.DM_PROVIDER_METRICS").rows}
    assert _pool_metric(parallel, "pool.serial_fallbacks") == 0.0

    # Byte-identical model content: same rows, same order, same types.
    content_q = "SELECT * FROM Upsell.CONTENT"
    assert _canonical(serial.execute(content_q)) == \
        _canonical(parallel.execute(content_q))

    serial_predict, serial_rows = _timed(lambda: serial.execute(PREDICT))
    parallel_predict, parallel_rows = _timed(lambda: parallel.execute(PREDICT))
    assert _pool_metric(parallel, "pool.parallel_statements.predict") >= 1.0

    # Byte-identical predictions: same rows in the same order.
    assert _canonical(serial_rows) == _canonical(parallel_rows)
    assert len(serial_rows.rows) == PREDICT_ROWS

    train_ratio = serial_train / max(parallel_train, 1e-9)
    predict_ratio = serial_predict / max(parallel_predict, 1e-9)
    print()
    print(f"Parallel pipeline: {TRAIN_ROWS:,} train rows, "
          f"{PREDICT_ROWS:,} predict rows, {WORKERS} workers "
          f"({POOL_MODE} mode, {CORES} core(s) visible)"
          f"{' (quick mode)' if QUICK else ''}")
    print(f"  train   serial {serial_train:6.2f} s | "
          f"pooled   {parallel_train:6.2f} s | {train_ratio:4.2f}x")
    print(f"  predict serial {serial_predict:6.2f} s | "
          f"parallel {parallel_predict:6.2f} s | {predict_ratio:4.2f}x")
    print(f"  outputs byte-identical: content + {PREDICT_ROWS:,} "
          f"prediction rows")
    if ENFORCE_SPEEDUP:
        assert predict_ratio >= MIN_SPEEDUP, (
            f"expected a >={MIN_SPEEDUP}x PREDICTION JOIN on a "
            f"{CORES}-core host, got {predict_ratio:.2f}x")
    else:
        print(f"  speedup bar skipped: only {CORES} core(s) visible "
              f"(needs >={WORKERS})")
