"""A call budget for the statements the benchmark issues most.

Wall time on a shared box cannot gate the thirty-odd microseconds an
envelope layer costs; the number of Python-level calls a statement makes
can, because it repeats exactly.  ``sys.setprofile`` counts ``call``
events — function entries and generator resumptions — over 100 of the
benchmark's own point SELECTs and 100 of its singleton predictions
(``benchmarks/e2e/statements.py``), embedded, at ``connect()`` defaults,
after five warm-ups, and per case over the life cycle's cold ``NATURAL
PREDICTION JOIN`` of 2,000 customers, once per service.  The ceilings sit
about 5 % above what the statements cost when they were set (241 and 322
for the short statements, 8.6 and 9.5 per case for the tree and naive
Bayes joins, on CPython 3.11; 3.12 inlines comprehensions and counts
fewer): a layer that starts resolving a name per column, looking a metric
up per counter, wrapping the statement in one more generator or building
one more object per case shows up here as a failed assertion, not as
noise.  This is a regression guard, not a performance claim.
"""

import sys

import pytest

import repro
from repro.datagen import WarehouseConfig, load_warehouse

from tests.sqlstore.test_ordered_input_differential import (
    benchmark_statements,
)

CUSTOMERS = 400
WARM_UPS, MEASURED = 5, 100

POINT_SELECT_CEILING = 253
SINGLETON_PREDICTION_CEILING = 338

LIFECYCLE_CUSTOMERS = 2000
#: Call events per case of the cold batch join, by service tag.
COLD_JOIN_CEILING = {"dt": 9.0, "nb": 10.0}


def _texts(rounds, kind):
    wanted = WARM_UPS + MEASURED
    texts = []
    for round_no in range(wanted):
        texts += [op.text for op in rounds(round_no) if op.kind == kind]
        if len(texts) >= wanted:
            return texts[:wanted]
    raise AssertionError(f"the generator gave {len(texts)} {kind} texts")


def _calls_per_statement(conn, texts) -> float:
    for text in texts[:WARM_UPS]:
        conn.execute(text)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        for text in texts[WARM_UPS:]:
            conn.execute(text)
    finally:
        sys.setprofile(previous)
    return calls / MEASURED


def test_short_statements_stay_inside_their_call_budget():
    statements = benchmark_statements()
    conn = repro.connect()
    try:
        load_warehouse(conn.database,
                       WarehouseConfig(customers=CUSTOMERS, seed=7))
        for statement in statements.SERVED_SETUP:
            conn.execute(statement)
        seeks = _texts(statements.SqlStatements(
            7, CUSTOMERS, seeks=WARM_UPS + MEASURED, ranges=0,
            insert_rows=0).round, "seek")
        predictions = _texts(statements.ServedStatements(
            7, 0, CUSTOMERS, per_round=100).round, "predict")
        assert "WHERE [Customer ID] = " in seeks[0]
        assert "NATURAL PREDICTION JOIN (SELECT '" in predictions[0]

        point = _calls_per_statement(conn, seeks)
        singleton = _calls_per_statement(conn, predictions)
    finally:
        conn.close()
    assert point <= POINT_SELECT_CEILING, point
    assert singleton <= SINGLETON_PREDICTION_CEILING, singleton


@pytest.mark.parametrize("tag", sorted(COLD_JOIN_CEILING))
def test_the_cold_batch_join_stays_inside_its_call_budget(tag):
    statements = benchmark_statements()
    algorithm = dict(statements.LIFECYCLE_ALGORITHMS)[tag]
    conn = repro.connect()
    try:
        load_warehouse(conn.database, WarehouseConfig(
            customers=LIFECYCLE_CUSTOMERS, seed=7))
        conn.execute(statements.CREATE_MODEL.format(name="M",
                                                    algorithm=algorithm))
        conn.execute(statements.TRAIN_MODEL.format(name="M"))
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1
        previous = sys.getprofile()
        sys.setprofile(count)
        try:   # a fresh model: the caseset cache has nothing to replay
            cases = len(conn.execute(
                statements.SCORE_MODEL.format(name="M")).rows)
        finally:
            sys.setprofile(previous)
    finally:
        conn.close()
    assert cases == LIFECYCLE_CUSTOMERS
    assert calls / cases <= COLD_JOIN_CEILING[tag], calls / cases
