"""A call budget for the statements the benchmark issues most.

Wall time on a shared box cannot gate the thirty-odd microseconds an
envelope layer costs; the number of Python-level calls a statement makes
can, because it repeats exactly.  ``sys.setprofile`` counts ``call``
events — function entries and generator resumptions — over 100 of the
benchmark's own point SELECTs and 100 of its singleton predictions
(``benchmarks/e2e/statements.py``), embedded, at ``connect()`` defaults,
after five warm-ups, and per case over the life cycle's TRAIN and cold
and warm ``NATURAL PREDICTION JOIN`` of 2,000 customers, once per
service.  The ceilings sit about 5 % above what the statements cost when they
were set (114 and 196 for the short statements, 46 of the point SELECT's in
``repro/obs/``, since a kept plan binds its literals: the point SELECT runs the
shared tree of its shape's seek, its WHERE compiled and its estimate taken once
per shape, and its template, plan-cache and seek counts ride its record into
completion's one fold — 154 and 52 while every statement planned its access
path, compiled its WHERE, estimated its rows and folded four times; the
singleton prediction runs its shape's kept tree, its row read from the slot
values and its binder, select list and estimate bound once per shape and model
— 305 while every one was made from its template, planned its join and its
FROM-less source, bound its source's rows, compiled its select list and
rendered its plan; 188, 323
and 74 while completion wrote each metric through a handle of its own lock, and
the path looked three counters up by name; the point SELECT cost 241 while
every one planned its shape again, and 192 once a template kept its shape's
prepared plan, so that from the second statement on it neither plans its FROM
source nor expands its select list; per case 8.2 and 4.7 for the tree and naive
Bayes TRAIN, 2.59 and 1.51 for their cold joins and 0.45 and 0.33 for the warm
re-score of the cached caseset, on CPython 3.11; 3.12 inlines comprehensions
and counts fewer).  The cold-join ceilings sit about 1 % above what they cost
when a SHAPE APPEND child ordered by its RELATE column stopped sorting and its
arm stopped copying the scan's rows (2.455 and 1.476; 2.454 and 1.4745 since).
The TRAIN ceilings sit about 1 % above what it costs since a model retains
its bound batches instead of one case view per case: 7.1095 and 3.6455 (8.160
and 4.652 while each case got a view).  The counted window collects the
garbage earlier tests left and pauses the collector, so these figures are the
same with this module run alone and inside the whole suite (up to 0.009 per
case apart before).  The
benchmark's five scan shapes over 5,000 customers, under its two indexes, are
held per scanned row — the rows of every table a shape reads — at 0.031 (0.0294
when set, since every conjunct of their WHERE clauses is a column against
literals that ``compile_selection`` tests a batch column at a time in C;
1.159 while each row ran the WHERE's nested closures, and about 5 while
a comparison's semantics were decided per row instead of per operator).  The benchmark's 100-row ``INSERT INTO Sales VALUES`` is
held per inserted row at 1.0 (0.95 when set, since a template hit picks a
VALUES row's values straight from the lexer's literals into a tuple; 23.0
while every value became a ``Literal`` node first, 39.0 while every index
and column statistic was maintained row by row) and its single-row
``INSERT INTO Sink VALUES`` at 99 (94 when set; 117 with ``Literal``
nodes, 127 before that).  A layer that starts resolving a name per column,
looking a metric up per counter, wrapping the statement in one more
generator or building one more object per case shows up here as a
failed assertion, not as noise.  This is a regression
guard, not a performance claim.

Training reads columns up to the fit, so neither a refit nor an absorb
of the life cycle's models builds a case's dicts (``CaseBatch[i]``), and
the model retains its caseset as the bound batches alone.
"""

import gc
import os
import sys
from contextlib import contextmanager

import pytest

import repro
import repro.obs
from repro.core.bindings import CaseBatch, MappedCase
from repro.core.persistence import dump_provider
from repro.datagen import WarehouseConfig, load_warehouse
from repro.sqlstore.engine import Database

from tests.sqlstore.test_ordered_input_differential import (
    benchmark_statements,
)

CUSTOMERS = 400
WARM_UPS, MEASURED = 5, 100

POINT_SELECT_CEILING = 118
SINGLETON_PREDICTION_CEILING = 206
#: Of the point SELECT's call events, those whose code is under repro/obs/.
POINT_SELECT_OBS_CEILING = 48
OBS_SOURCES = os.path.dirname(repro.obs.__file__) + os.sep

LIFECYCLE_CUSTOMERS = 2000
#: Call events per case of the first TRAIN, by service tag.
TRAIN_CEILING = {"dt": 7.18, "nb": 3.68}
#: Call events per case of the cold batch join, and of the same statement
#: re-scoring the cached caseset, by service tag.
COLD_JOIN_CEILING = {"dt": 2.49, "nb": 1.5}
WARM_JOIN_CEILING = {"dt": 0.47, "nb": 0.35}

SCAN_CUSTOMERS = 5000
#: Call events per scanned row over the five scan shapes.
SCAN_CEILING = 0.031

#: Call events per inserted row of the benchmark's 100-row ``INSERT INTO
#: Sales VALUES``, and per single-row ``INSERT INTO Sink VALUES``.
INSERT_ROW_CEILING = 1.0
SINGLE_INSERT_CEILING = 99


@contextmanager
def _call_events():
    """``[n, m]``: the call events while the block runs, and the ``m`` of
    them whose code lives under ``repro/obs/``.  Garbage that earlier work
    left is collected first and the collector is paused while the block
    runs, so neither a finalizer of that garbage nor a ``gc.callbacks``
    hook (hypothesis installs one) is counted: the figures are the same
    for this module alone and inside the whole suite."""
    counted = [0, 0]

    def count(frame, event, arg):
        if event == "call":
            counted[0] += 1
            if frame.f_code.co_filename.startswith(OBS_SOURCES):
                counted[1] += 1
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        yield counted
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()


@contextmanager
def _life_cycle_model(tag):
    """A connection holding the life cycle's warehouse and an untrained
    model ``M`` of the service ``tag`` names, and the statement list."""
    statements = benchmark_statements()
    algorithm = dict(statements.LIFECYCLE_ALGORITHMS)[tag]
    conn = repro.connect()
    try:
        load_warehouse(conn.database, WarehouseConfig(
            customers=LIFECYCLE_CUSTOMERS, seed=7))
        conn.execute(statements.CREATE_MODEL.format(name="M",
                                                    algorithm=algorithm))
        yield conn, statements
    finally:
        conn.close()


def _texts(rounds, kind):
    wanted = WARM_UPS + MEASURED
    texts = []
    for round_no in range(wanted):
        texts += [op.text for op in rounds(round_no) if op.kind == kind]
        if len(texts) >= wanted:
            return texts[:wanted]
    raise AssertionError(f"the generator gave {len(texts)} {kind} texts")


def _calls_per_statement(conn, texts):
    """Call events per statement after the warm-ups: ``(all, repro/obs)``."""
    for text in texts[:WARM_UPS]:
        conn.execute(text)
    with _call_events() as calls:
        for text in texts[WARM_UPS:]:
            conn.execute(text)
    return calls[0] / MEASURED, calls[1] / MEASURED


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

        point, point_obs = _calls_per_statement(conn, seeks)
        singleton, _ = _calls_per_statement(conn, predictions)
    finally:
        conn.close()
    assert point <= POINT_SELECT_CEILING, point
    assert point_obs <= POINT_SELECT_OBS_CEILING, point_obs
    assert singleton <= SINGLETON_PREDICTION_CEILING, singleton


def test_point_selects_after_the_first_bind_a_prepared_plan(monkeypatch):
    """The benchmark's point SELECTs share one shape: the first prepares
    its plan, the 2nd-100th plan no FROM source and expand no select list
    — they bind the prepared plan to their literal."""
    statements = benchmark_statements()
    conn = repro.connect()
    try:
        load_warehouse(conn.database,
                       WarehouseConfig(customers=CUSTOMERS, seed=7))
        conn.execute(statements.SERVED_SETUP[0])
        seeks = _texts(statements.SqlStatements(
            7, CUSTOMERS, seeks=WARM_UPS + MEASURED, ranges=0,
            insert_rows=0).round, "seek")[:MEASURED]
        conn.execute(seeks[0])
        planned = []
        for name in ("plan_table_ref", "_expand_select_list"):
            real = getattr(Database, name)
            monkeypatch.setattr(Database, name, lambda *args, name=name,
                                real=real: planned.append(name) or real(*args))
        rows = [len(conn.execute(text).rows) for text in seeks[1:]]
        hits = conn.provider.metrics.value("sqlstore.plan_cache.hits")
    finally:
        conn.close()
    assert rows == [1] * (MEASURED - 1)
    assert planned == []
    assert hits == MEASURED - 1


def test_a_kept_plan_hit_plans_compiles_estimates_and_folds_nothing():
    """From the second on, the benchmark's point SELECTs are kept-plan
    hits: per statement no call into ``sqlstore/stats.py``, no
    ``choose_index`` or ``seek_forms`` and no ``compile_selection`` or
    ``kernel_selection`` — the shape's seeks, WHERE and estimate are
    decided once — and one ``MetricsRegistry.fold``, at completion."""
    statements = benchmark_statements()
    conn = repro.connect()
    try:
        load_warehouse(conn.database,
                       WarehouseConfig(customers=CUSTOMERS, seed=7))
        conn.execute(statements.SERVED_SETUP[0])
        seeks = _texts(statements.SqlStatements(
            7, CUSTOMERS, seeks=WARM_UPS + MEASURED, ranges=0,
            insert_rows=0).round, "seek")[:MEASURED]
        conn.execute(seeks[0])
        called = {}

        def count(frame, event, arg):
            if event == "call":
                code = frame.f_code
                name = ("stats.py" if code.co_filename.endswith(
                    os.path.join("sqlstore", "stats.py")) else code.co_name)
                called[name] = called.get(name, 0) + 1
        sys.setprofile(count)
        try:
            rows = [len(conn.execute(text).rows) for text in seeks[1:]]
        finally:
            sys.setprofile(None)
    finally:
        conn.close()
    assert rows == [1] * (MEASURED - 1)
    for name in ("stats.py", "choose_index", "seek_forms",
                 "compile_selection", "kernel_selection"):
        assert called.get(name, 0) == 0, (name, called.get(name))
    assert called["fold"] == MEASURED - 1


def test_singletons_after_the_first_bind_a_prepared_plan():
    """The benchmark's singleton predictions share one shape: the first
    prepares its plan, and the 2nd-100th neither plan their prediction
    join nor its FROM-less source, bind their source's rows, compile
    their select list or render their plan — they bind their row to the
    kept plan — and each is one plan-cache hit."""
    statements = benchmark_statements()
    conn = repro.connect()
    try:
        load_warehouse(conn.database,
                       WarehouseConfig(customers=CUSTOMERS, seed=7))
        for statement in statements.SERVED_SETUP:
            conn.execute(statement)
        predictions = _texts(statements.ServedStatements(
            7, 0, CUSTOMERS, per_round=100).round, "predict")[:MEASURED]
        first = conn.execute(predictions[0]).rows
        called = {}
        watched = ("plan_prediction", "prepare_prediction", "plan_select",
                   "case_binder", "compile_cases", "plan_skeleton")

        def count(frame, event, arg):
            if event == "call" and frame.f_code.co_name in watched:
                called[frame.f_code.co_name] = \
                    called.get(frame.f_code.co_name, 0) + 1
        sys.setprofile(count)
        try:
            rows = [conn.execute(text).rows for text in predictions[1:]]
        finally:
            sys.setprofile(None)
        hits = conn.provider.metrics.value("sqlstore.plan_cache.hits")
    finally:
        conn.close()
    assert [len(answer) for answer in [first] + rows] == [1] * MEASURED
    assert called == {}
    assert hits == MEASURED - 1


@pytest.mark.parametrize("tag", sorted(TRAIN_CEILING))
def test_the_life_cycle_train_stays_inside_its_call_budget(tag):
    with _life_cycle_model(tag) as (conn, statements):
        with _call_events() as calls:
            conn.execute(statements.TRAIN_MODEL.format(name="M"))
        cases = conn.provider.model("M").case_count
    assert cases == LIFECYCLE_CUSTOMERS
    assert calls[0] / cases <= TRAIN_CEILING[tag], calls[0] / cases


@pytest.mark.parametrize("tag", sorted(TRAIN_CEILING))
def test_refit_and_absorb_build_no_case_dicts(tag, monkeypatch):
    """The first TRAIN refits; the second refits the tree and absorbs into
    naive Bayes — and none of the three builds a case's dicts.  The model
    retains its cases as the bound batches, without their source rows,
    and no ``MappedCase`` outlives a snapshot of it."""
    fills = []
    fill = CaseBatch.__getitem__
    monkeypatch.setattr(CaseBatch, "__getitem__", lambda batch, row: (
        fills.append(row), fill(batch, row))[1])
    with _life_cycle_model(tag) as (conn, statements):
        train = statements.TRAIN_MODEL.format(name="M")
        conn.execute(train)
        plan = conn.execute(f"EXPLAIN ANALYZE {train}")
        names = [column.name for column in plan.columns]
        rows = [dict(zip(names, values)) for values in plan.rows]
        ran = {row["OPERATOR"] for row in rows
               if row["ACTUAL_ROWS"] is not None}
        model = conn.provider.model("M")
        cases = model.case_count
        assert fills == []
        dump_provider(conn.provider)
        gc.collect()
        retained = model.training_cases
        assert {type(batch) for batch in retained} == {CaseBatch}
        assert {batch.source for batch in retained} == {None}
        assert not any(isinstance(thing, MappedCase)
                       for thing in gc.get_objects())
    steps = {"incremental absorb", "fit schema", "fit"} & ran
    assert steps == ({"incremental absorb"} if tag == "nb"
                     else {"fit schema", "fit"})
    assert cases == 2 * LIFECYCLE_CUSTOMERS
    assert len(fills) == cases      # the snapshot writer's, one per case


@pytest.mark.parametrize("tag", sorted(COLD_JOIN_CEILING))
def test_the_batch_joins_stay_inside_their_call_budgets(tag):
    with _life_cycle_model(tag) as (conn, statements):
        conn.execute(statements.TRAIN_MODEL.format(name="M"))
        score = statements.SCORE_MODEL.format(name="M")
        # A fresh model: the caseset cache has nothing to replay.
        with _call_events() as cold:
            cases = len(conn.execute(score).rows)
        with _call_events() as warm:
            rescored = len(conn.execute(score).rows)
    assert cases == rescored == LIFECYCLE_CUSTOMERS
    assert cold[0] / cases <= COLD_JOIN_CEILING[tag], cold[0] / cases
    assert warm[0] / cases <= WARM_JOIN_CEILING[tag], warm[0] / cases


def test_the_scan_shapes_stay_inside_their_call_budget():
    statements = benchmark_statements()
    conn = repro.connect()
    try:
        load_warehouse(conn.database, WarehouseConfig(
            customers=SCAN_CUSTOMERS, seed=7))
        for text in statements.SQL_INDEXES + tuple(
                text for _, text, _ in statements.SCAN_SHAPES):
            conn.execute(text)
        scanned = sum(len(conn.database.table(name))
                      for _, _, tables in statements.SCAN_SHAPES
                      for name in tables)
        with _call_events() as calls:
            for _, text, _ in statements.SCAN_SHAPES:
                conn.execute(text)
    finally:
        conn.close()
    assert scanned > 10 * SCAN_CUSTOMERS
    assert calls[0] / scanned <= SCAN_CEILING, calls[0] / scanned


def test_the_inserts_stay_inside_their_call_budgets():
    """Rows are checked one by one, then every index and column statistic
    takes the statement in one call: a structure maintained per row again
    shows up here per inserted row."""
    statements = benchmark_statements()
    conn = repro.connect()
    try:
        load_warehouse(conn.database,
                       WarehouseConfig(customers=CUSTOMERS, seed=7))
        for text in statements.SQL_INDEXES + statements.SERVED_SETUP[1:2]:
            conn.execute(text)
        inserts = _texts(statements.SqlStatements(
            7, CUSTOMERS, seeks=0, ranges=0, insert_rows=100).round,
            "insert")
        singles = _texts(statements.ServedStatements(
            7, 0, CUSTOMERS, per_round=100).round, "insert")
        assert inserts[0].startswith("INSERT INTO Sales VALUES")
        assert singles[0].startswith("INSERT INTO Sink VALUES")
        per_row = _calls_per_statement(conn, inserts)[0] / 100
        single, _ = _calls_per_statement(conn, singles)
    finally:
        conn.close()
    assert per_row <= INSERT_ROW_CEILING, per_row
    assert single <= SINGLE_INSERT_CEILING, single
