"""Differential harness: ``engine.order_rows`` — the ORDER BY every
SELECT's result tail runs, relational and PREDICTION JOIN alike — with its
ordered-input check against the decorated sort alone.

``order_rows`` returns its input untouched when the raw ORDER BY values
already stand in the requested order; the claim is that this is *exactly*
what the stable multi-key sort over ``sort_key`` tuples would have
returned.  The oracle here is that sort with no check in front of it (the
body the ORDER BY had before the check existed); inputs are drawn as
generated, pre-sorted by the oracle (so the skip is really taken — ties,
every direction mix) and pre-sorted then reversed (so the sort body runs).

Fixed cases pin where the check fires: the SHAPE sources of the benchmark's
life-cycle statements take the skip, ``scan_top`` leaves it at the first
pair out of order, and grouped ORDER BY / ``TOP n`` and a PREDICTION
JOIN's ORDER BY go through the same function.  The hypothesis budget
comes from the profile (25 in tier-1, 2,000 under
``--hypothesis-profile=deep``).
"""

import datetime
import importlib.util
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.datagen import WarehouseConfig, load_warehouse
from repro.sqlstore import engine
from repro.sqlstore.engine import _multi_key_sort
from repro.sqlstore.values import sort_key

STATEMENTS = pathlib.Path(__file__).resolve().parents[2] / \
    "benchmarks" / "e2e" / "statements.py"


def sort_alone(rows, width, directions):
    keys = [tuple(sort_key(row[position]) for position in range(width))
            for row in rows]
    return _multi_key_sort(rows, keys, directions)


def order_rows(rows, width, directions):
    return engine.order_rows(rows, list(range(width)), directions)


# -- generated key columns -------------------------------------------------------------

nan = float("nan")
DAY = datetime.date(2024, 2, 29)
KINDS = {
    "int": st.integers(-3, 3),
    "float": st.sampled_from([-1.5, -0.0, 0.0, 0.5, 2.0, float("inf")]),
    "nan": st.sampled_from([nan, float("nan"), 0.0, 1.0]),
    "null": st.sampled_from([None, None, 0, 1, 2]),
    "bool_int": st.sampled_from([False, True, 0, 1, 2]),
    "big": st.sampled_from([2 ** 53, 2 ** 53 + 1, 2 ** 53 + 2, 2.0 ** 53,
                            -2 ** 53 - 1, 2 ** 70, 1]),
    "int_float": st.sampled_from([1, 1.0, 1.5, 2, 2.5]),
    "str": st.sampled_from(["", "a", "A", "b", "ab", "10", "9"]),
    "str_number": st.sampled_from(["1", "a", 1, 2.5, None]),
    "date": st.sampled_from([DAY, DAY + datetime.timedelta(1),
                             DAY - datetime.timedelta(400)]),
    "datetime": st.sampled_from([
        datetime.datetime(2024, 2, 29, 3), datetime.datetime(2024, 2, 29, 5),
        datetime.datetime(2024, 3, 1)]),
    "date_datetime": st.sampled_from([
        DAY, datetime.datetime(2024, 2, 29, 5), datetime.datetime(2024, 3, 1),
        DAY + datetime.timedelta(2)]),
}


@st.composite
def orderings(draw):
    width = draw(st.integers(1, 3))
    columns = [KINDS[draw(st.sampled_from(sorted(KINDS)))]
               for _ in range(width)]
    directions = [draw(st.booleans()) for _ in range(width)]
    count = draw(st.integers(0, 9))
    rows = [tuple(draw(column) for column in columns) + (tag,)
            for tag in range(count)]
    arrangement = draw(st.sampled_from(["as drawn", "sorted", "reversed"]))
    if arrangement != "as drawn":
        rows = sort_alone(rows, width, directions)
        if arrangement == "reversed":
            rows.reverse()
    return rows, width, directions


@settings(deadline=None,
          max_examples=settings.default.max_examples * 8)  # ~1 ms each
@given(orderings())
def test_order_rows_equals_the_sort_alone(ordering):
    rows, width, directions = ordering
    expected = sort_alone(list(rows), width, directions)
    result = order_rows(list(rows), width, directions)
    # Identity, not equality: 1 == 1.0 == True and NaN != NaN.
    assert [id(row) for row in result] == [id(row) for row in expected]


@pytest.mark.parametrize("rows, directions, skips", [
    ([(1,), (2,), (2,), (5,)], [True], True),
    ([(5,), (2,), (2,), (1,)], [False], True),
    ([(1, "b"), (1, "a"), (2, "z")], [True, False], True),
    ([(1, "a"), (1, "b")], [True, False], False),      # second key ascends
    ([(0.5,), (nan,)], [True], False),
    ([(1, nan), (2, 0.0)], [True, True], False),       # NaN no tie consults
    ([(None,), (1,)], [True], False),                  # already NULLs-first
    ([(1,), (None,), (2,)], [True], False),
    ([(2 ** 53, 5), (2 ** 53 + 1, 3)], [True, True], False),  # one float
    ([(False,), (1,), (2,)], [True], True),
    ([(1,), (1.5,)], [True], False),                   # two classes: sorted
    ([("1",), (2,)], [True], False),
    ([(DAY,), (datetime.datetime(2024, 3, 1),)], [True], False),
    ([(datetime.datetime(2024, 2, 29, 3),),
      (datetime.datetime(2024, 2, 29, 5),)], [True], False),  # one ordinal
    ([(DAY,), (DAY + datetime.timedelta(1),)], [True], True),
    ([], [True], True),
    ([(None,)], [True], False),
])
def test_which_inputs_skip_the_sort(monkeypatch, rows, directions, skips):
    sorts = []
    real = engine._multi_key_sort
    monkeypatch.setattr(engine, "_multi_key_sort",
                        lambda *args: sorts.append(1) or real(*args))
    width = len(directions)
    tagged = [row + (tag,) for tag, row in enumerate(rows)]
    expected = sort_alone(list(tagged), width, directions)
    assert list(map(id, order_rows(tagged, width, directions))) == \
        list(map(id, expected))
    assert (not sorts) == skips


# -- where the check fires in whole statements -------------------------------------------------

@pytest.fixture
def warehouse_db():
    conn = repro.connect()
    load_warehouse(conn.database, WarehouseConfig(customers=200, seed=7))
    yield conn
    conn.close()


@pytest.fixture
def verdicts(monkeypatch):
    seen = []
    real = engine._already_ordered

    def recording(columns, directions):
        seen.append(real(columns, directions))
        return seen[-1]
    monkeypatch.setattr(engine, "_already_ordered", recording)
    return seen


def benchmark_statements():
    spec = importlib.util.spec_from_file_location("e2e_statements",
                                                  STATEMENTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_life_cycle_shape_sources_skip_and_scan_top_leaves_at_once(
        warehouse_db, verdicts, monkeypatch):
    statements = benchmark_statements()
    conn = warehouse_db
    for op in statements.lifecycle_round(0)[:3]:   # create, train, score
        conn.execute(op.text)
    # Two SHAPE sources per statement, each an insertion-ordered scan.
    assert verdicts == [True] * 4

    compared = []
    monkeypatch.setattr(engine, "gt",
                        lambda a, b: compared.append((a, b)) or a > b)
    scan_top = dict((kind, text) for kind, text, _ in statements.SCAN_SHAPES)[
        "scan_top"]
    ages = conn.execute("SELECT Age FROM Customers").column_values("Age")
    first_ascent = next(i for i in range(len(ages) - 1)
                        if not ages[i] > ages[i + 1])
    del verdicts[:]
    top = conn.execute(scan_top)
    assert verdicts == [False]
    assert len(compared) == first_ascent + 1 <= 3
    ranked = sorted(conn.execute(
        "SELECT [Customer ID], Age FROM Customers").rows,
        key=lambda row: (-row[1], row[0]))
    assert top.rows == ranked[:50]


def test_grouped_order_by_and_top_go_through_the_check(conn, verdicts):
    conn.execute("CREATE TABLE T (g LONG, v LONG)")
    conn.execute("INSERT INTO T VALUES (1, 10), (1, 20), (2, 5), (3, 7), "
                 "(3, 1)")
    grouped = "SELECT g, SUM(v) AS total FROM T GROUP BY g ORDER BY "
    assert conn.execute(grouped + "T.g").rows == [(1, 30), (2, 5), (3, 8)]
    assert conn.execute(grouped + "g DESC").rows == [(3, 8), (2, 5), (1, 30)]
    assert conn.execute(grouped + "SUM(v) DESC, g").rows == \
        [(1, 30), (3, 8), (2, 5)]
    assert conn.execute("SELECT TOP 2 g, v FROM T ORDER BY g, v DESC").rows \
        == [(1, 20), (1, 10)]
    assert conn.execute("SELECT TOP 3 g, v FROM T ORDER BY g").rows == \
        [(1, 10), (1, 20), (2, 5)]
    # Groups come out in first-seen order: by g ascending already.
    assert verdicts == [True, False, False, False, True]


def test_a_prediction_joins_order_by_goes_through_the_check(conn, verdicts):
    conn.execute("CREATE TABLE T (Id LONG, G TEXT, L TEXT)")
    conn.execute("INSERT INTO T VALUES (1, 'a', 'x'), (2, 'b', 'y'), "
                 "(3, 'a', 'x'), (4, 'b', 'y')")
    conn.execute("CREATE MINING MODEL M (Id LONG KEY, G TEXT DISCRETE, "
                 "L TEXT DISCRETE PREDICT) USING Repro_Naive_Bayes")
    conn.execute("INSERT INTO M SELECT Id, G, L FROM T")
    join = ("SELECT t.Id, M.L FROM M NATURAL PREDICTION JOIN "
            "(SELECT Id, G FROM T) AS t ORDER BY ")
    assert conn.execute(join + "t.Id").rows == \
        [(1, "x"), (2, "y"), (3, "x"), (4, "y")]
    assert conn.execute(join + "L DESC, t.Id").rows == \
        [(2, "y"), (4, "y"), (1, "x"), (3, "x")]
    assert verdicts == [True, False]
