"""Differential harness: a PREDICTION JOIN's DISTINCT, ORDER BY and TOP
against the plain SELECT of the same items over a table holding the join's
rows.

The paper models prediction as a join (section 3.3), so once the join has
made its rows, the clauses after it mean what they mean in SQL: the
PREDICTION JOIN ends in the relational engine's result tail.  The claim is
that ``SELECT [DISTINCT] [TOP n] <items> FROM M PREDICTION JOIN ... ORDER BY
<keys>`` is exactly — column names, types and rows, under ``rowset_dump`` —
the same SELECT over ``J``, a table the join's rows were inserted into.
Items are drawn from the source's columns and the predicted one, repeats
allowed; ORDER BY keys from all of them (output columns or not), ASC or
DESC, over columns with NULLs and ties.  The hypothesis budget comes from
the profile (25 in tier-1, 2,000 under ``--hypothesis-profile=deep``).
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.server.protocol import rowset_dump

MODEL = ("CREATE MINING MODEL [AgeM] ([Id] LONG KEY, [Gender] TEXT DISCRETE, "
         "[City] TEXT DISCRETE, [Age] DOUBLE DISCRETIZED(EQUAL_RANGE, 3) "
         "PREDICT) USING Repro_Decision_Trees(MINIMUM_SUPPORT = 2)")
JOIN = ("FROM [AgeM] NATURAL PREDICTION JOIN "
        "(SELECT Id, Gender, City, Score FROM T) AS t")

# (spelling in the PREDICTION JOIN, name — its spelling over J)
COLUMNS = [("t.Id", "Id"), ("t.Gender", "Gender"), ("t.City", "City"),
           ("t.Score", "Score"), ("[AgeM].[Age]", "Age")]


@pytest.fixture(scope="module")
def joined():
    conn = repro.connect()
    conn.execute("CREATE TABLE T (Id LONG, Gender TEXT, City TEXT, "
                 "Age DOUBLE, Score DOUBLE)")
    rows = []
    for i in range(1, 41):
        gender = "NULL" if i % 11 == 0 else \
            ("'Male'" if i % 2 else "'Female'")
        city = "'Metropolis'" if i % 3 else "'Smallville'"
        score = "NULL" if i % 7 == 0 else str(float(i % 4))
        rows.append(f"({i}, {gender}, {city}, {25 + 30 * (i % 2)}, {score})")
    conn.execute("INSERT INTO T VALUES " + ", ".join(rows))
    conn.execute(MODEL)
    conn.execute("INSERT INTO [AgeM] SELECT Id, Gender, City, Age FROM T")
    conn.execute("CREATE TABLE J (Id LONG, Gender TEXT, City TEXT, "
                 "Score DOUBLE, Age TEXT)")
    spelled = ", ".join(spelling for spelling, _ in COLUMNS)
    conn.database.table("J").insert_many(
        conn.execute(f"SELECT {spelled} {JOIN}").rows)
    yield conn
    conn.close()


def statements(items, distinct, top, keys):
    """The PREDICTION JOIN and the SELECT over J of one draw: an output
    key is spelled by its name in both, any other by its column."""
    names = [COLUMNS[item][1] for item in items]
    head = "SELECT " + ("DISTINCT " if distinct else "") + \
        (f"TOP {top} " if top is not None else "")
    prediction = head + ", ".join(COLUMNS[item][0] for item in items) + \
        " " + JOIN
    plain = head + ", ".join(names) + " FROM J"
    if keys:
        prediction += " ORDER BY " + ", ".join(
            (COLUMNS[key][1] if COLUMNS[key][1] in names else COLUMNS[key][0])
            + ("" if ascending else " DESC") for key, ascending in keys)
        plain += " ORDER BY " + ", ".join(
            COLUMNS[key][1] + ("" if ascending else " DESC")
            for key, ascending in keys)
    return prediction, plain


column = st.integers(0, len(COLUMNS) - 1)


@settings(deadline=None)
@given(items=st.lists(column, min_size=1, max_size=4),
       distinct=st.booleans(),
       top=st.none() | st.integers(0, 45),
       keys=st.lists(st.tuples(column, st.booleans()), max_size=3))
def test_the_tail_of_a_prediction_join_is_the_plain_selects(
        joined, items, distinct, top, keys):
    prediction, plain = statements(items, distinct, top, keys)
    assert rowset_dump(joined.execute(prediction)) == \
        rowset_dump(joined.execute(plain)), prediction


@pytest.mark.parametrize("items, distinct, top, keys", [
    ([1, 4], True, None, [(1, True)]),              # NULL gender sorts first
    ([1, 4], True, 3, [(4, False), (1, False)]),
    ([2], False, 5, [(3, False), (0, True)]),       # key not an output, ties
    ([3, 3], True, None, [(3, True)]),              # NULL scores, repeats
    ([1], True, None, [(0, False)]),                # DISTINCT, then a key
    ([4], False, 0, [(3, True)]),                   # ... no row kept
    ([0, 4], False, 7, []),                          # streamed TOP
])
def test_fixed_tails(joined, items, distinct, top, keys):
    prediction, plain = statements(items, distinct, top, keys)
    result = joined.execute(prediction)
    assert rowset_dump(result) == rowset_dump(joined.execute(plain))
    if top is not None:
        assert len(result) <= top


def test_hidden_keys_run_over_the_rows_distinct_keeps(joined):
    """DISTINCT comes before a hidden ORDER BY key: only a duplicate
    ``Gender`` row has ``b = -1``, so ``SQRT(t.b)`` never meets it — as in
    the plain SELECT, where the key is evaluated over the kept rows."""
    joined.execute("CREATE TABLE K (Id LONG, Gender TEXT, b DOUBLE)")
    try:
        joined.execute("INSERT INTO K VALUES (1, 'Male', 4.0), "
                       "(2, 'Female', 1.0), (3, 'Male', -1.0)")
        prediction = ("SELECT DISTINCT t.Gender FROM [AgeM] NATURAL "
                      "PREDICTION JOIN (SELECT Id, Gender, b FROM K) AS t "
                      "ORDER BY SQRT(t.b)")
        plain = "SELECT DISTINCT Gender FROM K ORDER BY SQRT(b)"
        result = joined.execute(prediction)
        assert rowset_dump(result) == rowset_dump(joined.execute(plain))
        assert result.rows == [("Female",), ("Male",)]
    finally:
        joined.execute("DROP TABLE K")
