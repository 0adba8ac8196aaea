"""A hash join matches exactly what its ON equality says, on every path.

The hash-join build — from the right side's scan or from a right-side
index's buckets — and its probe key both sides by ``values.join_keys``,
which puts a bool with its number as ``sql_equal`` does (``TRUE = 1``) and
a NaN, like a NULL, with nothing.  Each path joins a BOOLEAN column to a LONG and to a DOUBLE one, either way
round, and must return the rows of the same predicate written as a WHERE
over the cross product.
"""

import pytest

import repro

WHERE_TWIN = ("SELECT a.k, b.n FROM a CROSS JOIN b WHERE a.f = b.n "
              "ORDER BY a.k, b.n")


def _strategy(conn, statement):
    plan = conn.execute(f"EXPLAIN {statement}")
    names = [column.name for column in plan.columns]
    rows = [dict(zip(names, row)) for row in plan.rows]
    return next(row["STRATEGY"] for row in rows if row["OPERATOR"] == "join")


@pytest.mark.parametrize("number_type, one, zero", [
    ("LONG", "1", "0"), ("DOUBLE", "1.0", "-0.0")])
@pytest.mark.parametrize("path, strategy", [
    ("scan", "hash join (right side build)"),
    ("index", "hash join (right side index ix_b)"),
])
def test_a_boolean_key_joins_its_number(path, strategy, number_type, one,
                                        zero):
    conn = repro.connect()
    try:
        conn.execute("CREATE TABLE a (k LONG, f BOOLEAN)")
        conn.execute(f"CREATE TABLE b (n {number_type})")
        conn.execute("INSERT INTO a VALUES (1, TRUE), (2, FALSE), (3, NULL)")
        conn.execute(f"INSERT INTO b VALUES ({one}), ({zero}), (NULL), (7), "
                     f"(8), (9), ({one})")
        if path == "index":
            conn.execute("CREATE INDEX ix_b ON b (n)")
        inner = "SELECT a.k, b.n FROM a INNER JOIN b ON a.f = b.n"
        assert _strategy(conn, inner) == strategy
        expected = conn.execute(WHERE_TWIN).rows
        assert len(expected) == 3
        assert sorted(conn.execute(inner).rows) == expected
        outer = conn.execute(
            "SELECT a.k, b.n FROM a LEFT JOIN b ON a.f = b.n").rows
        assert sorted(outer, key=repr) == sorted(
            expected + [(3, None)], key=repr)
    finally:
        conn.close()


@pytest.mark.parametrize("path, strategy", [
    ("scan", "hash join (right side build)"),
    ("index", "hash join (right side index ix_b)"),
])
def test_a_number_key_probes_a_boolean_index(path, strategy):
    """A BOOLEAN index keys its buckets ``("b", value)``; the probe's key
    for 1 and 0 is the float, which finds TRUE's and FALSE's rows."""
    conn = repro.connect(statistics=False)
    try:
        conn.execute("CREATE TABLE a (k LONG, f LONG)")
        conn.execute("CREATE TABLE b (n BOOLEAN)")
        conn.execute("INSERT INTO a VALUES (1, 1), (2, 0), (3, NULL), "
                     "(4, 2), (5, 1)")
        conn.execute("INSERT INTO b VALUES (TRUE), (FALSE), (NULL), (TRUE)")
        if path == "index":
            conn.execute("CREATE INDEX ix_b ON b (n)")
        inner = "SELECT a.k, b.n FROM a INNER JOIN b ON a.f = b.n"
        assert _strategy(conn, inner) == strategy
        expected = conn.execute(WHERE_TWIN).rows
        assert len(expected) == 5
        assert sorted(conn.execute(inner).rows) == expected
    finally:
        conn.close()


@pytest.mark.parametrize("path, strategy", [
    ("scan", "hash join (right side build)"),
    ("index", "hash join (right side index ix_b)"),
])
def test_a_nan_key_joins_nothing(path, strategy):
    """NaN = NaN is not True: a NaN key matches no row, its own included,
    as the nested loop over the same ON finds."""
    conn = repro.connect()
    try:
        conn.execute("CREATE TABLE a (k LONG, f DOUBLE)")
        conn.execute("CREATE TABLE b (n DOUBLE)")
        conn.execute("INSERT INTO a VALUES (1, 'NaN'), (2, 1.5), (3, NULL)")
        conn.execute("INSERT INTO b VALUES ('NaN'), (1.5), (NULL), (7), "
                     "(8), (9), ('NaN')")
        if path == "index":
            conn.execute("CREATE INDEX ix_b ON b (n)")
        inner = "SELECT a.k, b.n FROM a INNER JOIN b ON a.f = b.n"
        assert _strategy(conn, inner) == strategy
        nested = inner + " OR 1 = 0"
        assert "nested loop" in _strategy(conn, nested)
        assert conn.execute(inner).rows == conn.execute(nested).rows \
            == [(2, 1.5)]
        assert conn.execute(
            "SELECT x.n FROM b AS x INNER JOIN b AS y ON x.n = y.n").rows \
            == [(1.5,), (7.0,), (8.0,), (9.0,)]
    finally:
        conn.close()
