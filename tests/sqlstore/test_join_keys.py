"""A hash join matches exactly what its ON equality says, on every path.

The hash-join build — from the right side's scan, from a right-side
index's buckets, or (cost-chosen) from the left side — and its probe key
both sides by ``values.join_keys``, which puts a bool with its number as
``sql_equal`` does (``TRUE = 1``).  Each path joins a BOOLEAN column to a
LONG and to a DOUBLE one and must return the rows of the same predicate
written as a WHERE over the cross product.
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
    ("left", "hash join (left side build)"),
])
def test_a_boolean_key_joins_its_number(path, strategy, number_type, one,
                                        zero):
    conn = repro.connect(statistics=path != "scan")
    try:
        conn.execute("CREATE TABLE a (k LONG, f BOOLEAN)")
        conn.execute(f"CREATE TABLE b (n {number_type})")
        conn.execute("INSERT INTO a VALUES (1, TRUE), (2, FALSE), (3, NULL)")
        # A left build needs the left side estimated smaller.
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
