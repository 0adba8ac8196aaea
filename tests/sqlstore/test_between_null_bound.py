"""Regression: ``x [NOT] BETWEEN low AND high`` with a NULL bound.

BETWEEN means ``x >= low AND x <= high``.  Under three-valued logic a FALSE
side makes that conjunction FALSE whatever the other side is, so ``-3 NOT
BETWEEN -2 AND NULL`` is TRUE: ``-3 >= -2`` is already FALSE.  ``_between``
and the literal-bound kernel answered NULL whenever either side was NULL,
which lost the row — and disagreed with ``NOT (a BETWEEN …)`` spelled out
as the conjunction.  Column bounds, literal ``NULL`` bounds (the kernel),
with and without an index on the operand, on both stores.
"""

import pytest

import repro

ROWS = "(-3, NULL), (0, NULL), (5, NULL), (7, 9)"

# (WHERE clause, the values of `a` it keeps)
CASES = [
    ("a NOT BETWEEN -2 AND n", [-3]),
    ("a NOT BETWEEN n AND 6", [7]),
    ("a BETWEEN n AND 10", []),
    ("a NOT BETWEEN 1 AND NULL", [-3, 0]),
    ("a NOT BETWEEN NULL AND 4", [5, 7]),
    ("NOT (a BETWEEN 1 AND NULL)", [-3, 0]),
    ("NOT (a >= 1 AND a <= NULL)", [-3, 0]),
    ("a BETWEEN 1 AND NULL", []),
    ("a BETWEEN NULL AND 6", []),
    ("a NOT BETWEEN 1 AND 6", [-3, 0, 7]),
]


@pytest.fixture(params=["memory", "paged", "indexed"])
def conn(request, tmp_path):
    kwargs = {} if request.param != "paged" else {
        "storage_path": str(tmp_path / "store"), "buffer_pages": 2,
        "storage_page_bytes": 64}
    connection = repro.connect(**kwargs)
    connection.execute("CREATE TABLE U (a LONG, n LONG)")
    connection.execute(f"INSERT INTO U VALUES {ROWS}")
    if request.param == "indexed":
        connection.execute("CREATE INDEX ix_a ON U (a)")
    yield connection
    connection.close()


@pytest.mark.parametrize("where, expected", CASES,
                         ids=[where for where, _ in CASES])
def test_not_between_with_a_null_bound(conn, where, expected):
    rows = conn.execute(f"SELECT a FROM U WHERE {where}").rows
    assert sorted(value for value, in rows) == expected
