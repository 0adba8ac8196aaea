"""Optimizer-statistics invariants over random mutation histories.

The cost model trusts incrementally maintained statistics (note_inserts /
note_deletes, once per Table mutation) to be *exactly* what a wholesale
rebuild from the stored rows would derive — row counts, NDVs, null counts,
min/max, and the equi-depth histograms.  Any drift would mean UPDATE
STATISTICS changes plans, which the differential suite forbids.  The
estimator helpers are additionally pinned to their documented ranges so a
malformed estimate can never turn into a negative or exploding plan cost.
The PRIMARY KEY set and the indexes, maintained by what each mutation
changed, are held to a rebuild the same way.
"""

from contextlib import suppress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.errors import Error, TypeError_
from repro.sqlstore.indexes import TableIndex
from repro.sqlstore.schema import ColumnSchema, TableSchema
from repro.sqlstore.stats import (
    TableStatistics,
    estimate_group_rows,
    estimate_join_rows,
)
from repro.sqlstore.table import Table
from repro.sqlstore.types import DOUBLE, LONG, TEXT
from repro.sqlstore.values import group_keys


def _schema(keyed=False):
    return TableSchema("P", [ColumnSchema("id", LONG, primary_key=keyed),
                             ColumnSchema("name", TEXT),
                             ColumnSchema("score", DOUBLE)])


row_strategy = st.tuples(
    st.one_of(st.none(), st.integers(min_value=-50, max_value=50)),
    st.one_of(st.none(), st.sampled_from(["ann", "bob", "cy", "dee", "ed"])),
    st.one_of(st.none(), st.floats(min_value=-8, max_value=8,
                                   allow_nan=False)),
)

operation_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), row_strategy),
        st.tuples(st.just("delete"),
                  st.integers(min_value=-50, max_value=50)),
        st.tuples(st.just("update"),
                  st.integers(min_value=-50, max_value=50), row_strategy),
        # One stored row's id set to another stored row's: on a keyed
        # table, an UPDATE onto a taken key.
        st.tuples(st.just("rekey"), st.integers(min_value=0),
                  st.integers(min_value=0)),
        st.tuples(st.just("truncate")),
    ),
    max_size=40,
)


def _positions(table, predicate):
    """The positions of the rows ``predicate`` holds for, as a DELETE's or
    UPDATE's access path hands them to the table."""
    return [i for i, r in enumerate(table.rows) if predicate(r)]


def _apply(table, operations):
    """Run each operation; one that raises (a duplicate or NULL key) is
    skipped, as a failed statement is."""
    for operation in operations:
        with suppress(Error):
            if operation[0] == "insert":
                table.insert(operation[1])
            elif operation[0] == "delete":
                threshold = operation[1]
                table.delete_at(_positions(
                    table,
                    lambda row: row[0] is not None and row[0] < threshold))
            elif operation[0] == "update":
                threshold, replacement = operation[1], operation[2]
                table.update_at(_positions(
                    table,
                    lambda row: row[0] is not None and row[0] >= threshold),
                    lambda row: replacement)
            elif operation[0] == "rekey":
                rows = table.rows
                if len(rows) > 1:
                    moved = operation[1] % len(rows)
                    taken = rows[(moved + 1 + operation[2] % (len(rows) - 1))
                                 % len(rows)][0]
                    table.update_at([moved],
                                    lambda row: (taken,) + tuple(row[1:]))
            else:
                table.truncate()


@given(operation_strategy)
@settings(max_examples=80, deadline=None)
def test_incremental_stats_match_wholesale_rebuild(operations):
    table = Table(_schema(), with_stats=True)
    _apply(table, operations)
    rebuilt = TableStatistics(table.schema)
    rebuilt.rebuild(table.rows)
    assert table.stats.snapshot() == rebuilt.snapshot()


@given(operation_strategy)
@settings(deadline=None)
def test_keyed_indexed_histories_match_a_rebuild(operations):
    """With ``id`` the PRIMARY KEY and an index on every column: after any
    history — failed duplicate-key and NULL-key statements included — the
    key set, every index and the statistics equal a rebuild from the
    stored rows.  The history starts on three stored keys, so a ``rekey``
    finds a taken key to move onto."""
    table = Table(_schema(keyed=True), with_stats=True)
    for column in ("id", "name", "score"):
        table.create_index(f"ix_{column}", column)
    _apply(table, [("insert", (key, None, None)) for key in (-40, 0, 40)]
           + operations)
    rows = table.rows
    keys = group_keys([row[0] for row in rows])
    assert table._pk_keys == set(keys) and len(keys) == len(set(keys))
    for index in table.indexes.values():
        rebuilt = TableIndex(index.name, index.column_name,
                             index.column_index, index.type_name)
        rebuilt.rebuild(rows)
        assert (index.hash, index._ordered) == \
            (rebuilt.hash, rebuilt._ordered)
    stats = TableStatistics(table.schema)
    stats.rebuild(rows)
    assert table.stats.snapshot() == stats.snapshot()


@given(operation_strategy, operation_strategy)
@settings(max_examples=40, deadline=None)
def test_stale_statistics_recover_then_stay_incremental(first, second):
    """A reopen-style staleness mark (lazy rebuild) must leave statistics
    on the same trajectory as never having gone stale."""
    table = Table(_schema(), with_stats=True)
    _apply(table, first)
    table.mark_statistics_stale()
    _apply(table, second)
    rebuilt = TableStatistics(table.schema)
    rebuilt.rebuild(table.rows)
    assert table.statistics().snapshot() == rebuilt.snapshot()


#: Statements as the engine issues them: multi-row INSERTs, and INSERTs
#: and UPDATEs that fail part-way — at a row that does not coerce, or a SET
#: that raises — and must leave no trace.  (A DELETE whose WHERE fails
#: part-way is a statement: see the test after this one.)
statement_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.lists(row_strategy, max_size=6)),
        st.tuples(st.just("bad insert"), st.lists(row_strategy, max_size=4),
                  st.integers(min_value=0, max_value=4)),
        st.tuples(st.just("delete"),
                  st.integers(min_value=-50, max_value=50)),
        st.tuples(st.just("update"),
                  st.integers(min_value=-50, max_value=50), row_strategy),
        st.tuples(st.just("bad update"),
                  st.integers(min_value=0, max_value=8), row_strategy),
    ),
    max_size=30,
)


def _fails_at(count):
    """A per-row callable that raises on its ``count``-th call."""
    calls = [0]

    def check(row):
        calls[0] += 1
        if calls[0] > count:
            raise ValueError("statement fails part-way")
        return True
    return check


def _run_statement(table, statement):
    kind = statement[0]
    if kind == "insert":
        table.insert_many(statement[1])
    elif kind == "bad insert":
        rows, at = list(statement[1]), statement[2]
        rows.insert(min(at, len(rows)), ("zz", None, None))
        table.insert_many(rows)
    elif kind in ("delete", "update"):
        _apply(table, [statement])
    else:
        fails, replacement = _fails_at(statement[1]), statement[2]
        table.update_at(_positions(table, lambda row: True),
                        lambda row: fails(row) and replacement)


@given(statement_strategy)
@settings(deadline=None)
def test_statement_histories_keep_stats_exact(statements):
    """Multi-row and failing statements: after each one the statistics
    equal a rebuild from the stored rows, and a failing one changed
    neither the rows nor the statistics."""
    table = Table(_schema(), with_stats=True)
    for statement in statements:
        before = (table.rows, table.stats.snapshot())
        try:
            _run_statement(table, statement)
        except (ValueError, TypeError_):
            assert (table.rows, table.stats.snapshot()) == before
        rebuilt = TableStatistics(table.schema)
        rebuilt.rebuild(table.rows)
        assert table.stats.snapshot() == rebuilt.snapshot()


@given(st.lists(st.one_of(st.none(), st.floats(min_value=0, max_value=8)),
                min_size=1, max_size=20),
       st.integers(min_value=0, max_value=20))
@settings(deadline=None)
def test_a_delete_whose_where_fails_part_way_changes_nothing(scores, at):
    """``DELETE … WHERE SQRT(score) > 1`` meets a negative score late in
    the table: the statement fails, and neither the rows nor the
    statistics moved."""
    conn = repro.connect()
    conn.execute("CREATE TABLE P (id LONG, name TEXT, score DOUBLE)")
    scores.insert(min(at, len(scores)), -1.0)
    table = conn.database.table("P")
    table.insert_many((i, None, score) for i, score in enumerate(scores))
    before = (table.rows, table.stats.snapshot())
    with pytest.raises(Error):
        conn.execute("DELETE FROM P WHERE SQRT(score) > 1")
    assert (table.rows, table.stats.snapshot()) == before
    conn.close()


@given(st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=0, max_value=10**6),
       st.one_of(st.none(), st.lists(
           st.integers(min_value=1, max_value=1000), max_size=3)),
       st.sampled_from(["INNER", "LEFT", "CROSS"]))
@settings(max_examples=120, deadline=None)
def test_join_estimates_stay_in_bounds(left, right, ndvs, kind):
    equi = ndvs is not None
    estimate = estimate_join_rows(kind, left, right, equi, ndvs or [])
    assert 0 <= estimate <= max(left * right, left, right)
    if kind == "LEFT":
        assert estimate >= left or left * right < left
    if kind == "CROSS":
        assert estimate == left * right


@given(st.integers(min_value=0, max_value=10**6),
       st.lists(st.one_of(st.none(),
                          st.integers(min_value=1, max_value=100)),
                max_size=4))
@settings(max_examples=120, deadline=None)
def test_group_estimates_never_exceed_input(rows, ndvs):
    estimate = estimate_group_rows(rows, ndvs)
    assert 0 <= estimate <= max(rows, 1)
