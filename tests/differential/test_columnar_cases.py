"""Differential harness: cases as columns vs the per-row path they replaced.

A SHAPE grouped into offsets (``shaping/shape._open_shape``), bound column
by column into a :class:`CaseBatch` and encoded from its columns must
equal the per-row path kept in ``tests/reference/reference_cases.py`` —
RELATE-key buckets with a nested ``Rowset`` per cell, one ``_map_row``
dict case per row, per-case ``AttributeSpace.encode`` — over generated
sources:

* RELATE keys mixing NULL, ``1`` / ``1.0`` / ``True`` and ``'1'``, master
  keys without children, child rows unordered and in key order, and
  duplicate nested items (the later row replaces the earlier one);
* ``PROBABILITY OF`` / ``SUPPORT OF`` qualifiers, scalar and nested;
* NATURAL, positional (with ``SKIP``) and ON-pair bindings, and a SHAPE
  nested inside an APPEND;
* batch sizes 1, 7 and the default.

Three things are equal: the ``rowset_dump`` of the shaped source, every
case's dicts read off a batch (key order, types and ``-0.0`` included),
and the ``CaseMatrix``.  The budget comes from the hypothesis profile (25 in
tier-1, 2,000 under ``--hypothesis-profile=deep``).
"""

from itertools import chain
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.algorithms.attributes import AttributeSpace, CaseMatrix
from repro.core.bindings import CaseBatch, case_binder, pair_binder
from repro.core.columns import compile_model_definition
from repro.errors import TypeError_
from repro.lang import ast_nodes as ast
from repro.lang.parser import parse_statement
from repro.server.protocol import rowset_dump
from repro.shaping import shape
from repro.sqlstore.rowset import (
    DEFAULT_BATCH_SIZE,
    Rowset,
    RowsetColumn,
    RowStream,
)
from repro.sqlstore.types import DOUBLE, LONG, TEXT
from repro.sqlstore.values import group_key

from tests.differential.test_scoring_tables import assert_same_matrix
from tests.reference import reference_cases as reference

DEFINITION = compile_model_definition(parse_statement("""
    CREATE MINING MODEL m (
        K TEXT KEY,
        G TEXT DISCRETE,
        W DOUBLE SUPPORT OF G,
        H TEXT DISCRETE,
        HP DOUBLE PROBABILITY OF H,
        X DOUBLE CONTINUOUS,
        B TABLE(P TEXT KEY, Q DOUBLE CONTINUOUS,
                QP DOUBLE PROBABILITY OF Q, QS DOUBLE SUPPORT OF Q)
    ) USING Repro_Decision_Trees
"""))

MASTER = [RowsetColumn("K", TEXT), RowsetColumn("G", TEXT),
          RowsetColumn("W", DOUBLE), RowsetColumn("H", TEXT),
          RowsetColumn("HP", DOUBLE), RowsetColumn("X", DOUBLE)]
CHILD = [RowsetColumn("CID", LONG), RowsetColumn("P", TEXT),
         RowsetColumn("Q", DOUBLE), RowsetColumn("QP", DOUBLE),
         RowsetColumn("QS", DOUBLE)]
CLICKS = [RowsetColumn("CID", LONG), RowsetColumn("N", LONG)]

keys = st.sampled_from([None, 1, 1.0, True, "1", 2, 2.0, "a", 3, 0.0, -0.0])
numbers = st.sampled_from([None, 0.0, -0.0, 1.5, 2, True, "3.5", 40.0])
shares = st.sampled_from([None, 0.25, 1.0, 2])
masters = st.lists(st.tuples(
    keys, st.sampled_from([None, "m", "f", "M"]), shares,
    st.sampled_from([None, "hi", "lo", 7]), shares, numbers), max_size=12)
children = st.lists(st.tuples(
    keys, st.sampled_from([None, "tv", "TV", "beer", 1, 1.0]), numbers,
    shares, shares), max_size=24)


class Source:
    """A planned source stand-in: ``run(batch_size)`` streams its rows, or
    opens a nested SHAPE of the same side."""

    def __init__(self, columns=None, rows=(), opened=None):
        self.columns, self.rows, self.opened = columns, list(rows), opened

    def run(self, batch_size):
        if self.opened is not None:
            return self.opened(batch_size)
        return RowStream.from_rowset(Rowset(self.columns, self.rows),
                                     batch_size)


def append(alias, master="K", child="CID"):
    return SimpleNamespace(alias=alias, relate_master=master,
                           relate_child=child)


def in_key_order(rows):
    """``rows`` stably regrouped so each RELATE key's rows are adjacent."""
    first = {}
    for row in rows:
        first.setdefault(group_key(row[0]), len(first))
    return sorted(rows, key=lambda row: first[group_key(row[0])])


def shaped(opener, master, child, clicks, nested_shape):
    """``opener``'s stream of master x child (each master row's ``B``), the
    ``B`` arm itself a SHAPE over ``clicks`` when ``nested_shape``."""
    arm = Source(CHILD, child)
    if nested_shape:
        inner = SimpleNamespace(appends=[append("C", "CID", "CID")])
        arm = Source(opened=lambda size: opener(
            inner, [Source(CHILD, child), Source(CLICKS, clicks)], size))
    outer = SimpleNamespace(appends=[append("B")])
    return lambda size: opener(outer, [Source(MASTER, master), arm], size)


BINDINGS = {
    "natural": None,
    "positional": [
        ast.BindingColumn("K"), ast.BindingColumn("G"),
        ast.BindingSkip(), ast.BindingColumn("H"),
        ast.BindingColumn("HP"), ast.BindingColumn("X"),
        ast.BindingTable("B", [ast.BindingColumn("P"), ast.BindingSkip(),
                               ast.BindingColumn("QS"),
                               ast.BindingColumn("Q")])],
    "on": [(("K",), ("K",)), (("W",), ("W",)), (("G",), ("G",)),
           (("X",), ("X",)), (("B", "P"), ("B", "P")),
           (("B", "Q"), ("B", "Q")), (("B", "QP"), ("B", "QP"))],
}


def binders(mode, source):
    """``(columnar binder, reference per-row mapper)`` for one mode, over
    ``source``'s columns."""
    if mode == "on":
        pairs = BINDINGS[mode]
        return (pair_binder(DEFINITION, source, pairs, "t"),
                reference.pair_mapper(DEFINITION, source, pairs, "t"))
    return (case_binder(DEFINITION, source, BINDINGS[mode]),
            reference.case_mapper(DEFINITION, source, BINDINGS[mode]))


def canonical(value):
    """A value with its type and spelling: ``-0.0`` is not ``0.0``, dict
    keys keep their order."""
    if isinstance(value, dict):
        return [(key, canonical(item)) for key, item in value.items()]
    if isinstance(value, list):
        return [canonical(item) for item in value]
    return type(value).__name__, repr(value)


def case_dump(case):
    return (canonical(case.scalars), canonical(case.tables),
            canonical(case.qualifiers), case.weight())


def outcome(thunk):
    try:
        return "ok", thunk()
    except TypeError_ as exc:
        return "raised", type(exc).__name__


@settings(deadline=None)
@given(master=masters, child=children,
       clicks=st.lists(st.tuples(keys, st.integers(0, 3)), max_size=6),
       ordered=st.booleans(), nested_shape=st.booleans(),
       mode=st.sampled_from(sorted(BINDINGS)),
       batch_size=st.sampled_from([1, 7, DEFAULT_BATCH_SIZE]))
def test_columnar_cases_equal_the_per_row_path(master, child, clicks, ordered,
                                               nested_shape, mode,
                                               batch_size):
    if ordered:
        child = in_key_order(child)
    new = shaped(shape._open_shape, master, child, clicks, nested_shape)
    old = shaped(reference._open_shape, master, child, clicks, nested_shape)

    # The shaped source, as row tuples with nested Rowset cells.
    assert rowset_dump(new(batch_size).materialize()) == \
        rowset_dump(old(batch_size).materialize())

    # Every case, bound column-wise then read, vs bound row by row.
    stream, expected_stream = new(batch_size), old(batch_size)
    bind, mapper = binders(mode, stream)
    bound = outcome(lambda: [bind(batch) for batch in stream.batches()])
    expected = outcome(lambda: [mapper(row) for row in expected_stream])
    assert bound[0] == expected[0]
    if bound[0] == "raised":
        assert bound == expected
        return
    batches, expected = bound[1], expected[1]
    cases = [case for batch in batches for case in batch]
    assert [case_dump(case) for case in cases] == \
        [case_dump(case) for case in expected]

    # The matrix, from the batches' columns vs case by case.
    if not expected:
        return
    space = AttributeSpace(DEFINITION)
    space.fit_schema(CaseBatch.of(expected))
    width = len(space.attributes)
    reference_matrix = CaseMatrix.of([space.encode(case) for case in expected],
                                     width)
    assert_same_matrix(space.encode_many(bind_all(mode, new, batch_size))
                       .matrix, reference_matrix)
    start = 0
    for batch in batches:
        part = expected[start:start + len(batch)]
        assert_same_matrix(space.encode_many(batch).matrix, CaseMatrix.of(
            [space.encode(case) for case in part], width))
        start += len(batch)


def bind_all(mode, opened, batch_size):
    """Batches bound afresh: no case of them read yet."""
    stream = opened(batch_size)
    bind, _ = binders(mode, stream)
    return [bind(batch) for batch in stream.batches()]


def test_relate_matching_is_group_key_matching():
    """The rule the docs state: NULL relates to NULL, numbers by value
    (``1`` = ``1.0``), a string never to a number, a bool only to a bool."""
    child = [(None, "n"), (1.0, "one"), ("1", "text"), (True, "yes"),
             (2, "two")]
    master = [(None,), (1,), ("1",), (True,), (3,)]
    arm = SimpleNamespace(appends=[append("C", "K", "CID")])
    rowset = shape._open_shape(arm, [
        Source([RowsetColumn("K", TEXT)], master),
        Source([RowsetColumn("CID", TEXT), RowsetColumn("V", TEXT)], child)],
        DEFAULT_BATCH_SIZE).materialize()
    assert [row[-1].rows for row in rowset.rows] == [
        [(None, "n")], [(1.0, "one")], [("1", "text")], [(True, "yes")], []]


@pytest.mark.parametrize("mode", sorted(BINDINGS))
def test_a_failed_coercion_fails_both_paths(mode):
    master = [("k1", "m", None, "hi", None, 1.5),
              ("k2", "f", None, "lo", None, "not a number")]
    new = shaped(shape._open_shape, master, [], [], False)(7)
    old = shaped(reference._open_shape, master, [], [], False)(7)
    bind, mapper = binders(mode, new)
    with pytest.raises(TypeError_):
        [bind(batch) for batch in new.batches()]
    with pytest.raises(TypeError_):
        [mapper(row) for row in old]


# -- SHAPE sources planned by the engine --------------------------------------
#
# ``plan_shape`` plans an APPEND child ordered by its RELATE column alone,
# under no TOP, without its sort, and its arm reads the rows the child's
# scan produced through the child's column positions; the reference opens
# the same SELECTs planned as written (every ORDER BY sorts) and buckets
# their output rows.  Over a memory store and a one-page paged pool.

SQL_DEFINITION = compile_model_definition(parse_statement("""
    CREATE MINING MODEL s (
        K LONG KEY, G TEXT DISCRETE,
        B TABLE(P TEXT KEY, Q DOUBLE CONTINUOUS)
    ) USING Repro_Decision_Trees
"""))
SQL_BINDINGS = {
    "natural": None,
    "positional": [ast.BindingColumn("K"), ast.BindingColumn("G"),
                   ast.BindingTable("B", [ast.BindingColumn("P"),
                                          ast.BindingColumn("Q")])],
}
SQL_SETUP = ("CREATE TABLE Mst (G TEXT, K LONG)",
             "CREATE TABLE Chi (P TEXT, Q DOUBLE, CID LONG, CF DOUBLE, "
             "CT TEXT)")

#: ``(child SELECT, whether it keeps its sort)``; ``{key}`` is the child
#: column related to the master's ``K``: a LONG, a DOUBLE or a TEXT one.
CHILDREN = [
    ("SELECT {key} AS CID, P, Q FROM Chi ORDER BY CID", False),
    ("SELECT {key} AS CID, P, Q FROM Chi ORDER BY CID DESC", False),
    ("SELECT Q, {key} AS CID, P FROM Chi ORDER BY CID, CID DESC", False),
    ("SELECT {key} AS CID, P, Q FROM Chi ORDER BY CID, P", True),
    ("SELECT {key} AS CID, P, Q FROM Chi ORDER BY Q", True),
    ("SELECT {key} AS CID, P, Q FROM Chi ORDER BY Chi.CID", True),
    ("SELECT TOP 5 {key} AS CID, P, Q FROM Chi ORDER BY CID", True),
    ("SELECT TOP 5 {key} AS CID, P, Q FROM Chi", False),
    ("SELECT DISTINCT {key} AS CID, P, Q FROM Chi ORDER BY CID", False),
    ("SELECT {key} AS CID, P, SUM(Q) AS Q FROM Chi GROUP BY {key}, P "
     "ORDER BY Chi.CID", False),
    ("SELECT {key} AS CID, P, Q FROM Chi", False),
    ("SELECT {key} AS CID, P, Q FROM Chi WHERE Q > 0 ORDER BY CID", False),
    ("SELECT {key} AS CID, P, Q * 2 AS Q FROM Chi ORDER BY CID DESC", False),
    ("SELECT * FROM Chi ORDER BY CID", False),
]


@pytest.fixture(scope="module")
def sql_stores(tmp_path_factory):
    conns = {"memory": repro.connect(),
             "paged": repro.connect(
                 storage_path=str(tmp_path_factory.mktemp("shape_arms")),
                 buffer_pages=1, storage_page_bytes=256)}
    for conn in conns.values():
        for statement in SQL_SETUP:
            conn.execute(statement)
    yield conns
    for conn in conns.values():
        conn.close()


def literal(value):
    return "NULL" if value is None else repr(value)


def fill(conn, table, rows):
    conn.execute(f"DELETE FROM {table}")
    if rows:
        conn.execute(f"INSERT INTO {table} VALUES " + ", ".join(
            "(" + ", ".join(map(literal, row)) + ")" for row in rows))


sql_masters = st.lists(st.tuples(st.sampled_from(["m", "f", None]),
                                 st.sampled_from([None, 0, 1, 2, 3])),
                       max_size=10)
sql_children = st.lists(st.tuples(
    st.sampled_from(["tv", "beer", None]),
    st.sampled_from([None, 1.5, -2.0, 0.0]),
    st.sampled_from([None, 0, 1, 2, 3]),
    st.sampled_from([None, 1.0, 2.0, -0.0, 0.0]),
    st.sampled_from([None, "1", "2", "a"])), max_size=20)


@settings(deadline=None)
@given(master=sql_masters, child=sql_children,
       ordered=st.booleans(), grouped_scan=st.booleans(),
       variant=st.sampled_from(range(len(CHILDREN))),
       key=st.sampled_from(["CID", "CF", "CT"]),
       store=st.sampled_from(["memory", "paged"]),
       mode=st.sampled_from(sorted(SQL_BINDINGS)),
       batch_size=st.sampled_from([1, 3, DEFAULT_BATCH_SIZE]))
def test_planned_shape_arms_equal_the_sorted_reference(
        sql_stores, master, child, ordered, grouped_scan, variant, key,
        store, mode, batch_size):
    conn = sql_stores[store]
    database = conn.database
    if grouped_scan:    # the child's scan already groups its CID keys
        child = sorted(child, key=lambda row: group_key(row[2]))
    fill(conn, "Mst", master)
    fill(conn, "Chi", child)
    text, keeps_sort = CHILDREN[variant]
    if text.startswith("SELECT *"):
        key = "CID"
    child_select = text.format(key=key)
    statement = parse_statement(
        f"SELECT * FROM (SHAPE {{SELECT K, G FROM Mst"
        f"{' ORDER BY K' if ordered else ''}}} APPEND ({{{child_select}}} "
        f"RELATE K TO CID) AS B) AS s")
    shaped_source = statement.from_clause.shape

    plan = shape.plan_shape(shaped_source, database)
    assert ("order by" in plan.children[1].strategy) == keeps_sort
    new = lambda size: plan.run(size)
    old = lambda size: reference._open_shape(shaped_source, [
        database.plan_select(shaped_source.master),
        database.plan_select(shaped_source.appends[0].child)], size)

    assert rowset_dump(new(batch_size).materialize()) == \
        rowset_dump(old(batch_size).materialize())
    stream, expected_stream = new(batch_size), old(batch_size)
    bind = case_binder(SQL_DEFINITION, stream, SQL_BINDINGS[mode])
    mapper = reference.case_mapper(SQL_DEFINITION, expected_stream,
                                   SQL_BINDINGS[mode])
    bound = outcome(lambda: [case_dump(case) for batch in stream.batches()
                             for case in bind(batch)])
    assert bound == outcome(lambda: [case_dump(mapper(row))
                                     for row in expected_stream])


def test_a_batch_of_contiguous_spans_hands_its_children_as_one_slice():
    """Master keys in the child's group order read one slice of the arm's
    rows (a key no child has reads nothing); a repeated master key reads
    its span again."""
    arm = SimpleNamespace(appends=[append("C", "K", "CID")])
    child = [(1, "a"), (1, "b"), (2, "c"), (3, "d")]
    for master, expected in (
            ([(1,), (5,), (2,), (3,)], list(range(4))),
            ([(1,), (2,), (1,)], [0, 1, 2, 0, 1])):
        stream = shape._open_shape(arm, [
            Source([RowsetColumn("K", LONG)], master),
            Source([RowsetColumn("CID", LONG), RowsetColumn("V", TEXT)],
                   child)], DEFAULT_BATCH_SIZE)
        batch, = stream.batches()
        rows, counts, positions = batch.children(1)
        assert rows == [child[at] for at in expected]
        assert counts == [len(row[1].rows) for row in batch]
        assert positions is None            # the rows are the columns
        assert batch[0][1].rows[0] is child[0]  # cells hold them, uncut


def test_only_a_shape_child_streams_its_source_rows_uncut():
    """A plain-column SELECT cuts its rows as it produces them; prepared
    as a SHAPE APPEND child it hands its source rows on with their
    positions, for the arm to read."""
    conn = repro.connect()
    conn.execute("CREATE TABLE T (a LONG, b TEXT, c DOUBLE)")
    conn.execute("INSERT INTO T VALUES (1, 'x', 0.5), (2, 'y', 1.5)")
    database = conn.database
    select = parse_statement("SELECT c, a FROM T")
    stream = database.plan_select(select).run(DEFAULT_BATCH_SIZE)
    assert stream.positions is None
    assert stream.materialize().rows == [(0.5, 1), (1.5, 2)]
    child = database.bind(database.prepare(select, "a"))
    batches, positions = child.run(DEFAULT_BATCH_SIZE).scan()
    assert positions == [2, 0]
    assert list(chain.from_iterable(batches)) == [(1, "x", 0.5),
                                                  (2, "y", 1.5)]
