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
view's dicts (key order, types and ``-0.0`` included), and the
``CaseMatrix``.  The budget comes from the hypothesis profile (25 in
tier-1, 2,000 under ``--hypothesis-profile=deep``).
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.attributes import AttributeSpace, CaseMatrix
from repro.core.bindings import case_binder, pair_binder
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

    # Every case, bound column-wise then viewed, vs bound row by row.
    stream, expected_stream = new(batch_size), old(batch_size)
    bind, mapper = binders(mode, stream)
    bound = outcome(lambda: [bind(batch) for batch in stream.batches()])
    expected = outcome(lambda: [mapper(row) for row in expected_stream])
    assert bound[0] == expected[0]
    if bound[0] == "raised":
        assert bound == expected
        return
    batches, expected = bound[1], expected[1]
    views = [case for batch in batches for case in batch]
    assert [case_dump(case) for case in views] == \
        [case_dump(case) for case in expected]

    # The matrix, from the batches' columns vs case by case.
    if not expected:
        return
    space = AttributeSpace(DEFINITION)
    space.fit_schema(expected)
    width = len(space.attributes)
    reference_matrix = CaseMatrix.of([space.encode(case) for case in expected],
                                     width)
    fresh = [case for batch in bind_all(mode, new, batch_size)
             for case in batch]
    assert_same_matrix(space.encode_many(fresh).matrix, reference_matrix)
    start = 0
    for batch in batches:
        part = expected[start:start + len(batch)]
        assert_same_matrix(space.encode_many(batch).matrix, CaseMatrix.of(
            [space.encode(case) for case in part], width))
        start += len(batch)


def bind_all(mode, opened, batch_size):
    """Batches bound afresh: views nobody has read a dict of yet."""
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
