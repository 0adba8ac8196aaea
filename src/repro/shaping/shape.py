"""SHAPE execution: turn SHAPE/APPEND/RELATE trees into nested rowsets.

Semantics follow the MDAC Data Shaping Service the paper relies on:

* the master query produces one output row per case;
* each APPEND arm adds one TABLE-typed column, whose cell for a master row
  holds the child rows whose ``relate_child`` value equals the master row's
  ``relate_master`` value;
* arms and SHAPEs nest arbitrarily.

Shaping is *logical* (paper, section 3.1): storage stays flat; nesting is
materialised only here, on the way into training or prediction — and even
here only as offsets: a :class:`ShapedBatch` holds master rows and, per
arm, spans of one grouped child-row list, the way OLE DB's hierarchical
rowsets hand out child rows by chapter.  Nested :class:`Rowset` cells are
built only for a consumer that asks for row tuples.
"""

from __future__ import annotations

from itertools import chain, compress, count, starmap
from operator import itemgetter, ne, sub
from typing import List, Optional, Tuple, Union

from repro.errors import BindError
from repro.lang import ast_nodes as ast
from repro.sqlstore.rowset import Rowset, RowsetColumn, RowStream, cut
from repro.sqlstore.values import group_keys


def execute_shape(shape: ast.ShapeExpr, database) -> Rowset:
    """Evaluate a SHAPE expression against ``database`` (a Database)."""
    return execute_shape_stream(shape, database).materialize()


def execute_shape_stream(shape: ast.ShapeExpr, database,
                         batch_size: Optional[int] = None) -> RowStream:
    """Evaluate a SHAPE expression as a stream of nested-case batches:
    plan it, then open the plan."""
    return plan_shape(shape, database).run(batch_size or database.batch_size)


def plan_shape(shape: ast.ShapeExpr, database):
    """Plan a SHAPE expression: the node EXPLAIN renders, whose
    ``run(batch_size)`` opens the shaped :class:`RowStream`.

    The master streams; every APPEND child materializes up front, grouped
    by RELATE key.  Master and children are themselves planned
    SELECTs (or nested SHAPEs), so nothing below is decided again at run.
    A child SELECT ordered by its RELATE column alone, under no TOP, is
    planned without the sort (``Database.prepare``'s ``relate``).
    """
    from repro.obs.explain import PlanNode

    def plan_source(source: Union[ast.SelectStatement, ast.ShapeExpr],
                    relate: Optional[str] = None):
        if isinstance(source, ast.ShapeExpr):
            return plan_shape(source, database)
        return database.bind(database.prepare(source, relate))

    node = PlanNode("shape",
                    strategy=f"master streamed, {len(shape.appends)} "
                             f"append(s) materialized")
    master = node.add(plan_source(shape.master))
    master.target = master.target or "master"
    for append in shape.appends:
        child = node.add(plan_source(append.child, append.relate_child))
        child.operator = f"append [{append.alias}]"
        child.strategy = (f"{child.strategy}; bucketed on "
                          f"{append.relate_child}")

    def estimate(node):
        node.est_rows = master.est_rows
        node.cost = (master.cost or 0.0) + sum(
            (child.cost or 0.0) + float(child.est_rows or 0)
            for child in node.children[1:])
    node.estimator = estimate
    node.open = lambda node, batch_size: _open_shape(shape, node.children,
                                                     batch_size)
    return node


class ShapedArm:
    """One APPEND arm, grouped once per statement: the rows its child's
    scan produced with every RELATE-key group contiguous (first-seen group
    order, row order within a group), each group's ``(start, end)`` by
    :func:`group_key`, the ``positions`` of the child's columns in those
    rows (None when the rows are the columns), and the arm's empty
    cell, whose columns every nested cell shares."""

    __slots__ = ("schema", "rows", "positions", "spans")

    def __init__(self, child: RowStream, relate_index: int):
        self.schema = Rowset(child.columns)
        batches, self.positions = child.scan()
        if self.positions is not None:
            relate_index = self.positions[relate_index]
        rows = list(chain.from_iterable(batches))
        self.rows, self.spans = _grouped(rows, group_keys(list(map(
            itemgetter(relate_index), rows))))

    def spans_of(self, values: list) -> List[Tuple[int, int]]:
        """The span of the children of each RELATE-master value; (0, 0)
        where no child row relates to it."""
        return list(map(self.spans.get, group_keys(values),
                        [(0, 0)] * len(values)))


def _grouped(rows: list, keys: list):
    """``(rows, spans)``: ``rows`` with equal keys contiguous and each
    key's span.  Child rows that already arrive in key order are found so
    in one pass and kept as they are; otherwise they are regrouped by a
    stable sort on each key's first appearance."""
    starts = [0, *compress(count(1), map(ne, keys, keys[1:]))] \
        if keys else []
    firsts = list(map(keys.__getitem__, starts))
    if len(set(firsts)) < len(firsts):      # a key recurs: not in key order
        rank = dict(zip(dict.fromkeys(keys), count()))
        order = sorted(range(len(keys)),
                       key=list(map(rank.__getitem__, keys)).__getitem__)
        return _grouped(list(map(rows.__getitem__, order)),
                        list(map(keys.__getitem__, order)))
    return rows, dict(zip(firsts, zip(starts, starts[1:] + [len(rows)])))


class ShapedBatch:
    """One batch of a SHAPE's cases, as offsets: the master rows (``width``
    columns each) and, per APPEND arm, the :class:`ShapedArm` and every
    master row's span of its grouped child rows.

    As a sequence it is the shaped row tuples — the master row followed by
    one nested :class:`Rowset` per arm, what :func:`execute_shape` returns
    — built each time they are asked for (wire encoding, FLATTENED, a
    projection of a nested column) and never kept, so a cached batch holds
    offsets only.  Within one build, master rows with one RELATE key share
    one child-row list (:meth:`Rowset.over`).  Binding reads the offsets
    (:meth:`children`) and builds no cell; a pickled batch travels as the
    row tuples.
    """

    __slots__ = ("master", "width", "arms")

    def __init__(self, master: list, width: int,
                 arms: List[Tuple[ShapedArm, list]]):
        self.master, self.width, self.arms = master, width, arms

    def __len__(self) -> int:
        return len(self.master)

    @staticmethod
    def _cells(arm: ShapedArm, spans) -> list:
        lists = {span: arm.rows[span[0]:span[1]] for span in set(spans)}
        if arm.positions is not None:  # the cells' own tuples, cut once
            lists = dict(zip(lists, map(cut(arm.positions), lists.values())))
        return [Rowset.over(arm.schema, lists[span]) for span in spans]

    def rows(self) -> List[tuple]:
        """The shaped row tuples, built afresh."""
        cells = [self._cells(arm, spans) for arm, spans in self.arms]
        return list(map(tuple.__add__, self.master, zip(*cells))) \
            if cells else list(self.master)

    def __iter__(self):
        return iter(self.rows())

    def __getitem__(self, index):
        return self.rows()[index]

    def __reduce__(self):
        return list, (self.rows(),)

    def children(self, index: int):
        """``(rows, counts, positions)`` of nested column ``index``: the
        child rows of every case concatenated in case order — one slice of
        the arm's rows when the non-empty spans stand end to end — how many
        each case has, and where the nested columns stand in those rows."""
        arm, spans = self.arms[index - self.width]
        bounds = list(chain.from_iterable(spans))
        counts = list(map(sub, bounds[1::2], bounds[::2]))
        bounds = list(chain.from_iterable(compress(spans, counts))) or [0, 0]
        if bounds[2::2] == bounds[1:-1:2]:
            return arm.rows[bounds[0]:bounds[-1]], counts, arm.positions
        return (list(map(arm.rows.__getitem__,
                         chain.from_iterable(starmap(range, spans)))),
                counts, arm.positions)


def _open_shape(shape: ast.ShapeExpr, sources, batch_size: int) -> RowStream:
    """Open a planned SHAPE over its planned master and APPEND children.

    Child (APPEND) queries must run to completion up front — each is
    grouped by RELATE key once (:class:`ShapedArm`) — but the *master* side
    streams: each master batch becomes a :class:`ShapedBatch` whose spans
    are looked up by key, so a consumer that processes cases incrementally
    (training, PREDICTION JOIN) never holds the whole shaped caseset, and
    no nested object is built unless a consumer asks for row tuples.
    """
    master = sources[0].run(batch_size)
    columns = list(master.columns)
    width = len(columns)
    arms = []  # (master_index, arm)

    for append, source in zip(shape.appends, sources[1:]):
        child = source.run(batch_size)
        child_index = _require_column(child.columns, append.relate_child,
                                      "RELATE child")
        master_index = _require_column(columns, append.relate_master,
                                       "RELATE master")
        arm = ShapedArm(child, child_index)
        arms.append((master_index, arm))
        columns.append(
            RowsetColumn(append.alias, nested_columns=arm.schema.columns))

    def shaped(batch: list) -> ShapedBatch:
        return ShapedBatch(batch, width, [
            (arm, arm.spans_of(list(map(itemgetter(index), batch))))
            for index, arm in arms])
    return RowStream(columns, map(shaped, master.batches()))


def _require_column(columns: List[RowsetColumn], name: str,
                    what: str) -> int:
    for index, column in enumerate(columns):
        if column.name.upper() == name.upper():
            return index
    raise BindError(
        f"{what} column {name!r} not found "
        f"(available: {', '.join(c.name for c in columns)})")


def _flatten_plan(columns: List[RowsetColumn]):
    """Output columns + per-row expansion plan for one flatten level."""
    flat_columns: List[RowsetColumn] = []
    plans = []  # (is_table, source_index, nested_width)
    for index, column in enumerate(columns):
        if column.nested_columns is not None:
            for nested in column.nested_columns:
                flat_columns.append(RowsetColumn(
                    f"{column.name}.{nested.name}", nested.type,
                    nested_columns=nested.nested_columns))
            plans.append((True, index, len(column.nested_columns)))
        else:
            flat_columns.append(RowsetColumn(column.name, column.type))
            plans.append((False, index, 1))
    return flat_columns, plans


def _flatten_row(row: tuple, plans) -> List[tuple]:
    """Cross-product expansion of one row's nested tables."""
    partials: List[List[object]] = [[]]
    for is_table, index, width in plans:
        if not is_table:
            partials = [p + [row[index]] for p in partials]
            continue
        nested = row[index]
        nested_rows = list(nested.rows) if isinstance(nested, Rowset) else []
        if not nested_rows:
            partials = [p + [None] * width for p in partials]
        else:
            partials = [p + list(nested_row)
                        for p in partials for nested_row in nested_rows]
    return [tuple(p) for p in partials]


def flatten_rowset(rowset: Rowset) -> Rowset:
    """Un-nest TABLE columns (the DMX SELECT FLATTENED transform).

    Each row is expanded into the cross product of its nested tables' rows;
    a case with an empty nested table keeps one output row with NULLs in
    that table's columns (so no case silently disappears).  Nested column
    names are prefixed with the table column's name to stay unambiguous.
    """
    return flatten_stream(RowStream.from_rowset(rowset)).materialize()


def flatten_stream(stream: RowStream) -> RowStream:
    """Streaming FLATTENED: expand each batch independently.

    Row expansion depends only on the row itself, so flattening pipelines
    cleanly; output batch sizes grow with the nested fan-out but stay
    proportional to the input batch.  The expansion plan comes from column
    metadata alone, applied recursively for nested-within-nested schemas.
    """
    flat_columns, plans = _flatten_plan(stream.columns)

    def produce():
        for batch in stream.batches():
            out: List[tuple] = []
            for row in batch:
                out.extend(_flatten_row(row, plans))
            if out:
                yield out
    result = RowStream(flat_columns, produce())
    if any(c.nested_columns is not None for c in flat_columns):
        return flatten_stream(result)
    return result
