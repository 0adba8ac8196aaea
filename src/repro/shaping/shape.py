"""SHAPE execution: turn SHAPE/APPEND/RELATE trees into nested rowsets.

Semantics follow the MDAC Data Shaping Service the paper relies on:

* the master query produces one output row per case;
* each APPEND arm adds one TABLE-typed column, whose cell for a master row
  holds the child rows whose ``relate_child`` value equals the master row's
  ``relate_master`` value;
* arms and SHAPEs nest arbitrarily.

Shaping is *logical* (paper, section 3.1): storage stays flat; nesting is
materialised only here, on the way into training or prediction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.errors import BindError
from repro.lang import ast_nodes as ast
from repro.sqlstore.rowset import Rowset, RowsetColumn, RowStream
from repro.sqlstore.values import group_key


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

    The master streams; every APPEND child materializes up front into
    RELATE-key buckets.  Master and children are themselves planned
    SELECTs (or nested SHAPEs), so nothing below is decided again at run.
    """
    from repro.obs.explain import PlanNode

    def plan_source(source: Union[ast.SelectStatement, ast.ShapeExpr]):
        if isinstance(source, ast.ShapeExpr):
            return plan_shape(source, database)
        return database.plan_select(source)

    node = PlanNode("shape",
                    strategy=f"master streamed, {len(shape.appends)} "
                             f"append(s) materialized")
    master = node.add(plan_source(shape.master))
    master.target = master.target or "master"
    for append in shape.appends:
        child = node.add(plan_source(append.child))
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


def _open_shape(shape: ast.ShapeExpr, sources, batch_size: int) -> RowStream:
    """Open a planned SHAPE over its planned master and APPEND children.

    Child (APPEND) queries must run to completion up front — every child row
    is hashed into per-RELATE-key buckets — but the *master* side streams:
    nested rowsets are attached batch by batch, so a consumer that processes
    cases incrementally (training, PREDICTION JOIN) never holds the whole
    shaped caseset.  Bucket lists are shared between the hash table and the
    emitted nested rowsets (:meth:`Rowset.over`: two master rows with one
    RELATE key read the same list, and every cell of an arm the arm's
    columns); per-case nested ``Rowset`` wrappers are the only per-row
    allocation and die with their batch.
    """
    master = sources[0].run(batch_size)
    columns = list(master.columns)
    plans = []  # (master_index, buckets, the arm's empty cell)

    for append, source in zip(shape.appends, sources[1:]):
        child = source.run(batch_size).materialize()
        child_index = _require_column(child.columns, append.relate_child,
                                      "RELATE child")
        master_index = _require_column(columns, append.relate_master,
                                       "RELATE master")
        buckets: Dict[object, List[tuple]] = {}
        for child_row in child.rows:
            buckets.setdefault(
                group_key(child_row[child_index]), []).append(child_row)
        empty = Rowset(child.columns)
        plans.append((master_index, buckets, empty))
        columns.append(
            RowsetColumn(append.alias, nested_columns=empty.columns))

    def produce():
        for batch in master.batches():
            out = []
            for row in batch:
                shaped = list(row)
                for master_index, buckets, empty in plans:
                    key = group_key(shaped[master_index])
                    shaped.append(
                        Rowset.over(empty, buckets.get(key, empty.rows)))
                out.append(tuple(shaped))
            yield out
    return RowStream(columns, produce())


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
    flat_columns, plans = _flatten_plan(rowset.columns)
    flat_rows: List[tuple] = []
    for row in rowset.rows:
        flat_rows.extend(_flatten_row(row, plans))
    result = Rowset(flat_columns, flat_rows)
    if any(c.nested_columns is not None for c in flat_columns):
        return flatten_rowset(result)  # handle nested-within-nested
    return result


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
