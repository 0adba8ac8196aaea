"""The per-row caseset path: SHAPE into RELATE-key buckets with a nested
``Rowset`` per cell, then one ``MappedCase`` of dicts per source row.

Verbatim copies of ``_open_shape`` (``shaping/shape.py``) and of
``case_mapper``, ``map_rowset``, ``_compile_plan``, ``_map_row`` and
``pair_mapper`` (``core/bindings.py``) as they stood before shaping went to
offsets and binding to columns.  The plan builders (``_positional_plan``,
``_name_plan``, ``_resolve_source_scalar``) and ``_require_column`` are
shared with ``src/`` and imported from there.  Per-case
``AttributeSpace.encode`` still lives in ``src/`` (the singleton path).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import BindError
from repro.lang import ast_nodes as ast
from repro.core.bindings import (
    Binding,
    MappedCase,
    _name_plan,
    _positional_plan,
    _resolve_source_scalar,
)
from repro.core.columns import ContentRole, ModelDefinition
from repro.shaping.shape import _require_column
from repro.sqlstore.rowset import Rowset, RowsetColumn, RowStream
from repro.sqlstore.values import group_key


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


def map_rowset(definition: ModelDefinition, rowset: Rowset,
               bindings: Optional[Sequence[Binding]] = None) -> List[MappedCase]:
    """Map a source rowset to cases, positionally if bindings are given."""
    mapper = case_mapper(definition, rowset, bindings)
    return [mapper(row) for row in rowset.rows]


def case_mapper(definition: ModelDefinition, source,
                bindings: Optional[Sequence[Binding]] = None):
    """Compile a ``row -> MappedCase`` function for a source's columns.

    ``source`` is anything with rowset column metadata (a :class:`Rowset`
    or a :class:`~repro.sqlstore.rowset.RowStream`).  The returned mapper
    carries no reference to the source rows, so the streaming pipeline can
    apply it batch by batch and let each batch die.
    """
    if bindings:
        plan = _positional_plan(definition, bindings, source)
    else:
        plan = _name_plan(definition, source)
    scalars, tables = _compile_plan(plan)
    return lambda row: _map_row(row, scalars, tables)


def _compile_plan(plan):
    """Resolve a plan's model columns to what the per-row loop needs — the
    upper-cased key each value is stored under, its coercer (None: store
    as is) and, for a qualifier column, the qualifier kind — so mapping a
    row upper-cases no name and inspects no column."""
    def slot(source_index, column):
        if column.role is ContentRole.QUALIFIER:
            return (source_index, column.qualifier_of.upper(), None,
                    column.qualifier)
        coerce = column.data_type.coerce if column.data_type is not None \
            else None
        return source_index, column.name.upper(), coerce, None

    scalars, tables = [], []
    for source_index, target in plan:
        if target[0] == "scalar":
            scalars.append(slot(source_index, target[1]))
        else:
            tables.append((source_index, target[1].name.upper(),
                           [slot(nested_index, nested_target[1])
                            for nested_index, nested_target in target[2]]))
    return scalars, tables


def _map_row(row: tuple, scalars, tables) -> MappedCase:
    case = MappedCase()
    for source_index, key, coerce, qualifier in scalars:
        value = row[source_index]
        if qualifier is not None:
            case.qualifiers.setdefault(key, {})[qualifier] = value
        else:
            case.scalars[key] = value if value is None or coerce is None \
                else coerce(value)
    for source_index, table_key, nested_slots in tables:
        nested = row[source_index]
        rows_out: List[Dict[str, Any]] = []
        if isinstance(nested, Rowset):
            for nested_row in nested.rows:
                row_dict: Dict[str, Any] = {}
                for nested_index, key, coerce, qualifier in nested_slots:
                    value = nested_row[nested_index]
                    if qualifier is not None:
                        row_dict.setdefault("__QUALIFIERS__", {}).setdefault(
                            key, {})[qualifier] = value
                    else:
                        row_dict[key] = value \
                            if value is None or coerce is None \
                            else coerce(value)
                rows_out.append(row_dict)
        case.tables[table_key] = rows_out
    return case


def pair_mapper(definition: ModelDefinition, source,
                pairs: List[Tuple[Tuple[str, ...], Tuple[str, ...]]],
                source_alias: Optional[str]):
    """Compile a ``row -> MappedCase`` mapper from ON-clause equalities.

    ``model_path`` is ``(column,)`` or ``(table, column)`` after stripping
    the model name; ``source_path`` likewise after stripping the source
    alias.  Nested paths require the source column of the same table name
    to exist in the shaped source.  ``source`` supplies column metadata
    only (a :class:`Rowset` or row stream).
    """
    rowset = source
    # The plan shape the other two modes compile: scalars in ON-clause
    # order, then one ``[source_index, table target]`` per joined table.
    plan: list = []
    nested: Dict[str, list] = {}

    for model_path, source_path in pairs:
        if len(model_path) == 1:
            column = definition.find(model_path[0])
            if column is None or column.is_table:
                raise BindError(
                    f"model {definition.name!r} has no scalar column "
                    f"{model_path[0]!r}")
            plan.append((_resolve_source_scalar(rowset, source_path),
                         ("scalar", column)))
        elif len(model_path) == 2:
            table = definition.find(model_path[0])
            if table is None or not table.is_table:
                raise BindError(
                    f"model {definition.name!r} has no nested table "
                    f"{model_path[0]!r}")
            nested_column = table.find_nested(model_path[1])
            if nested_column is None:
                raise BindError(
                    f"nested table {model_path[0]!r} has no column "
                    f"{model_path[1]!r}")
            if len(source_path) != 2:
                raise BindError(
                    f"nested model column {'.'.join(model_path)} must be "
                    f"joined to a nested source column, got "
                    f"{'.'.join(source_path)}")
            source_table_index = rowset.index_of(source_path[0])
            source_table = rowset.columns[source_table_index]
            if source_table.nested_columns is None:
                raise BindError(
                    f"source column {source_path[0]!r} is not a nested table")
            inner_index = next(
                (i for i, c in enumerate(source_table.nested_columns)
                 if c.name.upper() == source_path[1].upper()), None)
            if inner_index is None:
                raise BindError(
                    f"nested source table {source_path[0]!r} has no column "
                    f"{source_path[1]!r}")
            entry = nested.setdefault(table.name.upper(),
                                      [None, ("table", table, [])])
            entry[0] = source_table_index
            entry[1][2].append((inner_index, ("scalar", nested_column)))
        else:
            raise BindError(
                f"unsupported model path {'.'.join(model_path)!r} in ON "
                f"clause")

    scalars, tables = _compile_plan(plan + list(nested.values()))
    return lambda row: _map_row(row, scalars, tables)
