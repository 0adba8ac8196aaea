"""Binding source rowsets to mining-model columns.

Three binding modes feed cases into a model, mirroring the paper's usage:

* **positional** — the column list of ``INSERT INTO <model> (...)`` is
  matched position-by-position against the source rowset (SHAPE output),
  with ``SKIP`` discarding source columns and nested binding lists matching
  nested rowsets;
* **by name** — when no column list is given (and for NATURAL PREDICTION
  JOIN), source columns map to same-named model columns;
* **by pairs** — the ON clause of PREDICTION JOIN supplies explicit
  ``model path = source path`` equalities.

The output of every mode is a list of :class:`MappedCase`: values keyed by
*model* column names, with qualifier columns (PROBABILITY OF, SUPPORT OF,
...) folded into per-attribute qualifier dicts.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import BindError, SchemaError
from repro.lang import ast_nodes as ast
from repro.core.columns import ContentRole, ModelColumn, ModelDefinition
from repro.sqlstore.rowset import Rowset


class MappedCase:
    """One input case, normalised to the model's column names.

    ``scalars`` maps upper-cased model column names to values.
    ``tables`` maps upper-cased nested-table names to lists of row dicts
    (each keyed by upper-cased nested column names).
    ``qualifiers`` maps upper-cased attribute names to ``{kind: value}``
    dicts, e.g. ``{"AGE": {"PROBABILITY": 1.0}}``.
    """

    __slots__ = ("scalars", "tables", "qualifiers")

    def __init__(self):
        self.scalars: Dict[str, Any] = {}
        self.tables: Dict[str, List[Dict[str, Any]]] = {}
        self.qualifiers: Dict[str, Dict[str, Any]] = {}

    def qualifier(self, attribute: str, kind: str,
                  default: Any = None) -> Any:
        return self.qualifiers.get(attribute.upper(), {}).get(kind, default)

    def weight(self) -> float:
        """Case replication factor: the SUPPORT qualifier of any attribute.

        The paper defines SUPPORT as "a weight (case replication factor) to
        be associated with the value"; we take the case weight to be the
        first SUPPORT qualifier present, defaulting to 1.0.
        """
        for kinds in self.qualifiers.values():
            if "SUPPORT" in kinds and kinds["SUPPORT"] is not None:
                return float(kinds["SUPPORT"])
        return 1.0

    def __repr__(self) -> str:
        return f"MappedCase({self.scalars}, tables={list(self.tables)})"


Binding = Union[ast.BindingColumn, ast.BindingSkip, ast.BindingTable]


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


def iter_mapped_cases(definition: ModelDefinition, stream,
                      bindings: Optional[Sequence[Binding]] = None):
    """Lazily map a row stream (or rowset) to cases, batch by batch; the
    mapper is compiled before the first batch is pulled."""
    mapper = case_mapper(definition, stream, bindings)
    source = stream.batches() if hasattr(stream, "batches") \
        else [stream.rows]
    return ([mapper(row) for row in batch] for batch in source)


# A plan is a list of (source_index, target) where target is either
# ("scalar", ModelColumn) or ("table", ModelColumn, nested_plan).

def _positional_plan(definition: ModelDefinition,
                     bindings: Sequence[Binding], rowset: Rowset):
    if len(bindings) > len(rowset.columns):
        raise SchemaError(
            f"INSERT INTO {definition.name!r} binds {len(bindings)} columns "
            f"but the source produces only {len(rowset.columns)}")
    plan = []
    for index, binding in enumerate(bindings):
        if isinstance(binding, ast.BindingSkip):
            continue
        if isinstance(binding, ast.BindingTable):
            column = definition.find(binding.name)
            if column is None or not column.is_table:
                raise BindError(
                    f"model {definition.name!r} has no nested table "
                    f"{binding.name!r}")
            source_column = rowset.columns[index]
            if source_column.nested_columns is None:
                raise SchemaError(
                    f"binding {binding.name!r} expects a nested rowset but "
                    f"source column {source_column.name!r} is scalar "
                    f"(did the INSERT use SHAPE?)")
            nested_plan = _positional_nested_plan(column, binding.children,
                                                  source_column.nested_columns)
            plan.append((index, ("table", column, nested_plan)))
            continue
        column = definition.find(binding.name)
        if column is None:
            raise BindError(
                f"model {definition.name!r} has no column {binding.name!r}")
        if column.is_table:
            raise SchemaError(
                f"column {binding.name!r} is a nested table; bind it with "
                f"{binding.name}(<columns>)")
        plan.append((index, ("scalar", column)))
    return plan


def _positional_nested_plan(table_column: ModelColumn,
                            bindings: Sequence[Binding], nested_columns):
    """Positional mapping within a nested table.

    The SHAPE child keeps its RELATE column (e.g. CustID) which the binding
    list does not mention; bindings therefore consume source columns
    left-to-right but may skip over the relate column.  We align by name
    when possible, falling back to position among the unbound columns.
    """
    plan = []
    used = set()
    available = list(range(len(nested_columns)))
    for binding in bindings:
        if isinstance(binding, ast.BindingSkip):
            # Skip the next unused source column.
            for candidate in available:
                if candidate not in used:
                    used.add(candidate)
                    break
            continue
        if isinstance(binding, ast.BindingTable):
            raise SchemaError(
                "nested tables may not contain further nested tables")
        column = table_column.find_nested(binding.name)
        if column is None:
            raise BindError(
                f"nested table {table_column.name!r} has no column "
                f"{binding.name!r}")
        # Prefer a same-named source column; otherwise next unused.
        source_index = None
        for candidate in available:
            if candidate not in used and \
                    nested_columns[candidate].name.upper() == \
                    binding.name.upper():
                source_index = candidate
                break
        if source_index is None:
            for candidate in available:
                if candidate not in used:
                    source_index = candidate
                    break
        if source_index is None:
            raise SchemaError(
                f"not enough source columns for nested table "
                f"{table_column.name!r}")
        used.add(source_index)
        plan.append((source_index, ("scalar", column)))
    return plan


def _name_plan(definition: ModelDefinition, rowset: Rowset):
    plan = []
    for index, source_column in enumerate(rowset.columns):
        column = definition.find(source_column.name)
        if column is None:
            continue  # extra source columns are ignored
        if column.is_table:
            if source_column.nested_columns is None:
                continue
            nested_plan = []
            for nested_index, nested_source in enumerate(
                    source_column.nested_columns):
                nested_column = column.find_nested(nested_source.name)
                if nested_column is not None:
                    nested_plan.append(
                        (nested_index, ("scalar", nested_column)))
            plan.append((index, ("table", column, nested_plan)))
        else:
            plan.append((index, ("scalar", column)))
    return plan


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


# ---------------------------------------------------------------------------
# ON-clause pair mapping for PREDICTION JOIN
# ---------------------------------------------------------------------------

def map_rowset_with_pairs(
        definition: ModelDefinition, rowset: Rowset,
        pairs: List[Tuple[Tuple[str, ...], Tuple[str, ...]]],
        source_alias: Optional[str]) -> List[MappedCase]:
    """Map cases using explicit (model_path, source_path) equalities."""
    mapper = pair_mapper(definition, rowset, pairs, source_alias)
    return [mapper(row) for row in rowset.rows]


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


def _resolve_source_scalar(rowset: Rowset, path: Tuple[str, ...]) -> int:
    name = path[-1]
    if not rowset.has_column(name):
        raise BindError(
            f"source has no column {name!r} "
            f"(columns: {', '.join(rowset.column_names())})")
    return rowset.index_of(name)
