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

Every mode compiles to one plan, applied to a batch of source rows column
by column: the result is a :class:`CaseBatch` — a list per bound column,
values keyed by *model* column names, nested tables as offsets into their
concatenated rows.
"""

from __future__ import annotations

import datetime
from itertools import accumulate, chain
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import BindError, SchemaError
from repro.lang import ast_nodes as ast
from repro.core.columns import ContentRole, ModelColumn, ModelDefinition
from repro.shaping.shape import ShapedBatch
from repro.sqlstore.rowset import Rowset
from repro.sqlstore.types import BOOLEAN, DATE, DOUBLE, LONG, TEXT


class MappedCase:
    """One input case, normalised to the model's column names.

    ``scalars`` maps upper-cased model column names to values.
    ``tables`` maps upper-cased nested-table names to lists of row dicts
    (each keyed by upper-cased nested column names).
    ``qualifiers`` maps upper-cased attribute names to ``{kind: value}``
    dicts, e.g. ``{"AGE": {"PROBABILITY": 1.0}}``.

    A caseset is held as :class:`CaseBatch` columns.  A case's dicts are
    built, filled, where one case is read (``CaseBatch[i]``), or by hand,
    to be packed into a batch (:meth:`CaseBatch.of`).
    """

    __slots__ = ("scalars", "tables", "qualifiers")

    def __init__(self):
        self.scalars, self.tables, self.qualifiers = {}, {}, {}

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


class CaseBatch:
    """A batch of bound cases, column by column — what ``bind cases``
    yields for TRAIN and PREDICTION JOIN, and what a caseset is: a model
    retains, the caseset cache keeps and :class:`~repro.algorithms.
    attributes.AttributeSpace` reads a list of them (or one).

    ``columns``  ``(KEY, qualifier kind or None, values)`` per bound
                 scalar, in binding order: one value per case, coerced to
                 the model column's type (a qualifier's as it came);
    ``nested``   ``(TABLE, offsets, columns)`` per bound nested table: its
                 bound columns (as above) over the cases' nested rows
                 concatenated in case order — case ``i``'s rows are
                 ``offsets[i]:offsets[i + 1]``;
    ``source``   the source rows the cases were bound from, or None.

    As a sequence the batch is one filled :class:`MappedCase` per case.
    """

    __slots__ = ("columns", "nested", "source", "_count", "_weights")

    def __init__(self, count: int, columns: list, nested: list,
                 source=None, weights: Optional[List[float]] = None):
        self._count, self.columns, self.nested, self.source = \
            count, columns, nested, source
        self._weights = weights

    @classmethod
    def of(cls, cases: Sequence[MappedCase]) -> "CaseBatch":
        """A run of standalone cases packed into columns — the one way a
        case's dicts become a batch: a column per value, qualifier kind
        and nested column any of them has, first seen first, None where a
        case lacks it, so a run that shares one key layout reads back
        (``batch[i]``) as it was.  The weights are each case's own
        :meth:`MappedCase.weight` (a hand-built case's qualifiers need not
        come in one order)."""
        nested = []
        for table in dict.fromkeys(chain.from_iterable(
                case.tables for case in cases)):
            rows = [case.tables.get(table, ()) for case in cases]
            nested.append((table, list(accumulate(map(len, rows), initial=0)),
                           _packed(list(chain.from_iterable(rows)))))
        return cls(len(cases), _packed([
            {**case.scalars, "__QUALIFIERS__": case.qualifiers}
            for case in cases]), nested,
            weights=[case.weight() for case in cases])

    def take(self, rows: List[int]) -> "CaseBatch":
        """The batch of the cases at ``rows``, in that order."""
        nested = []
        for table, offsets, columns in self.nested:
            spans = [range(offsets[row], offsets[row + 1]) for row in rows]
            flat = list(chain.from_iterable(spans))
            nested.append((table, list(accumulate(map(len, spans), initial=0)),
                           [(key, kind, [values[p] for p in flat])
                            for key, kind, values in columns]))
        weights = self.weights()
        return CaseBatch(len(rows), [
            (key, kind, [values[row] for row in rows])
            for key, kind, values in self.columns], nested,
            weights=[weights[row] for row in rows])

    def weights(self) -> List[float]:
        """Per case, its weight — the first non-NULL SUPPORT in qualifier
        order, else 1.0, as :meth:`MappedCase.weight` defines it; worked
        out once, column by column."""
        if self._weights is None:
            kinds: Dict[str, Dict[str, list]] = {}
            for key, kind, values in self.columns:  # a later key replaces
                if kind is not None:
                    kinds.setdefault(key, {})[kind] = values
            supports: list = [None] * self._count
            for by_kind in kinds.values():
                column = by_kind.get("SUPPORT")
                if column is not None:
                    supports = [
                        float(value) if weight is None and value is not None
                        else weight for weight, value in zip(supports, column)]
            self._weights = [1.0 if weight is None else weight
                             for weight in supports]
        return self._weights

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        return map(self.__getitem__, range(self._count))

    def __getitem__(self, row: int) -> MappedCase:
        """Case ``row``'s dicts, as binding its row alone would build them."""
        row = range(self._count)[row]
        case = MappedCase()
        for key, kind, values in self.columns:
            if kind is None:
                case.scalars[key] = values[row]
            else:
                case.qualifiers.setdefault(key, {})[kind] = values[row]
        for table, offsets, columns in self.nested:
            rows = case.tables[table] = []
            for position in range(offsets[row], offsets[row + 1]):
                nested: Dict[str, Any] = {}
                for key, kind, values in columns:
                    if kind is None:
                        nested[key] = values[position]
                    else:
                        nested.setdefault("__QUALIFIERS__", {}).setdefault(
                            key, {})[kind] = values[position]
                rows.append(nested)
        return case


def _packed(records: List[dict]) -> list:
    """The columns of value dicts: ``(KEY, None, values)`` per key any of
    them has and, where their ``__QUALIFIERS__`` key stands, ``(KEY, kind,
    values)`` per qualifier kind under it — first seen first, None where a
    dict lacks it."""
    columns = []
    for key in dict.fromkeys(chain.from_iterable(records)):
        if key != "__QUALIFIERS__":
            columns.append(
                (key, None, [record.get(key) for record in records]))
            continue
        qualified = [record.get(key) or {} for record in records]
        for name in dict.fromkeys(chain.from_iterable(qualified)):
            kinds = [qualifiers.get(name) or {} for qualifiers in qualified]
            columns += [(name, kind, [of.get(kind) for of in kinds])
                        for kind in dict.fromkeys(chain.from_iterable(kinds))]
    return columns


Binding = Union[ast.BindingColumn, ast.BindingSkip, ast.BindingTable]


def map_rowset(definition: ModelDefinition, rowset: Rowset,
               bindings: Optional[Sequence[Binding]] = None) -> CaseBatch:
    """Bind a source rowset's cases, positionally if bindings are given."""
    return case_binder(definition, rowset, bindings)(rowset.rows)


def case_binder(definition: ModelDefinition, source,
                bindings: Optional[Sequence[Binding]] = None):
    """Compile a ``rows -> CaseBatch`` binder for a source's columns.

    ``source`` is anything with rowset column metadata (a :class:`Rowset`
    or a :class:`~repro.sqlstore.rowset.RowStream`).  The binder carries
    no reference to the source rows, so the streaming pipeline can apply
    it batch by batch and let each batch die.
    """
    return _binder(_positional_plan(definition, bindings, source)
                   if bindings else _name_plan(definition, source))


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
    unused = list(range(len(nested_columns)))
    for binding in bindings:
        if isinstance(binding, ast.BindingSkip):
            del unused[:1]  # Skip the next unused source column.
            continue
        if isinstance(binding, ast.BindingTable):
            raise SchemaError(
                "nested tables may not contain further nested tables")
        column = table_column.find_nested(binding.name)
        if column is None:
            raise BindError(
                f"nested table {table_column.name!r} has no column "
                f"{binding.name!r}")
        if not unused:
            raise SchemaError(
                f"not enough source columns for nested table "
                f"{table_column.name!r}")
        # Prefer a same-named source column; otherwise next unused.
        source_index = next(
            (candidate for candidate in unused
             if nested_columns[candidate].name.upper() ==
             binding.name.upper()), unused[0])
        unused.remove(source_index)
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


#: The Python type whose values each SQL type's ``coerce`` returns as is.
_NATIVE = {LONG: int, DOUBLE: float, TEXT: str, BOOLEAN: bool,
           DATE: datetime.date}


def _binder(plan):
    """The ``rows -> CaseBatch`` binder of a plan: one column per slot,
    read off the batch's rows (a shaped batch's master rows and child
    spans) and coerced column-wise.  Keys are upper-cased and columns
    inspected here, once."""
    scalars = [_slot(index, target[1]) for index, target in plan
               if target[0] == "scalar"]
    tables = [(index, target[1].name.upper(),
               [_slot(nested, column) for nested, (_, column) in target[2]])
              for index, target in plan if target[0] == "table"]
    width = max([index + 1 for index, target in plan
                 if target[0] == "scalar"], default=0)

    def bind(rows) -> CaseBatch:
        flat = rows.master if isinstance(rows, ShapedBatch) and \
            width <= rows.width else rows
        nested = []
        for index, table_key, slots in tables:
            children, counts, positions = _nested_rows(rows, index)
            nested.append((table_key, list(accumulate(counts, initial=0)),
                           _bound(slots, children, positions)))
        return CaseBatch(len(rows), _bound(scalars, flat), nested, rows)
    return bind


def _slot(source_index: int, column: ModelColumn) -> tuple:
    """A source ordinal, the key its values are stored under, the
    qualifier kind (None: a value) and the coercion — None (store as is)
    or the types ``coerce`` returns unchanged, and ``coerce``."""
    if column.role is ContentRole.QUALIFIER:
        return (source_index, column.qualifier_of.upper(),
                column.qualifier, None)
    data_type = column.data_type
    return (source_index, column.name.upper(), None,
            None if data_type is None else
            ({_NATIVE.get(data_type), type(None)}, data_type.coerce))


def _bound(slots, rows, positions=None) -> list:
    """The slots' columns over ``rows``, whose ordinal ``i`` stands at
    ``positions[i]`` (None: at ``i``).  A column holding only its type's
    own values and NULLs is kept as read; otherwise each other value is
    coerced once per distinct ``(type, value)`` — a float once per cell,
    as ``str`` tells ``-0.0`` from ``0.0``."""
    columns = []
    for index, key, kind, coercion in slots:
        values = list(map(itemgetter(
            index if positions is None else positions[index]), rows))
        if coercion is not None and \
                not coercion[0].issuperset(map(type, values)):
            native, coerce = coercion
            once = {typed: coerce(typed[1]) for typed in set(zip(
                map(type, values), values)) if typed[0] not in native
                and typed[0] is not float}
            values = [value if type(value) in native
                      else coerce(value) if type(value) is float
                      else once[type(value), value] for value in values]
        columns.append((key, kind, values))
    return columns


def _nested_rows(rows, index: int):
    """``(rows, counts, positions)`` of the nested column ``index`` of a
    batch: the nested rows of every case concatenated in case order, how
    many each case has (none where the cell holds no rowset), and where
    the nested columns stand in those rows (None: the rows are them)."""
    if isinstance(rows, ShapedBatch) and index >= rows.width:
        return rows.children(index)
    cells = [cell.rows if isinstance(cell, Rowset) else ()
             for cell in map(itemgetter(index), rows)]
    return list(chain.from_iterable(cells)), list(map(len, cells)), None


# ---------------------------------------------------------------------------
# ON-clause pair mapping for PREDICTION JOIN
# ---------------------------------------------------------------------------

def pair_binder(definition: ModelDefinition, source,
                pairs: List[Tuple[Tuple[str, ...], Tuple[str, ...]]],
                source_alias: Optional[str]):
    """Compile a ``rows -> CaseBatch`` binder from ON-clause equalities.

    ``model_path`` is ``(column,)`` or ``(table, column)`` after stripping
    the model name; ``source_path`` likewise after stripping the source
    alias.  Nested paths require the source column of the same table name
    to exist in the shaped source, and every column of one model nested
    table must be joined to the same source nested table.  ``source``
    supplies column metadata only (a :class:`Rowset` or row stream).
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
            entry = nested.setdefault(
                table.name.upper(),
                [source_table_index, ("table", table, [])])
            if entry[0] != source_table_index:
                raise BindError(
                    f"model nested table {table.name!r} is joined to two "
                    f"source nested tables "
                    f"({rowset.columns[entry[0]].name!r} and "
                    f"{source_table.name!r}); join it to one")
            entry[1][2].append((inner_index, ("scalar", nested_column)))
        else:
            raise BindError(
                f"unsupported model path {'.'.join(model_path)!r} in ON "
                f"clause")

    return _binder(plan + list(nested.values()))


def _resolve_source_scalar(rowset: Rowset, path: Tuple[str, ...]) -> int:
    name = path[-1]
    if not rowset.has_column(name):
        raise BindError(
            f"source has no column {name!r} "
            f"(columns: {', '.join(rowset.column_names())})")
    return rowset.index_of(name)
