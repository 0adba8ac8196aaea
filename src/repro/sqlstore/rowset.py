"""Rowsets: the tabular result shape shared by SQL and DMX commands.

OLE DB represents every result — query output, schema rowsets, model content —
as a *rowset*: column metadata plus an iterable of rows.  A column may itself
be TABLE-typed, in which case the corresponding cell holds a nested
:class:`Rowset` (the hierarchical rowsets of section 3.1 of the paper).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import BindError
from repro.sqlstore.types import SqlType, TABLE, TEXT, infer_type


class RowsetColumn:
    """Metadata for one rowset column.

    ``nested_columns`` is populated only for TABLE-typed columns, describing
    the schema of the nested rowsets stored in that column's cells.
    """

    def __init__(self, name: str, type_: SqlType = TEXT,
                 nested_columns: Optional[List["RowsetColumn"]] = None):
        self.name = name
        self.type = type_
        self.nested_columns = nested_columns
        if nested_columns is not None:
            self.type = TABLE

    def __repr__(self) -> str:
        if self.type is TABLE:
            inner = ", ".join(c.name for c in self.nested_columns or [])
            return f"RowsetColumn({self.name!r}, TABLE({inner}))"
        return f"RowsetColumn({self.name!r}, {self.type.name})"


class Rowset:
    """Column metadata plus materialised rows.

    Rows are tuples aligned with ``columns``.  Cells in TABLE-typed columns
    hold nested ``Rowset`` instances (or None).

    The constructor copies what it is given; :meth:`over` does not — a
    rowset built by it shares its column list, name index and row list with
    others (every nested cell of one SHAPE arm, the arm's RELATE buckets),
    so its ``columns`` and ``rows`` are read-only.
    """

    def __init__(self, columns: Sequence[RowsetColumn],
                 rows: Iterable[Tuple] = ()):
        self.columns: List[RowsetColumn] = list(columns)
        self.rows: List[Tuple] = [tuple(r) for r in rows]
        self._by_name = {}
        for index, column in enumerate(self.columns):
            # Later duplicates do not shadow earlier ones (SELECT a, a is legal).
            self._by_name.setdefault(column.name.upper(), index)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def over(cls, schema: "Rowset", rows: List[Tuple]) -> "Rowset":
        """``rows`` (tuples already) under ``schema``'s columns, adopting
        the column list, the name index and the row list as they are."""
        rowset = cls.__new__(cls)
        rowset.columns = schema.columns
        rowset.rows = rows
        rowset._by_name = schema._by_name
        return rowset

    @classmethod
    def from_dicts(cls, records: Sequence[dict],
                   column_order: Optional[Sequence[str]] = None) -> "Rowset":
        """Build a rowset from dict records, inferring column types."""
        if column_order is None:
            seen: List[str] = []
            for record in records:
                for key in record:
                    if key not in seen:
                        seen.append(key)
            column_order = seen
        columns = []
        for name in column_order:
            sample = next(
                (r[name] for r in records if r.get(name) is not None), None)
            if isinstance(sample, Rowset):
                columns.append(RowsetColumn(
                    name, TABLE, nested_columns=list(sample.columns)))
            else:
                columns.append(RowsetColumn(name, infer_type(sample)))
        rows = [tuple(record.get(name) for name in column_order)
                for record in records]
        return cls(columns, rows)

    # -- access ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self.rows)

    def __getitem__(self, index: int) -> Tuple:
        return self.rows[index]

    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    def index_of(self, name: str) -> int:
        try:
            return self._by_name[name.upper()]
        except KeyError as exc:
            raise BindError(
                f"no column {name!r} in rowset "
                f"(columns: {', '.join(self.column_names())})") from exc

    def has_column(self, name: str) -> bool:
        return name.upper() in self._by_name

    def column_values(self, name: str) -> List[Any]:
        """All values of one column, in row order."""
        index = self.index_of(name)
        return [row[index] for row in self.rows]

    def to_dicts(self) -> List[dict]:
        """Rows as dicts keyed by column name (nested rowsets recurse)."""
        names = self.column_names()
        result = []
        for row in self.rows:
            record = {}
            for name, value in zip(names, row):
                if isinstance(value, Rowset):
                    record[name] = value.to_dicts()
                else:
                    record[name] = value
            result.append(record)
        return result

    def single_value(self) -> Any:
        """The value of a 1x1 rowset (scalar results)."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise BindError(
                f"expected scalar rowset, got {len(self.rows)} rows x "
                f"{len(self.columns)} columns")
        return self.rows[0][0]

    # -- display --------------------------------------------------------------

    def pretty(self, max_rows: int = 50, indent: str = "") -> str:
        """Fixed-width text rendering; nested rowsets render indented."""
        names = self.column_names()
        display_rows = self.rows[:max_rows]
        nested_cells: List[Tuple[str, Rowset]] = []

        def fmt(value: Any) -> str:
            if value is None:
                return "NULL"
            if isinstance(value, Rowset):
                return f"<TABLE {len(value)} rows>"
            if isinstance(value, float):
                return f"{value:.6g}"
            return str(value)

        cells = [[fmt(v) for v in row] for row in display_rows]
        widths = [max([len(n)] + [len(r[i]) for r in cells])
                  for i, n in enumerate(names)]
        lines = [indent + " | ".join(n.ljust(w) for n, w in zip(names, widths))]
        lines.append(indent + "-+-".join("-" * w for w in widths))
        for row, text_row in zip(display_rows, cells):
            lines.append(indent + " | ".join(
                t.ljust(w) for t, w in zip(text_row, widths)))
            for value, name in zip(row, names):
                if isinstance(value, Rowset) and len(value):
                    nested_cells.append((name, value))
        for name, nested in nested_cells:
            lines.append(f"{indent}  [{name}]:")
            lines.append(nested.pretty(max_rows=max_rows, indent=indent + "    "))
        if len(self.rows) > max_rows:
            lines.append(f"{indent}... ({len(self.rows) - max_rows} more rows)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"Rowset({len(self.rows)} rows x {len(self.columns)} cols: "
                f"{', '.join(self.column_names())})")


DEFAULT_BATCH_SIZE = 1024


def cut(positions: Sequence[int]):
    """``rows -> rows``: each row cut to its values at ``positions``, in
    that order — one C-level ``itemgetter`` call per row."""
    if len(positions) == 1:
        position, = positions  # itemgetter of one gives no tuple
        return lambda rows: [(row[position],) for row in rows]
    pick = itemgetter(*positions)
    return lambda rows: list(map(pick, rows))


class RowStream:
    """A streaming rowset: column metadata plus a single-use batch iterator.

    The streaming execution pipeline passes results between operators as
    *batches* — lists of row tuples — so that peak memory is proportional to
    the batch size rather than to the relation size.  Column metadata is
    available up front (operators need it to plan), while the rows are
    produced lazily by the underlying generator chain.

    A stream may be consumed exactly once, through :meth:`batches`,
    iteration, :meth:`materialize` or :meth:`scan`; a second consumption
    attempt raises :class:`BindError` rather than silently yielding
    nothing.

    ``positions``, when given, says where each column stands in the rows
    the batches hold: a SHAPE APPEND child's source rows, not yet cut to
    its plain-column select list.  :meth:`batches` cuts each batch as it
    is pulled; :meth:`scan` hands the rows on as read.
    """

    __slots__ = ("columns", "positions", "_batches", "_consumed", "_by_name")

    def __init__(self, columns: Sequence[RowsetColumn],
                 batches: Iterable[List[Tuple]],
                 positions: Optional[List[int]] = None):
        self.columns: List[RowsetColumn] = list(columns)
        self.positions = positions
        self._batches = iter(batches)
        self._consumed = False
        self._by_name = {}
        for index, column in enumerate(self.columns):
            self._by_name.setdefault(column.name.upper(), index)

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_rowset(cls, rowset: Rowset,
                    batch_size: int = DEFAULT_BATCH_SIZE) -> "RowStream":
        """Re-batch an already materialised rowset."""
        def produce():
            rows = rowset.rows
            for start in range(0, len(rows), batch_size):
                yield rows[start:start + batch_size]
        return cls(rowset.columns, produce())

    def pipe(self, stage) -> "RowStream":
        """Pass the batches through ``stage`` (a generator over the batch
        iterator) as they are pulled — how a plan node counts what it
        produces; returns this stream."""
        self._batches = stage(self._batches)
        return self

    # -- consumption ----------------------------------------------------------

    def batches(self) -> Iterator[List[Tuple]]:
        """The row batches, as one iterator; consumes the stream."""
        if self._consumed:
            raise BindError(
                "row stream already consumed (streams are single-use; "
                "materialize() first if you need to read twice)")
        self._consumed = True
        return self._batches if self.positions is None \
            else map(cut(self.positions), self._batches)

    def scan(self) -> Tuple[Iterator[List[Tuple]], Optional[List[int]]]:
        """``(batches, positions)``: the batches as read, and where each
        column stands in their rows (None: the rows are the columns);
        consumes the stream."""
        positions, self.positions = self.positions, None
        return self.batches(), positions

    def __iter__(self) -> Iterator[Tuple]:
        for batch in self.batches():
            yield from batch

    def materialize(self) -> Rowset:
        """Drain the stream into a plain :class:`Rowset`, which adopts the
        drained list: every batch producer yields tuples."""
        rows: List[Tuple] = []
        for batch in self.batches():
            rows.extend(batch)
        rowset = Rowset(self.columns)
        rowset.rows = rows
        return rowset

    # -- metadata (mirrors Rowset so binding plans work on either) ------------

    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    def index_of(self, name: str) -> int:
        try:
            return self._by_name[name.upper()]
        except KeyError as exc:
            raise BindError(
                f"no column {name!r} in rowset "
                f"(columns: {', '.join(self.column_names())})") from exc

    def has_column(self, name: str) -> bool:
        return name.upper() in self._by_name

    def __repr__(self) -> str:
        state = "consumed" if self._consumed else "pending"
        return (f"RowStream({len(self.columns)} cols: "
                f"{', '.join(self.column_names())}; {state})")
