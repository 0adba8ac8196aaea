"""Base tables: schema + pluggable row storage + primary/secondary indexes.

Row bytes live behind a *row store* (:mod:`repro.sqlstore.storage`) — the
in-memory list by default, or the paged/buffered store when the provider is
opened with ``storage_path=...``.  The table keeps everything semantic:
type coercion, PRIMARY KEY uniqueness, the legacy positional hash indexes,
and the named user indexes (``CREATE INDEX``) the engine consults for
WHERE seeks and join builds.  All index structures are in-memory and are
rebuilt from the store on open — only rows and index *definitions* are
persisted.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import CatalogError, SchemaError, TypeError_
from repro.sqlstore.indexes import TableIndex
from repro.sqlstore.schema import TableSchema
from repro.sqlstore.rowset import Rowset, RowsetColumn
from repro.sqlstore.stats import TableStatistics
from repro.sqlstore.storage import ListRowStore
from repro.sqlstore.values import group_key


class Table:
    """A stored base table: schema + row store + indexes.

    Rows are tuples aligned with the schema.  A declared PRIMARY KEY column
    is enforced unique through a hash map; named secondary indexes (hash +
    sorted) are created with CREATE INDEX and accelerate WHERE seeks and
    equi-join builds.
    """

    def __init__(self, schema: TableSchema, store=None,
                 with_stats: bool = False):
        self.schema = schema
        self.store = store if store is not None else ListRowStore()
        # Monotonic mutation counter; the caseset cache keys on the sum of
        # these across the catalog so cached shapes can never serve stale
        # rows after a mutation.
        self.version = 0
        # The rows as snapshot text, owned by repro.core.persistence:
        # (version, row count, text) as of its last dump of this table.
        # Every mutation moves `version`, so nothing has to drop it.
        self.snapshot_rows: Optional[Tuple[int, int, str]] = None
        # Named user indexes (CREATE INDEX), keyed by upper-cased name,
        # insertion-ordered — the engine picks the first index on a column.
        self.indexes: Dict[str, TableIndex] = {}
        # Optimizer statistics (repro.sqlstore.stats): maintained inline by
        # insert/delete/update below, rebuilt wholesale by
        # rebuild_statistics (UPDATE STATISTICS, paged reopen).
        self.stats: Optional[TableStatistics] = \
            TableStatistics(schema) if with_stats else None
        # True after a paged reopen: page reads are deferred, so statistics
        # re-derive lazily on first use instead of at open (open must never
        # touch page bytes — a torn page surfaces at first read, not open).
        self.stats_stale = False
        self._pk_index: Optional[Dict[Any, int]] = None
        self._secondary: Dict[int, Dict[Any, List[int]]] = {}
        if schema.primary_key_index() is not None:
            self._pk_index = {}

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def rows(self) -> List[Tuple]:
        """All rows, materialised (page reads for a paged store)."""
        return self.store.snapshot()

    def __len__(self) -> int:
        return len(self.store)

    # -- mutation -------------------------------------------------------------

    def insert(self, values: Iterable[Any]) -> None:
        """Insert one row, coercing each value to its column type."""
        self.insert_many((values,))

    def insert_many(self, rows: Iterable[Iterable[Any]]) -> int:
        """Insert many rows, all or none; returns the count inserted.

        Every row is checked — arity, coercion, NOT NULL, PRIMARY KEY
        against the table and against the rows before it in the batch —
        before the first one is stored, so a statement that fails leaves
        the table as it found it.
        """
        columns = self.schema.columns
        pk = self.schema.primary_key_index()
        batch: List[Tuple] = []
        keys: Dict[Any, int] = {}
        base = len(self.store)
        for values in rows:
            row = tuple(values)
            if len(row) != len(columns):
                raise SchemaError(
                    f"table {self.name!r} expects {len(columns)} values, "
                    f"got {len(row)}")
            coerced = []
            for value, column in zip(row, columns):
                value = column.type.coerce(value)
                if value is None and not column.nullable:
                    raise TypeError_(
                        f"column {column.name!r} of table {self.name!r} "
                        f"is NOT NULL")
                coerced.append(value)
            row = tuple(coerced)
            if pk is not None:
                key = group_key(row[pk])
                if key in self._pk_index or key in keys:
                    raise SchemaError(
                        f"duplicate primary key {row[pk]!r} in table "
                        f"{self.name!r}")
                keys[key] = base + len(batch)
            batch.append(row)
        if self.stats is not None and self.stats_stale:
            self.rebuild_statistics()    # before the append: exact baseline
        self.store.extend(batch)
        self.version += len(batch)
        if pk is not None:
            self._pk_index.update(keys)
        for position, row in enumerate(batch, base):
            for column_index, index in self._secondary.items():
                index.setdefault(group_key(row[column_index]),
                                 []).append(position)
            for index in self.indexes.values():
                index.note_insert(row, position)
            if self.stats is not None:
                self.stats.note_insert(row)
        return len(batch)

    def delete_where(self, predicate) -> int:
        """Delete rows where ``predicate(row)`` is truthy; returns the count."""
        rows = self.rows
        if self.stats is not None and self.stats_stale:
            self.stats.rebuild(rows)
            self.stats_stale = False
        kept = []
        removed = 0
        for row in rows:
            if predicate(row):
                removed += 1
                if self.stats is not None:
                    self.stats.note_delete(row)
            else:
                kept.append(row)
        if removed:
            self.store.replace_all(kept)
            self.version += 1
            self.rebuild_indexes()
        return removed

    def update_where(self, predicate, updater) -> int:
        """Apply ``updater(row) -> row`` to rows matching ``predicate``."""
        changed = 0
        new_rows = []
        rows = self.rows
        if self.stats is not None and self.stats_stale:
            self.stats.rebuild(rows)
            self.stats_stale = False
        for row in rows:
            if predicate(row):
                new_row = tuple(
                    column.type.coerce(value)
                    for value, column in zip(updater(row), self.schema.columns))
                new_rows.append(new_row)
                changed += 1
                if self.stats is not None:
                    self.stats.note_delete(row)
                    self.stats.note_insert(new_row)
            else:
                new_rows.append(row)
        if changed:
            self.store.replace_all(new_rows)
            self.version += 1
            self.rebuild_indexes()
        return changed

    def truncate(self) -> None:
        self.store.truncate()
        self.version += 1
        self.rebuild_indexes()
        if self.stats is not None:
            self.stats.rebuild([])
            self.stats_stale = False

    def dispose(self) -> None:
        """Release storage resources (DROP TABLE on a paged store)."""
        self.store.dispose()

    # -- named (CREATE INDEX) indexes -----------------------------------------

    def create_index(self, name: str, column_name: str) -> TableIndex:
        key = name.upper()
        if key in self.indexes:
            raise CatalogError(
                f"index {name!r} already exists on table {self.name!r}")
        column_index = self.schema.index_of(column_name)
        column = self.schema.columns[column_index]
        index = TableIndex(name, column.name, column_index, column.type.name)
        index.rebuild(self.rows)
        self.indexes[key] = index
        return index

    def drop_index(self, name: str, if_exists: bool = False) -> None:
        key = name.upper()
        if key in self.indexes:
            del self.indexes[key]
        elif not if_exists:
            raise CatalogError(
                f"no index named {name!r} on table {self.name!r}")

    def index_on(self, column_index: int) -> Optional[TableIndex]:
        """The first user index on a column ordinal, or None."""
        for index in self.indexes.values():
            if index.column_index == column_index:
                return index
        return None

    # -- legacy positional indexes --------------------------------------------

    def ensure_index(self, column_name: str) -> Dict[Any, List[int]]:
        """Build (or fetch) a non-unique hash index on one column."""
        column_index = self.schema.index_of(column_name)
        if column_index not in self._secondary:
            index: Dict[Any, List[int]] = {}
            for position, row in enumerate(self.rows):
                index.setdefault(group_key(row[column_index]), []).append(position)
            self._secondary[column_index] = index
        return self._secondary[column_index]

    def lookup_pk(self, value: Any) -> Optional[Tuple]:
        """Fetch the row with the given primary-key value, or None."""
        if self._pk_index is None:
            raise SchemaError(f"table {self.name!r} has no primary key")
        position = self._pk_index.get(group_key(value))
        return None if position is None else self.store.row_at(position)

    def rebuild_indexes(self) -> None:
        """Re-derive every index structure from the stored rows.

        Called after positional shifts (DELETE/UPDATE/TRUNCATE) and when a
        paged table is reopened from its catalog (indexes are in-memory;
        only their definitions persist).
        """
        pk = self.schema.primary_key_index()
        needs_rows = (pk is not None or self._secondary or self.indexes)
        rows = self.rows if needs_rows else []
        if pk is not None:
            self._pk_index = {
                group_key(row[pk]): position
                for position, row in enumerate(rows)}
        for column_index in list(self._secondary):
            index: Dict[Any, List[int]] = {}
            for position, row in enumerate(rows):
                index.setdefault(group_key(row[column_index]), []).append(position)
            self._secondary[column_index] = index
        for index in self.indexes.values():
            index.rebuild(rows)

    # -- optimizer statistics --------------------------------------------------

    def rebuild_statistics(self) -> TableStatistics:
        """(Re)derive optimizer statistics from the stored rows.

        Backs the ``UPDATE STATISTICS`` verb and the paged-store reopen
        path; creates the statistics object when the table was built
        without one, so the verb also enables statistics on demand.
        """
        if self.stats is None:
            self.stats = TableStatistics(self.schema)
        self.stats.rebuild(self.rows)
        self.stats_stale = False
        return self.stats

    def mark_statistics_stale(self) -> None:
        """Enable statistics without deriving them yet (paged reopen).

        The rebuild costs a full scan, so it is deferred to the first
        consumer — :meth:`statistics` or the next mutation — keeping open
        free of page reads.
        """
        if self.stats is None:
            self.stats = TableStatistics(self.schema)
        self.stats_stale = True

    def statistics(self) -> Optional[TableStatistics]:
        """Current statistics, lazily re-derived after a paged reopen."""
        if self.stats is not None and self.stats_stale:
            self.rebuild_statistics()
        return self.stats

    # -- export ---------------------------------------------------------------

    def rowset_columns(self) -> List[RowsetColumn]:
        return [RowsetColumn(c.name, c.type) for c in self.schema.columns]

    def to_rowset(self) -> Rowset:
        """Materialise the full table as a rowset."""
        return Rowset(self.rowset_columns(), list(self.rows))

    def iter_batches(self, batch_size: int = 1024) -> Iterable[List[Tuple]]:
        """Scan the stored rows in batches (length snapshot at start).

        Storage is never mutated in place by DELETE/UPDATE (both swap in
        fresh storage), so a scan started before a mutation keeps reading
        the pre-mutation rows; only same-statement INSERT ... SELECT style
        self-reads go through a fully materialised snapshot instead.
        """
        return self.store.iter_batches(batch_size)
