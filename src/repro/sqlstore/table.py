"""Base tables: schema + pluggable row storage + primary/secondary indexes.

Row bytes live behind a *row store* (:mod:`repro.sqlstore.storage`) — the
in-memory list by default, or the paged/buffered store when the provider is
opened with ``storage_path=...``.  The table keeps everything semantic:
type coercion, NOT NULL, PRIMARY KEY uniqueness, and the named user
indexes (``CREATE INDEX``) the engine consults for WHERE seeks and join
builds.  A write checks row by row, then maintains the PRIMARY KEY set,
each index and each column's statistics once for the whole statement, by
what it changed.  All index structures are in-memory and are rebuilt from
the store on open — only rows and index *definitions* are persisted.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import CatalogError, SchemaError, TypeError_
from repro.sqlstore.indexes import TableIndex
from repro.sqlstore.schema import TableSchema
from repro.sqlstore.rowset import RowsetColumn
from repro.sqlstore.stats import TableStatistics
from repro.sqlstore.storage import ListRowStore
from repro.sqlstore.values import bare_key, group_keys


class Table:
    """A stored base table: schema + row store + indexes.

    Rows are tuples aligned with the schema.  A declared PRIMARY KEY column
    is enforced unique through the set of its stored keys; named secondary
    indexes (hash + sorted) are created with CREATE INDEX and accelerate
    WHERE seeks and equi-join builds.
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
        # Optimizer statistics (repro.sqlstore.stats): maintained once per
        # statement by insert/delete/update below, rebuilt wholesale by
        # rebuild_statistics (UPDATE STATISTICS, paged reopen).
        self.stats: Optional[TableStatistics] = \
            TableStatistics(schema) if with_stats else None
        # True after a paged reopen: page reads are deferred, so statistics
        # re-derive lazily on first use instead of at open (open must never
        # touch page bytes — a torn page surfaces at first read, not open).
        self.stats_stale = False
        self._pk = schema.primary_key_index()
        # The group_keys key of each stored row's PRIMARY KEY cell.
        self._pk_keys: set = set()
        # Each column's canonical Python class: an inserted row of exactly
        # these classes is already coerced (and holds no NULL).
        self._natives = [column.type.python_types[0]
                         for column in schema.columns]

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
        the table as it found it.  Then each index and each column's
        statistics take the whole batch in one call.
        """
        pk, natives = self._pk, self._natives
        batch: List[Tuple] = []
        pk_keys: set = set()
        for values in rows:
            row = tuple(values)
            if list(map(type, row)) != natives:
                row = self._coerced(row)
            batch.append(row)
            if pk is not None:
                key = bare_key(row[pk])
                if key in self._pk_keys or key in pk_keys:
                    raise self._duplicate(row[pk])
                pk_keys.add(key)
        # Column by column, one group_keys each: the keying every index and
        # the statistics share, made before anything is stored — and what
        # refuses an int a row took natively (a row of its columns' own
        # classes skips coercion) past the DOUBLE range.
        columns = list(zip(*batch))
        keys = list(map(group_keys, columns))
        if not batch:
            return 0
        if self.stats is not None and self.stats_stale:
            self.rebuild_statistics()    # before the append: exact baseline
        base = len(self.store)
        self.store.extend(batch)
        self.version += len(batch)
        self._pk_keys |= pk_keys
        for index in self.indexes.values():
            index.extend(keys[index.column_index], base)
        if self.stats is not None:
            self.stats.note_inserts(columns, keys)
        return len(batch)

    def delete_at(self, positions: List[int]) -> int:
        """Delete the rows at ``positions`` (ascending: those a DELETE's
        access path read and its WHERE holds for); returns the count."""
        if not positions:
            return 0
        rows, gone = self._current_rows(), set(positions)
        self._replace([row for position, row in enumerate(rows)
                       if position not in gone],
                      [rows[position] for position in positions], [])
        return len(positions)

    def update_at(self, positions: List[int], updater) -> int:
        """Apply ``updater(row) -> row`` to the rows at ``positions``
        (ascending); returns the count.

        The new rows are checked as INSERT checks them — coercion and NOT
        NULL per row, PRIMARY KEY over the complete result — all or none.
        """
        if not positions:
            return 0
        rows = list(self._current_rows())
        old = [rows[position] for position in positions]
        new = [self._coerced(updater(row)) for row in old]
        for position, row in zip(positions, new):
            rows[position] = row
        self._replace(rows, old, new)
        return len(positions)

    def _coerced(self, values: Iterable[Any]) -> Tuple:
        """One row as stored: arity, coercion and NOT NULL checked.  (INSERT
        skips it for a row whose every cell is already of its column's
        canonical class: such a row is its own coercion.)"""
        row = tuple(values)
        columns = self.schema.columns
        if len(row) != len(columns):
            raise SchemaError(
                f"INSERT expects {len(columns)} values, got {len(row)} "
                f"(table {self.name!r})")
        coerced = []
        for value, column in zip(row, columns):
            value = column.type.coerce(value)
            if value is None and not column.nullable:
                raise TypeError_(
                    f"column {column.name!r} of table {self.name!r} "
                    f"is NOT NULL")
            coerced.append(value)
        return tuple(coerced)

    def _duplicate(self, value: Any) -> SchemaError:
        return SchemaError(
            f"duplicate primary key {value!r} in table {self.name!r}")

    def _current_rows(self) -> List[Tuple]:
        """The stored rows, with statistics made exact first (a stale
        baseline is rebuilt before a DELETE or UPDATE subtracts from it)."""
        rows = self.rows
        if self.stats is not None and self.stats_stale:
            self.stats.rebuild(rows)
            self.stats_stale = False
        return rows

    def _replace(self, rows: List[Tuple], removed: List[Tuple],
                 added: List[Tuple]) -> None:
        """Store a DELETE's or UPDATE's complete row list, then maintain
        the PRIMARY KEY set and the statistics by the rows it ``removed``
        and ``added`` (an UPDATE's new rows, in its old rows' places).  A
        DELETE moves rows, so it rebuilds every index; an UPDATE rebuilds
        only an index whose column's keys it changed.  PRIMARY KEY
        uniqueness over ``rows`` is checked before anything changes."""
        old = list(map(group_keys, zip(*removed)))
        columns = list(zip(*added))
        new = list(map(group_keys, columns))
        pk = self._pk
        if pk is not None:
            keys = self._unique_keys(columns[pk], new[pk], set(old[pk])) \
                if added else set()
        self.store.replace_all(rows)
        self.version += 1
        if pk is not None:
            self._pk_keys.difference_update(old[pk])
            self._pk_keys |= keys
        for index in self.indexes.values():
            if not added or old[index.column_index] != new[index.column_index]:
                index.rebuild(rows)
        if self.stats is not None:
            self.stats.note_deletes(old)
            if added:
                self.stats.note_inserts(columns, new)

    def _unique_keys(self, values, keys, gone) -> set:
        """``keys`` (those of the PRIMARY KEY cells ``values``) as a set;
        raises on the first that repeats an earlier one, or a stored key
        outside ``gone``."""
        stored, seen = self._pk_keys, set()
        for value, key in zip(values, keys):
            if key in seen or key in stored and key not in gone:
                raise self._duplicate(value)
            seen.add(key)
        return seen

    def truncate(self) -> int:
        """Delete every row; returns the count."""
        count = len(self.store)
        self.store.truncate()
        self.version += 1
        self.rebuild_indexes()
        if self.stats is not None:
            self.stats.rebuild([])
            self.stats_stale = False
        return count

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

    def rebuild_indexes(self) -> None:
        """Re-derive every index structure from the stored rows.

        Called after TRUNCATE and when a paged table is reopened from its
        catalog (indexes are in-memory; only their definitions persist).
        """
        pk = self._pk
        rows = self.rows if pk is not None or self.indexes else []
        if pk is not None:
            values = [row[pk] for row in rows]
            # Every stored key is gone: only a repeat among the rows raises.
            self._pk_keys = self._unique_keys(values, group_keys(values),
                                              self._pk_keys)
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

    def iter_batches(self, batch_size: int = 1024) -> Iterable[List[Tuple]]:
        """Scan the stored rows in batches, as of the call (the store's
        ``iter_batches``): a DELETE or UPDATE swaps in fresh storage, so a
        scan started before it keeps reading the rows it started on."""
        return self.store.iter_batches(batch_size)
