"""Row storage behind :class:`~repro.sqlstore.table.Table`: list or paged.

Two interchangeable row stores implement the same small contract
(``append`` / ``extend`` / ``replace_all`` / ``iter_batches`` /
``iter_positions`` / ``snapshot``):

* :class:`ListRowStore` — the original in-memory list.  The default, and
  the behavioural reference: DELETE/UPDATE swap in a fresh list so scans
  started earlier keep reading pre-mutation rows.
* :class:`PagedRowStore` — rows packed into fixed-budget pages, cached by
  the shared :class:`~repro.sqlstore.buffer.BufferPool` and spilled to
  versioned files by the :class:`~repro.sqlstore.diskmgr.DiskManager`.
  Scans snapshot the page list and the row total, so the same
  pre-mutation-stability contract holds: appends beyond the snapshot are
  invisible, and replaced pages stay readable from their retired files
  (deleted only at open/close, never at commit).

:class:`StorageManager` owns the shared pool, the disk layout, and the
commit protocol — shadow paging: flush dirty pages to *new* versioned
files, sync the directories that gained them, then move the root
(:mod:`repro.sqlstore.catalog`) to reference them — by one appended record
when only page lists moved, by replacing the base otherwise.  A crash at
any byte offset leaves the old root pointing at old, intact files.

With a durable journal attached (``connect(durable_path=...,
storage_path=...)``) the manager runs *ephemeral*: journal replay is the
authority on open, so the storage directory is wiped and serves purely as
spill space.  ``storage_path`` alone makes the paged store itself the
authoritative, restart-surviving database.
"""

from __future__ import annotations

import os
import threading
import time
from bisect import bisect_left, bisect_right
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, \
    Optional, Sequence, Tuple

from repro.sqlstore.buffer import DEFAULT_BUFFER_PAGES, BufferPool
from repro.sqlstore.catalog import DiskCatalog
from repro.sqlstore.diskmgr import DiskManager, StorageError
from repro.sqlstore.pages import DEFAULT_PAGE_BYTES, Page, encode_row
from repro.store.atomic import fsync_directory

# Cost discount for a buffer-resident page relative to a cold one: CPU work
# to walk the rows without the disk read.
RESIDENT_PAGE_COST = 0.25


class ListRowStore:
    """The in-memory reference store: one Python list."""

    __slots__ = ("rows",)

    def __init__(self, rows: Optional[List[Tuple]] = None):
        self.rows: List[Tuple] = rows if rows is not None else []

    def append(self, row: Tuple) -> None:
        self.rows.append(row)

    def extend(self, rows: Sequence[Tuple]) -> None:
        self.rows.extend(rows)

    def replace_all(self, rows: Iterable[Tuple]) -> None:
        # A fresh list, never in-place: scans holding the old list keep
        # reading pre-mutation rows.
        self.rows = list(rows)

    def truncate(self) -> None:
        self.rows = []

    def __len__(self) -> int:
        return len(self.rows)

    def snapshot(self) -> List[Tuple]:
        return self.rows

    def fetch_rows(self, positions: List[int]) -> List[Tuple]:
        rows = self.rows
        return [rows[position] for position in positions]

    def iter_batches(self, batch_size: int) -> Iterable[List[Tuple]]:
        # The rows as of the call — a scan's open — not as of the first
        # read: DELETE/UPDATE swap in a fresh list, and the length taken
        # here leaves out what an INSERT appends to this one later.
        rows, end = self.rows, len(self.rows)
        return (rows[start:min(start + batch_size, end)]
                for start in range(0, end, batch_size))

    def iter_positions(self, positions: List[int],
                       batch_size: int) -> Iterable[List[Tuple]]:
        # The rows as of the call — a seek's open, whose positions they
        # are — not as of the first read.
        rows = self.rows
        return ([rows[p] for p in positions[start:start + batch_size]]
                for start in range(0, len(positions), batch_size))

    def seek_expectation(self, positions: List[int]) -> Optional[str]:
        """No buffer to expect anything of — memory rows are always hot."""
        return None

    def seek_cost(self, positions: List[int]) -> float:
        """Optimizer cost of fetching these positions: rows touched (every
        row is equally hot in memory)."""
        return float(len(positions))

    def scan_cost(self) -> float:
        """Optimizer cost of the full sequential scan: rows stored."""
        return float(len(self.rows))

    def dispose(self) -> None:
        pass


class PageHandle:
    """Durable identity of one page: where its current bytes live.

    The handle outlives buffer-pool residency: evict the page and the
    handle still knows the (immutable, versioned) file to reload from.
    """

    __slots__ = ("uid", "table_id", "page_id", "version", "row_count",
                 "current_file")

    def __init__(self, uid: int, table_id: int, page_id: int,
                 version: int = 0, row_count: int = 0,
                 current_file: Optional[str] = None):
        self.uid = uid
        self.table_id = table_id
        self.page_id = page_id
        self.version = version
        self.row_count = row_count
        self.current_file = current_file


class _Snapshot(NamedTuple):
    """What a reader holds of a :class:`PagedRowStore`: its handle and start
    lists as they were, how many pages of them it may read, and the row
    total at that moment.  The lists only ever grow at the end or are
    swapped for fresh ones, and only the last page's row count can grow, so
    these four values stay a consistent view without copying a page list."""

    handles: List[PageHandle]
    starts: List[int]
    pages: int
    total: int

    def end(self, index: int) -> int:
        """One past the last position of page ``index``."""
        return self.starts[index + 1] if index + 1 < self.pages \
            else self.total

    def runs(self, positions: List[int]) -> Iterator[Tuple[int, int, int]]:
        """Split ascending ``positions`` into ``(page index, lo, hi)`` runs:
        ``positions[lo:hi]`` all live on that page.  Positions at or past
        the row total end the walk."""
        stop = bisect_left(positions, self.total)
        lo = 0
        while lo < stop:
            index = bisect_right(self.starts, positions[lo], 0,
                                 self.pages) - 1
            hi = bisect_left(positions, self.end(index), lo, stop)
            yield index, lo, hi
            lo = hi


class PagedRowStore:
    """Rows packed into pages, resident only while the pool caches them.

    ``starts[i]`` is the position of page ``i``'s first row, so a position
    finds its page by bisection; ``_admit`` extends it beside ``handles``
    and ``_retire_handles`` swaps both for fresh lists.  ``_changed_from``
    is the lowest index in ``handles`` whose catalog entry (file, version,
    row count) may differ from the last commit's — what the commit writes.
    """

    def __init__(self, manager: "StorageManager", table_id: int,
                 next_page_id: int = 0, next_version: int = 1,
                 handles: Optional[List[PageHandle]] = None):
        self.manager = manager
        self.table_id = table_id
        self.handles: List[PageHandle] = handles if handles is not None \
            else []
        self.starts: List[int] = []
        total = 0
        for handle in self.handles:
            self.starts.append(total)
            total += handle.row_count
        self._next_page_id = next_page_id
        self._next_version = next_version
        self._rows = total
        self._changed_from: Optional[int] = None
        self._lock = manager.pool.lock

    # -- page access ----------------------------------------------------------

    def _page(self, handle: PageHandle, pin: bool = False) -> Page:
        def loader() -> Page:
            if handle.current_file is None:
                raise StorageError(
                    f"page {handle.page_id} of table {self.table_id} was "
                    f"never flushed and is no longer resident")
            page = self.manager.disk.read_page(
                handle.table_id, handle.current_file,
                expect_page_id=handle.page_id)
            page.handle = handle
            return page
        return self.manager.pool.get(handle.uid, loader, pin=pin)

    def bump_version(self) -> int:
        version = self._next_version
        self._next_version += 1
        return version

    # -- mutation -------------------------------------------------------------

    def _touch(self, index: int) -> None:
        if self._changed_from is None or index < self._changed_from:
            self._changed_from = index

    def take_changed(self) -> Optional[int]:
        """The lowest page index touched since the last call, or None; the
        commit (under the pool lock, after its flush) records the page list
        from there."""
        first, self._changed_from = self._changed_from, None
        return first

    def append(self, row: Tuple) -> None:
        self.extend((row,))

    def extend(self, rows: Sequence[Tuple]) -> None:
        """Append a statement's rows: one lock section, the tail page
        fetched and pinned once, the overflow packed into fresh pages."""
        chunks = [encode_row(row) for row in rows]
        with self._lock:
            taken = 0
            if self.handles and rows:
                last = self.handles[-1]
                # Pinned: on a miss, admission runs eviction, and with every
                # other frame pinned by concurrent scans the freshly loaded
                # page is the only candidate — unpinned it would be dropped
                # (clean, no flush) and the rows below would mutate an
                # orphan object the pool no longer tracks: never flushed,
                # handle.row_count diverging from the on-disk page, and
                # concurrent scans silently skipping the phantom rows.
                page = self._page(last, pin=True)
                try:
                    budget = self.manager.page_bytes
                    while taken < len(rows) and \
                            page.has_room(len(chunks[taken]), budget):
                        page.append(rows[taken], chunks[taken])
                        taken += 1
                    if taken:
                        last.row_count += taken
                        self._rows += taken
                        self._touch(len(self.handles) - 1)
                finally:
                    self.manager.pool.unpin(page)
            self._pack(zip(rows[taken:], chunks[taken:]))

    def _pack(self, encoded: Iterable[Tuple[Tuple, bytes]]) -> None:
        """Fill fresh pages with ``(row, its bytes)`` pairs under the
        admission rule."""
        budget = self.manager.page_bytes
        page = None
        for row, data in encoded:
            if page is None or not page.has_room(len(data), budget):
                if page is not None:
                    self._admit(page)
                page = Page(self._next_page_id)
                self._next_page_id += 1
            page.append(row, data)
        if page is not None:
            self._admit(page)

    def _admit(self, page: Page) -> None:
        handle = PageHandle(self.manager.new_uid(), self.table_id,
                            page.page_id, row_count=len(page.rows))
        page.handle = handle
        self._touch(len(self.handles))
        self.starts.append(self._rows)
        self.handles.append(handle)
        self._rows += len(page.rows)
        self.manager.pool.put(handle.uid, page)

    def replace_all(self, rows: Iterable[Tuple]) -> None:
        with self._lock:
            self._retire_handles()
            self._pack((row, encode_row(row)) for row in rows)

    def truncate(self) -> None:
        self.replace_all([])

    def dispose(self) -> None:
        with self._lock:
            self._retire_handles()
            self.manager.forget_store(self.table_id)

    def _retire_handles(self) -> None:
        """Drop every current page, keeping retired bytes readable.

        A dirty resident page is flushed first so an in-flight scan that
        snapshotted its handle can still reload a consistent version; the
        superseded files are garbage-collected at open/close, never here.
        """
        pool = self.manager.pool
        resident = dict(pool.resident())
        for handle in self.handles:
            page = resident.get(handle.uid)
            if page is not None and page.dirty:
                self.manager.flush_page(page)
                page.dirty = False
            pool.discard(handle.uid)
        # Fresh lists, never cleared in place: scans opened earlier keep
        # reading the retired ones.
        self.handles = []
        self.starts = []
        self._rows = 0
        self._changed_from = 0

    # -- reads ----------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return self._rows

    def snapshot(self) -> List[Tuple]:
        rows: List[Tuple] = []
        for batch in self.iter_batches(4096):
            rows.extend(batch)
        return rows

    def fetch_rows(self, positions: List[int]) -> List[Tuple]:
        out: List[Tuple] = []
        for batch in self.iter_positions(positions, 4096):
            out.extend(batch)
        return out

    def _scan_snapshot(self) -> _Snapshot:
        with self._lock:
            return _Snapshot(self.handles, self.starts, len(self.handles),
                             self._rows)

    def _needed_pages(self, positions: List[int]) -> List[int]:
        """UIDs of the pages holding the given (ascending) positions."""
        snapshot = self._scan_snapshot()
        return [snapshot.handles[index].uid
                for index, _, _ in snapshot.runs(positions)]

    def _page_cost(self, uids: List[int]) -> float:
        hot = self.manager.pool.resident_count(uids)
        return hot * RESIDENT_PAGE_COST + (len(uids) - hot)

    def seek_expectation(self, positions: List[int]) -> Optional[str]:
        """EXPLAIN detail: of the pages this seek will touch, how many are
        buffer-resident right now (the plan's buffer-hit expectation)."""
        with self._lock:
            needed = self._needed_pages(positions)
            hot = self.manager.pool.resident_count(needed)
            return f"{hot}/{len(needed)} pages buffered"

    def seek_cost(self, positions: List[int]) -> float:
        """Optimizer cost of fetching these positions: pages touched,
        buffer-resident pages discounted (no disk read needed)."""
        with self._lock:
            return self._page_cost(self._needed_pages(positions))

    def scan_cost(self) -> float:
        """Optimizer cost of the full sequential scan, page-weighted the
        same way as :meth:`seek_cost`."""
        with self._lock:
            return self._page_cost([handle.uid for handle in self.handles])

    def iter_batches(self, batch_size: int) -> Iterable[List[Tuple]]:
        """Scan in exact ``batch_size`` chunks (mirrors the list store).

        The current page stays pinned between yields — a consumer that
        abandons the generator (TOP, CANCEL, a closed wire session)
        releases the pin through the ``finally``.
        """
        snapshot = self._scan_snapshot()
        pool = self.manager.pool

        def produce():
            pending: List[Tuple] = []
            current: Optional[Page] = None
            try:
                for index in range(snapshot.pages):
                    count = snapshot.end(index) - snapshot.starts[index]
                    if count == 0:
                        continue
                    page = self._page(snapshot.handles[index], pin=True)
                    if current is not None:
                        pool.unpin(current)
                    current = page
                    rows = page.rows
                    cursor = 0
                    while cursor < count:
                        take = min(batch_size - len(pending), count - cursor)
                        pending.extend(rows[cursor:cursor + take])
                        cursor += take
                        if len(pending) == batch_size:
                            yield pending
                            pending = []
                if pending:
                    yield pending
            finally:
                if current is not None:
                    pool.unpin(current)
        return produce()

    def iter_positions(self, positions: List[int],
                       batch_size: int) -> Iterable[List[Tuple]]:
        """Fetch specific row positions (ascending) in exact-size batches."""
        snapshot = self._scan_snapshot()
        pool = self.manager.pool

        def produce():
            pending: List[Tuple] = []
            current: Optional[Page] = None
            try:
                for index, lo, hi in snapshot.runs(positions):
                    page = self._page(snapshot.handles[index], pin=True)
                    if current is not None:
                        pool.unpin(current)
                    current = page
                    rows = page.rows
                    base = snapshot.starts[index]
                    while lo < hi:
                        take = min(batch_size - len(pending), hi - lo)
                        pending.extend(
                            [rows[p - base] for p in positions[lo:lo + take]])
                        lo += take
                        if len(pending) == batch_size:
                            yield pending
                            pending = []
                if pending:
                    yield pending
            finally:
                if current is not None:
                    pool.unpin(current)
        return produce()


class StorageManager:
    """Owns one storage directory: pool + disk manager + catalog + commit.

    One manager serves every table of a provider; ``buffer_pages`` is the
    *global* page budget, shared across tables, so a pathologically small
    budget (the forced-spill differential grid uses 2) exercises eviction
    on every statement.
    """

    def __init__(self, root: str, buffer_pages: int = DEFAULT_BUFFER_PAGES,
                 faults=None, metrics=None, ephemeral: bool = False,
                 page_bytes: int = DEFAULT_PAGE_BYTES):
        self.root = os.path.abspath(root)
        self.ephemeral = ephemeral
        self.page_bytes = max(64, int(page_bytes))
        self.disk = DiskManager(self.root, faults=faults)
        self.catalog = DiskCatalog(os.path.join(self.root, "catalog.json"),
                                   faults=faults)
        self.pool = BufferPool(buffer_pages, flusher=self.flush_page,
                               metrics=metrics)
        # Resolved once, like the pool's: published (at 0) from connect.
        self._commits = self._commit_ms = self._rewrites = None
        if metrics is not None:
            self._commits = metrics.counter("buffer.commits")
            self._commit_ms = metrics.histogram("buffer.commit_ms")
            self._rewrites = metrics.counter("buffer.catalog_rewrites")
        self.next_table_id = 1
        self.commit_seq = 0
        self._uid = 0
        self._stores: Dict[int, PagedRowStore] = {}
        self._restore_entries: Dict[str, dict] = {}
        # One commit at a time, flush to root record: the root moves in
        # commit_seq order, so no acknowledged commit is overwritten by an
        # older one.  Taken before the pool lock, never inside it.
        self._commit_lock = threading.Lock()
        # What the root on disk says of everything but page lists, versions
        # and counters; None until this process has written a base.
        self._committed_shape: Optional[dict] = None
        if ephemeral:
            # Journal replay is authoritative: whatever a previous process
            # spilled here is dead weight.
            self.catalog.remove()
            self.disk.sweep({})

    # -- identities -----------------------------------------------------------

    def new_uid(self) -> int:
        with self.pool.lock:
            self._uid += 1
            return self._uid

    def forget_store(self, table_id: int) -> None:
        self._stores.pop(table_id, None)

    # -- store factory (plugged into Database.create_table) -------------------

    def make_store(self, schema) -> PagedRowStore:
        with self.pool.lock:
            entry = self._restore_entries.pop(schema.name.upper(), None)
            if entry is None:
                table_id = self.next_table_id
                self.next_table_id += 1
                store = PagedRowStore(self, table_id)
            else:
                store = self._restore_store(entry)
            self._stores[store.table_id] = store
            return store

    def _restore_store(self, entry: dict) -> PagedRowStore:
        handles = []
        max_page = -1
        max_version = 0
        for page in entry["pages"]:
            handle = PageHandle(self.new_uid(), entry["id"], page["id"],
                                version=page["version"],
                                row_count=page["rows"],
                                current_file=page["file"])
            handles.append(handle)
            max_page = max(max_page, page["id"])
            max_version = max(max_version, page["version"])
        return PagedRowStore(self, entry["id"], next_page_id=max_page + 1,
                             next_version=max_version + 1, handles=handles)

    # -- flush / commit (shadow paging) ---------------------------------------

    def flush_page(self, page: Page) -> None:
        """Write a dirty page to a fresh versioned file (never overwrite)."""
        handle = page.handle
        store = self._stores.get(handle.table_id)
        version = store.bump_version() if store is not None \
            else handle.version + 1
        filename = self.disk.write_page(handle.table_id, handle.page_id,
                                        version, page.image())
        handle.version = version
        handle.current_file = filename

    def commit(self, database, rewrite: bool = False) -> Optional[dict]:
        """Make the current logical state durable before it is acknowledged:
        flush dirty pages, sync the directories that gained files, then move
        the root — each step durable before the next begins.

        The root moves by one appended record when nothing but page lists,
        versions and counters differ from what it says and the log is still
        shorter than the base; otherwise (or when ``rewrite`` asks) the base
        is replaced, and the document written is returned.
        """
        started = time.perf_counter()
        with self._commit_lock:
            with self.pool.lock:
                self.pool.flush_dirty()
                seq = self.commit_seq + 1
                shape = self._shape(database)
                rewrite = rewrite or shape != self._committed_shape or \
                    self.catalog.outgrown
                # Until the root is durable the shape on disk counts as
                # unknown: a failure from here on makes the next commit
                # rewrite the base whole.
                self._committed_shape = None
                changed = [(key, table, table.store.take_changed())
                           for key, table in database.tables.items()]
                if rewrite:
                    document = self._document(database, shape, seq)
                else:
                    document = None
                    record = {
                        "commit_seq": seq,
                        "data_version": database.data_version,
                        "tables": {
                            key: {"version": table.version, "from": first,
                                  "pages": self._page_entries(
                                      table.store.handles[first:])}
                            for key, table, first in changed
                            if first is not None}}
                directories = self.disk.take_unsynced()
            # Readers fetch pages again from here on; the commit lock alone
            # orders what is left.
            try:
                for directory in sorted(directories):
                    fsync_directory(directory)
            except BaseException:
                self.disk.restore_unsynced(directories)
                raise
            if document is None:
                self.catalog.append(record)
            else:
                self.catalog.save(document)
            self._committed_shape = shape
            self.commit_seq = seq
        if self._commits is not None:
            self._commits.inc()
            if document is not None:
                self._rewrites.inc()
            self._commit_ms.observe((time.perf_counter() - started) * 1e3)
        return document

    def _shape(self, database) -> dict:
        """The catalog without what every append moves: page lists, table
        versions and the two counters."""
        from repro.lang.formatter import format_statement

        tables = {}
        for key in sorted(database.tables):
            table = database.tables[key]
            tables[key] = {
                "id": table.store.table_id,
                "name": table.schema.name,
                "columns": [
                    {"name": c.name, "type": c.type.name,
                     "nullable": c.nullable, "primary_key": c.primary_key}
                    for c in table.schema.columns],
                "indexes": [
                    {"name": index.name, "column": index.column_name}
                    for index in table.indexes.values()],
                # Like indexes, statistics persist as a flag only; the
                # content re-derives deterministically from rows on open.
                "statistics": table.stats is not None,
            }
        views = {key: format_statement(select)
                 for key, select in sorted(database.views.items())}
        return {"next_table_id": self.next_table_id, "tables": tables,
                "views": views}

    @staticmethod
    def _page_entries(handles: List[PageHandle]) -> List[dict]:
        return [{"id": h.page_id, "version": h.version, "rows": h.row_count,
                 "file": h.current_file} for h in handles]

    def _document(self, database, shape: dict, seq: int) -> dict:
        tables = {}
        for key, entry in shape["tables"].items():
            table = database.tables[key]
            tables[key] = dict(
                entry, version=table.version,
                pages=self._page_entries(table.store.handles))
        return dict(shape, tables=tables, commit_seq=seq,
                    data_version=database.data_version)

    @staticmethod
    def _referenced(document: dict) -> Dict[int, set]:
        return {entry["id"]: {page["file"] for page in entry["pages"]}
                for entry in document["tables"].values()}

    # -- lifecycle ------------------------------------------------------------

    def open_into(self, database) -> None:
        """Load the committed catalog into an empty database, then GC.

        Ephemeral managers skip the load (the directory was wiped at
        construction).  The sweep removes superseded page versions and
        torn temp files a crashed writer left behind.
        """
        if self.ephemeral:
            return
        document = self.catalog.load()
        if document is None:
            self.disk.sweep({})
            return
        from repro.lang.parser import parse_statement
        from repro.sqlstore.schema import ColumnSchema, TableSchema
        from repro.sqlstore.types import type_from_name

        self.next_table_id = document["next_table_id"]
        self.commit_seq = document["commit_seq"]
        self._restore_entries = dict(document["tables"])
        for key in sorted(document["tables"]):
            entry = document["tables"][key]
            schema = TableSchema(entry["name"], [
                ColumnSchema(c["name"], type_from_name(c["type"]),
                             nullable=c["nullable"],
                             primary_key=c["primary_key"])
                for c in entry["columns"]])
            table = database.create_table(schema)
            table.version = entry["version"]
            table.rebuild_indexes()
            for index in entry.get("indexes", []):
                table.create_index(index["name"], index["column"])
            # Pages bypass table.insert on reopen, so incremental stats
            # never saw these rows.  Marked stale, not rebuilt: open must
            # stay free of page reads (the rebuild scans every page), so
            # the first consumer re-derives them lazily.
            if table.stats is not None or entry.get("statistics"):
                table.mark_statistics_stale()
        for key, sql in sorted(document.get("views", {}).items()):
            database.views[key.upper()] = parse_statement(sql)
        database.advance_data_version(document.get("data_version", 0))
        self.disk.sweep(self._referenced(document))

    def close(self, database) -> None:
        """Final commit plus garbage collection of superseded versions."""
        if self.ephemeral:
            self.catalog.remove()
            self.disk.sweep({})
            return
        # A clean close folds the log into the base.
        document = self.commit(database, rewrite=True)
        self.disk.sweep(self._referenced(document))
        self.catalog.close()

    # -- introspection ($SYSTEM.DM_BUFFER_POOL) --------------------------------

    def pool_rows(self, database) -> List[tuple]:
        """(table, page id, rows, dirty, pins, bytes) per resident page,
        LRU-first — the DM_BUFFER_POOL schema rowset's data."""
        names = {table.store.table_id: table.schema.name
                 for table in database.tables.values()
                 if isinstance(table.store, PagedRowStore)}
        out = []
        for uid, page in self.pool.resident():
            handle = page.handle
            table_name = names.get(handle.table_id,
                                   f"t{handle.table_id}") if handle else "?"
            out.append((table_name, page.page_id, len(page.rows),
                        page.dirty, page.pins, page.payload_size))
        return out
