"""Disk manager: durable page-file I/O underneath the buffer pool.

Page files are *immutable once written*: every flush of a page writes a new
versioned file (``t<id>/p<page>_v<version>.pg``) rather than overwriting the
old one, and the catalog (the root pointer) moves afterwards.  A crash at
any byte offset therefore leaves the previous root naming previous, intact
files — shadow paging, the same discipline the durable store's
snapshot/journal pair uses one layer up.

Nothing references a page file until the root moves, and its name — a
version above every one the committed catalog holds — is never written
twice, so a flush needs no temp sibling and no rename: the file is written
once under its final name and fsync'd, and the directories that gained an
entry are remembered until the commit fsyncs each of them once
(:meth:`DiskManager.take_unsynced`), before the root record that makes the
files reachable.  A torn file left by a crash is unreferenced and swept at
the next open.  :class:`~repro.store.faults.FaultInjector` is consulted at
``page.before_write``, ``page.torn_write`` (half the bytes under the final
name), ``page.before_fsync`` and ``page.after_fsync`` (durable, its
directory entry not yet), so the crash suite can kill the writer mid-page
and assert no torn page is ever served.
"""

from __future__ import annotations

import os
from typing import Optional, Set

from repro.errors import Error
from repro.sqlstore.pages import Page, decode_page


class StorageError(Error):
    """The paged store's on-disk state is missing, torn, or inconsistent."""


class DiskManager:
    """Owns the storage directory layout and all page-file byte I/O.

    Layout::

        <root>/catalog.json          the root pointer's base document
        <root>/catalog.log           page-list deltas appended since the base
        <root>/pages/t<id>/          one directory per table (stable id)
        <root>/pages/t<id>/p<p>_v<v>.pg   one immutable file per page flush
    """

    def __init__(self, root: str, faults=None):
        self.root = os.path.abspath(root)
        self.pages_root = os.path.join(self.root, "pages")
        self.faults = faults
        # Directories with entries no fsync has covered yet; added to under
        # the pool lock (every flush runs there), taken by the commit.
        self._unsynced: Set[str] = set()
        os.makedirs(self.pages_root, exist_ok=True)

    # -- paths ----------------------------------------------------------------

    def table_dir(self, table_id: int) -> str:
        return os.path.join(self.pages_root, f"t{table_id}")

    def page_path(self, table_id: int, filename: str) -> str:
        return os.path.join(self.table_dir(table_id), filename)

    @staticmethod
    def page_filename(page_id: int, version: int) -> str:
        return f"p{page_id}_v{version}.pg"

    # -- page I/O -------------------------------------------------------------

    def write_page(self, table_id: int, page_id: int, version: int,
                   data: bytes) -> str:
        """Write one page file durably under its final name; returns it.

        The name is new (versions only grow) and unreferenced until the next
        root record, so there is nothing to replace atomically.  The file's
        directory is remembered for the commit's directory sync.
        """
        faults = self.faults
        directory = self.table_dir(table_id)
        if not os.path.isdir(directory):
            os.mkdir(directory)
            self._unsynced.add(self.pages_root)
        filename = self.page_filename(page_id, version)
        if faults is not None:
            faults.hit("page.before_write")
        with open(os.path.join(directory, filename), "wb") as handle:
            self._unsynced.add(directory)
            if faults is not None:
                # Split the write so a crash can leave the classic torn file.
                half = len(data) // 2
                handle.write(data[:half])
                handle.flush()
                faults.hit("page.torn_write")
                data = data[half:]
            handle.write(data)
            handle.flush()
            if faults is not None:
                faults.hit("page.before_fsync")
            os.fsync(handle.fileno())
        if faults is not None:
            faults.hit("page.after_fsync")
        return filename

    def take_unsynced(self) -> Set[str]:
        """The directories that gained entries since the last call (call
        under the pool lock).  The caller fsyncs each before writing a root
        record that names the files, and hands them back if it could not."""
        taken, self._unsynced = self._unsynced, set()
        return taken

    def restore_unsynced(self, directories: Set[str]) -> None:
        self._unsynced |= directories

    def read_page(self, table_id: int, filename: str,
                  expect_page_id: Optional[int] = None) -> Page:
        """Read and CRC-verify one page file."""
        path = self.page_path(table_id, filename)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            raise StorageError(
                f"cannot read page file {path!r}: {exc}") from exc
        return decode_page(data, expect_page_id=expect_page_id)

    # -- housekeeping ---------------------------------------------------------

    def sweep(self, referenced: dict) -> int:
        """Delete table dirs and page files the catalog does not reference.

        ``referenced`` maps table id -> set of referenced file names.  A
        torn file a crashed writer left is referenced by nothing, so it goes
        too.  Returns the number of files removed.
        """
        removed = 0
        if not os.path.isdir(self.pages_root):
            return 0
        for entry in os.listdir(self.pages_root):
            directory = os.path.join(self.pages_root, entry)
            if not (entry.startswith("t") and os.path.isdir(directory)):
                continue
            try:
                table_id = int(entry[1:])
            except ValueError:
                continue
            keep = referenced.get(table_id)
            for name in os.listdir(directory):
                if keep is not None and name in keep:
                    continue
                try:
                    os.unlink(os.path.join(directory, name))
                    removed += 1
                except OSError:
                    pass
            if keep is None:
                try:
                    os.rmdir(directory)
                except OSError:
                    pass
        return removed
