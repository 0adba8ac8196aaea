"""Disk manager: durable page-file I/O underneath the buffer pool.

Page files are *immutable once written*: every flush of a page writes a new
versioned file (``t<id>/p<page>_v<version>.pg``) rather than overwriting the
old one, and the catalog (the root pointer) is swapped atomically afterwards.
A crash at any byte offset therefore leaves the previous catalog pointing at
previous, intact files — shadow paging, the same discipline the durable
store's snapshot/journal pair uses one layer up.

Each write goes through a temp file + flush + fsync + atomic rename, with
:class:`~repro.store.faults.FaultInjector` consulted at the same stations
the journal exposes (``page.before_write``, ``page.torn_write``,
``page.before_fsync``, ``page.before_replace``), so the crash suite can
kill the writer mid-page and assert no torn page is ever served.
"""

from __future__ import annotations

import os
from typing import List, Optional

from repro.errors import Error
from repro.sqlstore.pages import Page, decode_page, encode_page
from repro.store.atomic import atomic_write_bytes


class StorageError(Error):
    """The paged store's on-disk state is missing, torn, or inconsistent."""


class DiskManager:
    """Owns the storage directory layout and all page-file byte I/O.

    Layout::

        <root>/catalog.json          the atomically-replaced root pointer
        <root>/pages/t<id>/          one directory per table (stable id)
        <root>/pages/t<id>/p<p>_v<v>.pg   one immutable file per page flush
    """

    def __init__(self, root: str, faults=None):
        self.root = os.path.abspath(root)
        self.pages_root = os.path.join(self.root, "pages")
        self.faults = faults
        os.makedirs(self.pages_root, exist_ok=True)

    # -- paths ----------------------------------------------------------------

    def table_dir(self, table_id: int) -> str:
        return os.path.join(self.pages_root, f"t{table_id}")

    def ensure_table_dir(self, table_id: int) -> str:
        path = self.table_dir(table_id)
        os.makedirs(path, exist_ok=True)
        return path

    def page_path(self, table_id: int, filename: str) -> str:
        return os.path.join(self.table_dir(table_id), filename)

    @staticmethod
    def page_filename(page_id: int, version: int) -> str:
        return f"p{page_id}_v{version}.pg"

    # -- page I/O -------------------------------------------------------------

    def write_page(self, table_id: int, page_id: int, version: int,
                   rows: List[tuple]) -> str:
        """Write one page durably; returns the page's file name.

        The write is staged through a temp sibling and atomically renamed
        (:func:`~repro.store.atomic.atomic_write_bytes`), with fault points
        before the write, after half the bytes (the torn page), before
        fsync, and before the rename.
        """
        filename = self.page_filename(page_id, version)
        atomic_write_bytes(
            os.path.join(self.ensure_table_dir(table_id), filename),
            encode_page(page_id, rows), faults=self.faults,
            fault_prefix="page")
        return filename

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

    def delete_page(self, table_id: int, filename: str) -> None:
        try:
            os.unlink(self.page_path(table_id, filename))
        except OSError:
            pass

    def drop_table_dir(self, table_id: int) -> None:
        directory = self.table_dir(table_id)
        if not os.path.isdir(directory):
            return
        for name in os.listdir(directory):
            try:
                os.unlink(os.path.join(directory, name))
            except OSError:
                pass
        try:
            os.rmdir(directory)
        except OSError:
            pass

    def sweep(self, referenced: dict) -> int:
        """Delete table dirs and page files the catalog does not reference.

        ``referenced`` maps table id -> set of referenced file names.  Temp
        files (torn writes abandoned by a crash) are always swept.  Returns
        the number of files removed.
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
