"""The paged store's root pointer: a base document plus an appended delta log.

Page files are immutable once written (see :mod:`repro.sqlstore.diskmgr`),
so the root pointer is the commit point: a statement's effects become
durable exactly when the root first names the new page versions.  The root
is two files (format 2):

* ``catalog.json`` — the *base*: the whole catalog as of some commit,
  replaced atomically through :func:`~repro.store.atomic.atomic_write_text`
  (fault stations ``catalog.*``).
* ``catalog.log`` — one :mod:`repro.store.journal`-framed record per commit
  since the base (the journal's own writer and reader, stations
  ``catalog_log.*``), each holding what an append-only statement can change:
  the counters and, per changed table, its version and the tail of its page
  list.

:meth:`DiskCatalog.load` applies to the base every record whose
``commit_seq`` continues it.  A torn final record is the signature of a
crash mid-append: it is skipped, and truncated before the next append.  A
record at or below the base's ``commit_seq`` predates the base (the writer
died between rewriting the base and resetting the log) and is ignored.
Damage in the log's interior, a gap in the sequence or a record that does
not fit the document was never produced by a crash of ours and raises
:class:`StorageError` — refusing loudly beats serving a stale catalog.

Base layout::

    {"format": 2, "kind": "repro-paged-catalog",
     "next_table_id": 3, "commit_seq": 17, "data_version": 42,
     "tables": {"T": {"id": 1, "name": "T", "version": 5,
                      "columns": [{"name", "type", "nullable",
                                   "primary_key"}, ...],
                      "pages": [{"id": 0, "version": 3, "rows": 120,
                                 "file": "p0_v3.pg"}, ...],
                      "indexes": [{"name": "ix", "column": "col"}, ...],
                      "statistics": true}},
     "views": {"V": "SELECT ..."}}

Log record (``pages`` replaces the table's page list from index ``from``)::

    {"commit_seq": 18, "data_version": 43,
     "tables": {"T": {"version": 6, "from": 1, "pages": [{...}, ...]}}}

Format 1 is the base alone, rewritten by every commit; it still loads, and
the first commit rewrites it as format 2.  A log beside a format-1 base is
not that base's continuation (format 1 never had one) and is discarded.  A
build that knows only format 1 refuses a format-2 base.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional

from repro.sqlstore.diskmgr import StorageError
from repro.store.atomic import atomic_write_text
from repro.store.journal import JournalCorruptError, JournalWriter, \
    read_journal

CATALOG_FORMAT = 2
SUPPORTED_FORMATS = (1, 2)
CATALOG_KIND = "repro-paged-catalog"
LOG_FILE = "catalog.log"


def apply_delta(document: Dict[str, Any], record: Dict[str, Any]) -> None:
    """Advance ``document`` by one log record, in place."""
    for key, change in record["tables"].items():
        entry = document["tables"][key]
        first = change["from"]
        if not 0 <= first <= len(entry["pages"]):
            raise IndexError(first)
        entry["pages"][first:] = change["pages"]
        entry["version"] = change["version"]
    document["commit_seq"] = record["commit_seq"]
    document["data_version"] = record["data_version"]


class DiskCatalog:
    """Loads the storage root's catalog and moves it: by one appended
    record (:meth:`append`) or by replacing the base (:meth:`save`)."""

    def __init__(self, path: str, faults=None):
        self.path = path
        self.log_path = os.path.join(os.path.dirname(path), LOG_FILE)
        self.faults = faults
        self._writer: Optional[JournalWriter] = None
        # How much of the log file continues the loaded base: the writer
        # truncates the rest (a torn tail) before it first appends.
        self._valid_end: Optional[int] = None
        self._base_bytes = 0
        self._log_bytes = 0

    def load(self) -> Optional[Dict[str, Any]]:
        """The committed catalog, or None when the store is brand new.

        A torn or foreign base raises :class:`StorageError`: the base is
        replaced atomically, so anything unreadable here was never produced
        by a crash of ours — refusing loudly beats silently reinitialising
        over data.
        """
        if not os.path.exists(self.path):
            return None
        try:
            with open(self.path, encoding="utf-8") as handle:
                text = handle.read()
            document = json.loads(text)
        except (OSError, ValueError) as exc:
            raise StorageError(
                f"cannot read storage catalog {self.path!r}: {exc}") from exc
        if not isinstance(document, dict) or \
                document.get("kind") != CATALOG_KIND:
            raise StorageError(
                f"{self.path!r} is not a paged-store catalog")
        if document.get("format") not in SUPPORTED_FORMATS:
            raise StorageError(
                f"storage catalog format {document.get('format')!r} is not "
                f"supported (this build reads formats "
                f"{', '.join(map(str, SUPPORTED_FORMATS))})")
        self._base_bytes = len(text)
        self._valid_end = 0
        if document["format"] == CATALOG_FORMAT:
            self._replay(document)
        return document

    def _replay(self, document: Dict[str, Any]) -> None:
        try:
            records, _, self._valid_end = read_journal(self.log_path)
        except JournalCorruptError as exc:
            raise StorageError(str(exc)) from exc
        self._log_bytes = self._valid_end
        for record in records:
            try:
                if record["commit_seq"] <= document["commit_seq"]:
                    continue
                if record["commit_seq"] != document["commit_seq"] + 1:
                    raise StorageError(
                        f"storage catalog log {self.log_path!r} jumps from "
                        f"commit {document['commit_seq']} to "
                        f"{record['commit_seq']}: records are missing")
                apply_delta(document, record)
            except (KeyError, IndexError, TypeError) as exc:
                raise StorageError(
                    f"storage catalog log {self.log_path!r} holds a record "
                    f"that does not fit the catalog: {exc!r}") from exc

    def _log(self) -> JournalWriter:
        if self._writer is None:
            self._writer = JournalWriter(
                self.log_path, truncate_at=self._valid_end,
                faults=self.faults, fault_prefix="catalog_log")
            self._valid_end = None
        return self._writer

    @property
    def outgrown(self) -> bool:
        """The log is longer than the base it extends: rewriting the base
        now costs less than the appends that got here, so the rewrite
        amortises to a constant factor per commit."""
        return self._log_bytes > self._base_bytes

    def append(self, record: Dict[str, Any]) -> None:
        """Move the root by one durable log record."""
        self._log_bytes += self._log().append(record)

    def save(self, document: Dict[str, Any]) -> None:
        """Replace the base atomically, then empty the log it supersedes."""
        document = dict(document)
        document["format"] = CATALOG_FORMAT
        document["kind"] = CATALOG_KIND
        text = json.dumps(document, sort_keys=True)
        atomic_write_text(self.path, text, faults=self.faults,
                          fault_prefix="catalog")
        self._base_bytes = len(text)
        self._log().reset()
        self._log_bytes = 0

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def remove(self) -> None:
        self.close()
        for path in (self.path, self.log_path):
            try:
                os.unlink(path)
            except OSError:
                pass
