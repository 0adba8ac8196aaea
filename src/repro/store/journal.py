"""The append-only, checksummed write-ahead statement journal.

Every mutating statement a durable provider acknowledges is first appended
here and fsync'd.  The on-disk format is one record per line::

    DMJ1 <crc32:08x> <compact-json-payload>\\n

``DMJ1`` is the format magic (bump it to evolve the record layout), the
checksum is CRC-32 over the UTF-8 payload bytes, and the payload is
``json.dumps(record, sort_keys=True, separators=(",", ":"))`` — compact and
byte-deterministic, so the format can be golden-pinned.  JSON escapes every
raw newline, so a record always occupies exactly one line and a torn
(partially persisted) record can only ever be the file's final line.

Recovery semantics (:func:`read_journal`):

* a well-formed prefix of records is returned in order;
* a damaged or incomplete **final** record is a *torn tail* — the expected
  signature of a crash mid-append — and is skipped and counted, with the
  byte offset of the last good record returned so the caller can truncate
  the tail before appending again;
* a damaged record **followed by further data** is not a torn write, it is
  corruption, and raises :class:`JournalCorruptError` rather than silently
  replaying a damaged history.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import Error
from repro.store.atomic import fsync_directory

MAGIC = b"DMJ1"


class JournalCorruptError(Error):
    """A damaged record in the journal interior (not a torn tail)."""


def encode_record(record: Dict[str, Any]) -> bytes:
    """Serialise one journal record to its durable line (with newline)."""
    payload = json.dumps(record, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    checksum = zlib.crc32(payload) & 0xFFFFFFFF
    return MAGIC + b" " + f"{checksum:08x}".encode("ascii") + b" " + \
        payload + b"\n"


def decode_record(line: bytes) -> Optional[Dict[str, Any]]:
    """Decode one journal line; ``None`` if damaged/incomplete."""
    if not line.startswith(MAGIC + b" "):
        return None
    rest = line[len(MAGIC) + 1:]
    if len(rest) < 9 or rest[8:9] != b" ":
        return None
    checksum_hex, payload = rest[:8], rest[9:]
    try:
        expected = int(checksum_hex, 16)
    except ValueError:
        return None
    if (zlib.crc32(payload) & 0xFFFFFFFF) != expected:
        return None
    try:
        record = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(record, dict):
        return None
    return record


def read_journal(path: str) -> Tuple[List[Dict[str, Any]], int, int]:
    """Read a journal file: ``(records, torn_records, valid_end_offset)``.

    ``torn_records`` is 1 when a damaged/partial trailing record was
    skipped, else 0.  ``valid_end_offset`` is the byte offset just past the
    last good record — the caller truncates to it before appending, so a
    skipped torn tail can never end up in the journal *interior*.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return [], 0, 0

    records: List[Dict[str, Any]] = []
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline < 0:
            # No terminator: a partial trailing record (torn write).
            return records, 1, offset
        line = data[offset:newline]
        record = decode_record(line)
        if record is None:
            if newline == len(data) - 1:
                # Damaged but final line: torn tail, skip and report.
                return records, 1, offset
            raise JournalCorruptError(
                f"journal {path!r} is corrupt at byte {offset}: damaged "
                f"record followed by further data (not a torn tail)")
        records.append(record)
        offset = newline + 1
    return records, 0, offset


class JournalWriter:
    """Appends fsync'd records to a journal file.

    ``truncate_at`` (from :func:`read_journal`'s ``valid_end_offset``) chops
    a torn tail left by a previous crash before the first new append.
    ``faults`` threads the crash-point harness through the append path, at
    stations named ``<fault_prefix>.<stage>`` — the statement journal's are
    ``journal.*``, the paged store's catalog log's ``catalog_log.*``.
    """

    def __init__(self, path: str, truncate_at: Optional[int] = None,
                 faults=None, fault_prefix: str = "journal"):
        self.path = path
        self.faults = faults
        self.fault_prefix = fault_prefix
        created = not os.path.exists(path)
        size = 0 if created else os.path.getsize(path)
        self._handle = open(path, "ab")
        if created:
            # A record is only as durable as the file's directory entry.
            fsync_directory(os.path.dirname(os.path.abspath(path)))
        if truncate_at is not None and size != truncate_at:
            self._handle.truncate(truncate_at)
            os.fsync(self._handle.fileno())

    def append(self, record: Dict[str, Any]) -> int:
        """Durably append one record: write + flush + fsync, then return
        the number of bytes it occupies."""
        line = encode_record(record)
        faults = self.faults
        prefix = self.fault_prefix
        if faults is not None:
            exc = faults.check(f"{prefix}.torn_write")
            if exc is not None:
                # Simulated torn write: persist only half the record's
                # bytes, then die.  Recovery must skip this tail.
                self._handle.write(line[:max(1, len(line) // 2)])
                self._handle.flush()
                os.fsync(self._handle.fileno())
                raise exc
            faults.hit(f"{prefix}.before_write")
        self._handle.write(line)
        self._handle.flush()
        if faults is not None:
            faults.hit(f"{prefix}.before_fsync")
        os.fsync(self._handle.fileno())
        if faults is not None:
            faults.hit(f"{prefix}.after_fsync")
        return len(line)

    def reset(self) -> None:
        """Truncate the journal to empty (checkpoint took ownership)."""
        self._handle.truncate(0)
        self._handle.seek(0)
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        try:
            self._handle.close()
        except OSError:
            pass
