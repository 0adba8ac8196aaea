"""Fixed-budget row pages: the on-disk unit of the paged sqlstore.

A *page* is the unit the buffer pool caches and the disk manager writes: a
bounded run of consecutive table rows with a deterministic byte encoding.
Pages target :data:`DEFAULT_PAGE_BYTES` of encoded payload — a page accepts
rows until the next row would push it past the budget (a single oversized
row still gets a page of its own, so arbitrarily wide rows never wedge the
store).

The encoding is byte-deterministic so the differential suites can compare
page-level state across processes:

======  ======================================================
offset  field
======  ======================================================
0       magic ``b"RPG1"``
4       page id (u32 big-endian)
8       row count (u32)
12      payload length (u32)
16      CRC-32 of the payload (u32)
20      payload: UTF-8 JSON array of row arrays
======  ======================================================

Scalar cells reuse the persistence tag scheme (``{"$datetime": iso}`` /
``{"$date": iso}`` — the same tags the snapshot format and the wire
protocol use), and TABLE-typed cells nest as ``{"$rowset": ...}`` — the
cell codec below is the one the wire protocol imports.  A page payload is
parsed and written by the :mod:`json` C scanner and encoder with
:func:`decode_cell` / :func:`encode_cell` as their hooks, so only the tagged
cells ever reach Python.  The CRC makes a torn or bit-flipped page
detectable on read: :func:`decode_page` raises :class:`PageFormatError`
rather than ever serving half a page.
"""

from __future__ import annotations

import datetime
import json
import struct
import zlib
from typing import Any, List, Optional, Tuple

from repro.errors import Error

PAGE_MAGIC = b"RPG1"
HEADER = struct.Struct(">4sIIII")
DEFAULT_PAGE_BYTES = 4096


class PageFormatError(Error):
    """A page's bytes are torn, truncated, or fail their checksum."""


def encode_scalar(value: Any) -> Any:
    """Tag temporal scalars for JSON (``$datetime``/``$date``, ISO strings).

    This is the canonical scalar codec shared by provider snapshots
    (:mod:`repro.core.persistence`), the wire protocol, and page payloads —
    one tag scheme, so every layer round-trips temporal values identically.
    datetime subclasses date: test it first, else a datetime would be
    tagged ``$date`` and its time part lost on decode.
    """
    if isinstance(value, datetime.datetime):
        return {"$datetime": value.isoformat()}
    if isinstance(value, datetime.date):
        return {"$date": value.isoformat()}
    return value


def decode_scalar(value: Any) -> Any:
    if isinstance(value, dict):
        if "$datetime" in value:
            return datetime.datetime.fromisoformat(value["$datetime"])
        if "$date" in value:
            return datetime.date.fromisoformat(value["$date"])
    return value


# -- the one cell codec ---------------------------------------------------
# Page payloads and wire frames (repro.server.protocol imports these under
# its own names) carry cells, rows, columns and rowsets in one spelling.
# Rowset lives above the page layer in the module graph: local imports.

def encode_column(column) -> dict:
    out = {"name": column.name,
           "type": None if column.type is None else column.type.name}
    # Written only when present, so flat schemas keep their old bytes.
    if column.nested_columns is not None:
        out["nested"] = [encode_column(c) for c in column.nested_columns]
    return out


def decode_column(entry: dict):
    from repro.sqlstore.rowset import RowsetColumn
    from repro.sqlstore.types import type_from_name
    nested = entry.get("nested")
    if nested is not None:
        return RowsetColumn(entry["name"],
                            nested_columns=[decode_column(c) for c in nested])
    name = entry.get("type")
    return RowsetColumn(entry["name"],
                        None if name is None else type_from_name(name))


def encode_rows(rows) -> List[List[Any]]:
    return [[encode_cell(value) for value in row] for row in rows]


def decode_rows(rows) -> List[tuple]:
    return [tuple(decode_cell(value) for value in row) for row in rows]


def encode_rowset(rowset) -> dict:
    return {"columns": [encode_column(c) for c in rowset.columns],
            "rows": encode_rows(rowset.rows)}


def decode_rowset(entry: dict):
    from repro.sqlstore.rowset import Rowset
    return Rowset([decode_column(c) for c in entry["columns"]],
                  decode_rows(entry["rows"]))


def encode_cell(value: Any) -> Any:
    """A cell as JSON-ready data: TABLE cells nest as ``{"$rowset": ...}``,
    scalars go through :func:`encode_scalar`."""
    from repro.sqlstore.rowset import Rowset
    if isinstance(value, Rowset):
        return {"$rowset": encode_rowset(value)}
    return encode_scalar(value)


def decode_cell(value: Any) -> Any:
    if isinstance(value, dict) and "$rowset" in value:
        return decode_rowset(value["$rowset"])
    return decode_scalar(value)


def _encode_default(value: Any) -> Any:
    """The encoder's ``default``: it is handed only what JSON cannot spell,
    so a value :func:`encode_cell` leaves untagged is an unsupported cell."""
    cell = encode_cell(value)
    if cell is value:
        raise TypeError(f"Object of type {type(value).__name__} "
                        f"is not JSON serializable")
    return cell


# One encoder and one decoder per process.  The decoder's object_hook sees
# every JSON object innermost first, which is decode_cell's contract: a
# nested rowset's cells are already values when its ``$rowset`` arrives, and
# decoding a value again returns it unchanged.
_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False,
                            separators=(",", ":"), default=_encode_default)
_DECODER = json.JSONDecoder(object_hook=decode_cell)


def encode_row(row: Tuple) -> bytes:
    """One row as canonical UTF-8 JSON bytes (deterministic key order)."""
    return _ENCODER.encode(row).encode("utf-8")


def decode_row(data: bytes) -> Tuple:
    return tuple(_DECODER.decode(data.decode("utf-8")))


class Page:
    """A resident page: decoded rows plus buffer-pool bookkeeping.

    ``rows`` is append-only while the page is live (DELETE/UPDATE build
    replacement pages instead of mutating), so concurrent readers can slice
    a stable prefix without locking.  ``chunks`` holds the same rows as
    encoded bytes — ``b",".join(chunks)`` is the payload between its
    brackets — kept from where they were last in hand (the append that
    encoded a row for the admission check, the file a reload read), so a
    flush joins bytes and re-encodes nothing; ``payload_size`` is their
    length with the brackets, tracked incrementally.
    """

    __slots__ = ("page_id", "rows", "chunks", "payload_size", "dirty",
                 "pins", "handle")

    def __init__(self, page_id: int, rows: Optional[List[Tuple]] = None,
                 chunks: Optional[List[bytes]] = None):
        self.page_id = page_id
        self.rows: List[Tuple] = rows if rows is not None else []
        self.chunks: List[bytes] = chunks if chunks is not None \
            else [encode_row(row) for row in self.rows]
        self.payload_size = len(b",".join(self.chunks)) + 2
        self.dirty = False
        self.pins = 0
        self.handle = None  # set by the storage layer

    def has_room(self, row_bytes: int, budget: int) -> bool:
        """Admission rule: fits in the budget, or the page is still empty."""
        if not self.rows:
            return True
        return self.payload_size + row_bytes + 1 <= budget

    def append(self, row: Tuple, data: bytes) -> None:
        """Add ``row``, whose :func:`encode_row` bytes are ``data``."""
        self.payload_size += len(data) + (1 if self.rows else 0)
        self.rows.append(row)
        self.chunks.append(data)
        self.dirty = True

    def image(self) -> bytes:
        """The page's file bytes — ``encode_page(page_id, rows)`` exactly.
        The joined payload replaces the chunks it came from, so the next
        flush of a page that kept growing joins two pieces, not every row."""
        body = b",".join(self.chunks)
        self.chunks = [body] if self.rows else []
        return _frame(self.page_id, len(self.rows), b"[" + body + b"]")

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        flags = "dirty" if self.dirty else "clean"
        return (f"Page(id={self.page_id}, rows={len(self.rows)}, "
                f"{flags}, pins={self.pins})")


def _frame(page_id: int, row_count: int, payload: bytes) -> bytes:
    return HEADER.pack(PAGE_MAGIC, page_id, row_count, len(payload),
                       zlib.crc32(payload) & 0xFFFFFFFF) + payload


def encode_page(page_id: int, rows: List[Tuple]) -> bytes:
    """Serialise rows into the deterministic page byte layout."""
    return _frame(page_id, len(rows),
                  b"[" + b",".join(encode_row(r) for r in rows) + b"]")


def decode_page(data: bytes, expect_page_id: Optional[int] = None) -> Page:
    """Parse page bytes, verifying magic, lengths, and the CRC.

    Any mismatch raises :class:`PageFormatError` — the caller must treat
    the page as torn and fail the read, never serve a partial row set.
    """
    if len(data) < HEADER.size:
        raise PageFormatError(
            f"page truncated: {len(data)} bytes is shorter than the "
            f"{HEADER.size}-byte header")
    magic, page_id, row_count, payload_len, crc = HEADER.unpack_from(data)
    if magic != PAGE_MAGIC:
        raise PageFormatError(f"bad page magic {magic!r}")
    payload = data[HEADER.size:]
    if len(payload) != payload_len:
        raise PageFormatError(
            f"torn page {page_id}: header promises {payload_len} payload "
            f"bytes, file holds {len(payload)}")
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise PageFormatError(f"page {page_id} failed its CRC check")
    if expect_page_id is not None and page_id != expect_page_id:
        raise PageFormatError(
            f"page id mismatch: expected {expect_page_id}, file says "
            f"{page_id}")
    try:
        raw_rows = _DECODER.decode(payload.decode("utf-8"))
    except (ValueError, TypeError, KeyError) as exc:
        # Bad UTF-8, bad JSON, or a tag whose content is not what it names.
        raise PageFormatError(
            f"page {page_id} payload does not decode: {exc!r}") from exc
    if type(raw_rows) is not list or set(map(type, raw_rows)) - {list}:
        raise PageFormatError(
            f"page {page_id} payload is not an array of row arrays")
    if len(raw_rows) != row_count:
        raise PageFormatError(
            f"page {page_id} row-count mismatch: header says {row_count}, "
            f"payload holds {len(raw_rows)}")
    # The payload between its brackets is the rows' bytes; a foreign writer's
    # surrounding whitespace would not be, so those rows re-encode instead.
    chunks = None
    if payload[:1] == b"[" and payload[-1:] == b"]":
        chunks = [payload[1:-1]] if raw_rows else []
    return Page(page_id, list(map(tuple, raw_rows)), chunks=chunks)
