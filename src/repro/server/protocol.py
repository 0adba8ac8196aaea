"""The DMX wire protocol: length-prefixed JSON frames and codecs.

Every message on the wire is one *frame*: a 4-byte big-endian unsigned
length followed by that many bytes of UTF-8 JSON encoding a single object.
The framing is the whole transport contract — everything above it (hello,
execute, streams, cancel) is plain JSON, so any language with sockets and
a JSON parser can speak it.

::

    +----------------+---------------------------------------------+
    | length (4, BE) | UTF-8 JSON object, exactly `length` bytes   |
    +----------------+---------------------------------------------+

Rowsets travel as ``{"columns": [...], "rows": [...]}`` with column type
names from :mod:`repro.sqlstore.types` and scalar values tagged with the
same ``$date``/``$datetime`` scheme the persistence layer uses, so a
rowset read back from the wire is *byte-identical* (under
:func:`rowset_dump`) to the one the embedded API returns — the invariant
the wire-vs-embedded differential grid pins.  Nested TABLE cells recurse
as ``{"$rowset": {...}}``.

Errors travel as ``{"type": <class name>, "message": <str>}`` and are
reconstructed client-side into the matching :mod:`repro.errors` class, so
``except BindError:`` works identically over the wire.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, List, Optional, Tuple

from repro import errors as errors_module
from repro.errors import Error, ParseError, ProtocolError
from repro.sqlstore.pages import (  # noqa: F401  (the wire's names)
    decode_cell,
    decode_column,
    decode_rows,
    decode_rowset as rowset_from_wire,
    encode_cell,
    encode_column,
    encode_rows,
    encode_rowset as rowset_to_wire,
)
from repro.sqlstore.rowset import Rowset, RowsetColumn

#: Protocol revision; the hello handshake rejects mismatches up front.
PROTOCOL_VERSION = 1

#: Refuse frames above this size (a corrupt or hostile length prefix
#: must not make the receiver allocate gigabytes).
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")


# ---------------------------------------------------------------------------
# Frame I/O
# ---------------------------------------------------------------------------

def _recv_exact(sock, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; None on clean EOF before any byte.

    EOF *after* the first byte is a torn frame and raises — the peer died
    mid-message and the stream can never resynchronise.
    """
    chunks: List[bytes] = []
    received = 0
    while received < count:
        chunk = sock.recv(min(65536, count - received))
        if not chunk:
            if received == 0:
                return None
            raise ProtocolError(
                f"torn frame: peer closed after {received} of {count} bytes")
        chunks.append(chunk)
        received += len(chunk)
    return b"".join(chunks)


def send_frame(sock, message: Dict[str, Any]) -> int:
    """Serialize and send one frame; returns the bytes written."""
    payload = json.dumps(message, separators=(",", ":"),
                         default=str).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    sock.sendall(_HEADER.pack(len(payload)) + payload)
    return _HEADER.size + len(payload)


def recv_frame(sock,
               max_bytes: int = MAX_FRAME_BYTES
               ) -> Tuple[Optional[Dict[str, Any]], int]:
    """Read one frame; ``(None, 0)`` on clean EOF at a frame boundary.

    Raises :class:`ProtocolError` for torn frames, oversize length
    prefixes, undecodable payloads, and payloads that are not JSON
    objects.
    """
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None, 0
    (length,) = _HEADER.unpack(header)
    if length > max_bytes:
        raise ProtocolError(
            f"oversize frame: length prefix {length} exceeds the "
            f"{max_bytes}-byte limit")
    payload = _recv_exact(sock, length) if length else b""
    if payload is None:
        raise ProtocolError("torn frame: peer closed before the payload")
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got "
            f"{type(message).__name__}")
    return message, _HEADER.size + length


# ---------------------------------------------------------------------------
# Rowset codec
# ---------------------------------------------------------------------------

# One codec below both layers: a cell, row, column and rowset travel on
# the wire exactly as they sit in a page (repro.sqlstore.pages).

def columns_to_wire(columns) -> List[Dict[str, Any]]:
    return [encode_column(column) for column in columns]


def columns_from_wire(entries) -> List[RowsetColumn]:
    return [decode_column(entry) for entry in entries]


def rowset_dump(rowset: Rowset) -> str:
    """Canonical byte-exact dump of a rowset (the differential contract).

    Two rowsets are considered wire-equal iff their dumps are equal as
    strings: same column names, same type names, same nesting, same row
    values in the same order.
    """
    return json.dumps(rowset_to_wire(rowset), sort_keys=True,
                      separators=(",", ":"), default=str)


# ---------------------------------------------------------------------------
# Result and error codecs
# ---------------------------------------------------------------------------

def result_to_wire(result: Any) -> Dict[str, Any]:
    """Encode an ``execute`` result (Rowset | int | str | None)."""
    if isinstance(result, Rowset):
        return {"type": "rowset", "rowset": rowset_to_wire(result)}
    if isinstance(result, bool) or not isinstance(result, (int, str)):
        if result is None:
            return {"type": "none"}
        raise ProtocolError(
            f"unencodable result type {type(result).__name__}")
    if isinstance(result, int):
        return {"type": "rowcount", "value": result}
    return {"type": "text", "value": result}


def result_from_wire(entry: Dict[str, Any]) -> Any:
    kind = entry.get("type")
    if kind == "rowset":
        return rowset_from_wire(entry["rowset"])
    if kind == "rowcount":
        return int(entry["value"])
    if kind == "text":
        return entry["value"]
    if kind == "none":
        return None
    raise ProtocolError(f"unknown result type {kind!r} in reply")


def error_to_wire(exc: BaseException) -> Dict[str, Any]:
    """Encode an exception; non-provider errors degrade to plain Error."""
    out: Dict[str, Any] = {
        "type": type(exc).__name__ if isinstance(exc, Error) else "Error",
        "message": str(exc),
    }
    if isinstance(exc, ParseError):
        out["line"] = exc.line
        out["column"] = exc.column
    return out


def error_from_wire(entry: Dict[str, Any]) -> Error:
    """Rebuild the concrete :mod:`repro.errors` class from a wire error.

    The message is carried verbatim (ParseError's position suffix is
    already baked in, so the class is constructed without re-appending it)
    and ``line``/``column`` are restored as attributes.
    """
    name = entry.get("type") or "Error"
    cls = getattr(errors_module, name, None)
    if not (isinstance(cls, type) and issubclass(cls, Error)):
        cls = Error
    message = entry.get("message", "")
    if cls is ParseError:
        exc = ParseError(message)
        exc.line = entry.get("line")
        exc.column = entry.get("column")
        return exc
    return cls(message)
