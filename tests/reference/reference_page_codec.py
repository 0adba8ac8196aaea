"""The page codec's per-cell row spelling — the oracle.

``repro.sqlstore.pages.encode_row`` built a list of tagged cells and handed
it to ``json.dumps`` until PR 19 moved the tagging into the encoder's
``default`` hook; this is that body.  (The decode side it replaced,
``decode_rows(json.loads(payload))``, still serves the wire and is called
from ``src/``.)  Nothing under ``src/`` imports this module.
"""

import json

from repro.sqlstore.pages import encode_cell


def reference_encode_row(row) -> bytes:
    """The parent commit's ``encode_row``, verbatim."""
    return json.dumps([encode_cell(v) for v in row], sort_keys=True,
                      ensure_ascii=False,
                      separators=(",", ":")).encode("utf-8")


def reference_encode_page(page_id: int, rows) -> bytes:
    """A page file spelled from the format table in ``sqlstore/pages.py``
    with nothing of that module but the cell tags: what every flush must
    write, however the store came by the bytes."""
    import struct
    import zlib

    payload = b"[" + b",".join(reference_encode_row(r) for r in rows) + b"]"
    return b"RPG1" + struct.pack(">IIII", page_id, len(rows), len(payload),
                                 zlib.crc32(payload) & 0xFFFFFFFF) + payload
