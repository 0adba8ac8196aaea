"""Rotating JSONL slow-query sink.

The query-log ring (``$SYSTEM.DM_QUERY_LOG``) answers "what ran recently"
from inside a session; this sink answers "what ran slowly, ever" from
outside one.  Every statement whose latency reaches the threshold is
appended to a JSONL file as a single self-contained record — statement
text, kind, status, latency, counter totals, and (when span capture was
on, e.g. under ``EXPLAIN ANALYZE`` or ``TRACE ON``) the full span tree —
so a log shipper can tail the file without speaking DMX.

Rotation is size-based and shift-style (``path`` -> ``path.1`` ->
``path.2`` ...), matching :class:`logging.handlers.RotatingFileHandler`
conventions so existing tooling picks the files up unchanged.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, Optional

from repro.obs.workload import statement_dict

DEFAULT_MAX_BYTES = 16 * 1024 * 1024
DEFAULT_BACKUPS = 3


def _span_dict(span) -> Dict[str, Any]:
    return {
        "name": span.name,
        "duration_ms": None if span.duration_ms is None
        else round(span.duration_ms, 3),
        "attributes": dict(span.attributes),
        "counters": dict(span.counters),
        "children": [_span_dict(child) for child in span.children],
    }


def statement_record_dict(record) -> Dict[str, Any]:
    """One statement as JSON (sink, ``/queries``, ``/active``): its
    statement row, its counter totals and, when its span tree was captured
    (span capture on), the tree."""
    out = statement_dict(record)
    out["counters"] = record.totals()
    if record.root.children:
        out["spans"] = [_span_dict(child)
                        for child in record.root.children]
    return out


class SlowQuerySink:
    """Append-only JSONL writer with size-based rotation.

    The file is opened per write (append mode), so external rotation or
    deletion mid-run cannot wedge the provider; a write failure disables
    the sink rather than failing the statement that triggered it.
    """

    def __init__(self, path: str, threshold_ms: float = 0.0,
                 max_bytes: int = DEFAULT_MAX_BYTES,
                 backups: int = DEFAULT_BACKUPS):
        self.path = str(path)
        self.threshold_ms = float(threshold_ms)
        self.max_bytes = int(max_bytes)
        self.backups = max(0, int(backups))
        self.broken = False
        self._lock = threading.Lock()
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)

    def maybe_write(self, record) -> bool:
        """Write ``record`` if it is slow enough; True when written."""
        if self.broken:
            return False
        if record.duration_ms is None or \
                record.duration_ms < self.threshold_ms:
            return False
        line = json.dumps(statement_record_dict(record),
                          default=str, sort_keys=True)
        try:
            with self._lock:
                self._rotate_if_needed(len(line) + 1)
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write(line + "\n")
            return True
        except OSError:
            self.broken = True  # never fail the traced statement
            return False

    def _rotate_if_needed(self, incoming: int) -> None:
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return
        if size + incoming <= self.max_bytes:
            return
        if self.backups == 0:
            os.replace(self.path, self.path + ".0")
            os.remove(self.path + ".0")
            return
        oldest = f"{self.path}.{self.backups}"
        if os.path.exists(oldest):
            os.remove(oldest)
        for index in range(self.backups - 1, 0, -1):
            source = f"{self.path}.{index}"
            if os.path.exists(source):
                os.replace(source, f"{self.path}.{index + 1}")
        os.replace(self.path, f"{self.path}.1")

    def records(self) -> list:
        """Parse the current (unrotated) file back; [] when absent."""
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                return [json.loads(line) for line in handle
                        if line.strip()]
        except OSError:
            return []
