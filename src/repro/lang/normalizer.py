"""Statement normalization and fingerprinting for the workload repository.

Two statements that differ only in their constants are the same *shape* of
work — ``SELECT * FROM T WHERE id = 5`` and ``... WHERE id = 7`` should
aggregate into one row of ``$SYSTEM.DM_STATEMENT_STATS``.  The normalizer
produces that shape deterministically:

* every :class:`~repro.lang.ast_nodes.Literal` (and literal-like parameter
  such as EXPORT/IMPORT paths, the CANCEL target id or a value of a VALUES
  tuple row) is blanked to the placeholder literal ``'?'``;
* every identifier (table, column, alias, function, model, facet) is
  case-folded to upper case;
* the mutated tree is rendered back through the canonical formatter
  (:func:`repro.lang.formatter.format_statement`), whose bracket-quoted
  output re-parses to an equal AST.

The fingerprint is a short SHA-256 of that normalized text.  Normalization
is idempotent — parsing the normalized text and normalizing again yields
the same text and fingerprint (the property suite pins this) — because
``'?'`` parses back to a string literal and upper-case identifiers are
fixed points of the fold.

The input AST is never mutated: the walk rebuilds every dataclass node.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Tuple

from repro.lang import ast_nodes as ast
from repro.lang.formatter import format_statement

#: Every blanked literal renders as this exact token in normalized text.
PLACEHOLDER = "?"

#: Hex digits kept from the SHA-256 — 64 bits, plenty for a workload ring.
FINGERPRINT_HEX = 16


def _normalize_node(node):
    """Rebuild ``node`` with literals blanked and identifiers case-folded."""
    if isinstance(node, ast.Literal):
        return ast.Literal(PLACEHOLDER)
    if isinstance(node, ast.ColumnRef):
        return ast.ColumnRef(tuple(part.upper() for part in node.parts))
    if isinstance(node, ast.CancelStatement):
        # The target id is a parameter, not structure: every CANCEL is the
        # same shape of work.
        return ast.CancelStatement(statement_id=0)
    if isinstance(node, (ast.ExportModelStatement, ast.ImportModelStatement)):
        rebuilt = _normalize_dataclass(node)
        rebuilt.path = PLACEHOLDER
        return rebuilt
    if isinstance(node, ast.InsertValuesStatement):
        # A tuple row holds values, not Literals: blank each one as well.
        rows = [(PLACEHOLDER,) * len(row) if type(row) is tuple else row
                for row in node.rows]
        return _normalize_dataclass(dataclasses.replace(node, rows=rows))
    if dataclasses.is_dataclass(node):
        return _normalize_dataclass(node)
    if isinstance(node, list):
        return [_normalize_node(item) for item in node]
    if isinstance(node, tuple):
        return tuple(_normalize_node(item) for item in node)
    if isinstance(node, str):
        # Any bare string reaching the generic walk is an identifier or a
        # keyword-ish token (table names, aliases, operators, facets);
        # keywords and operators are already upper/symbolic, so folding is
        # a no-op for them and the case-fold for identifiers.
        return node.upper()
    return node


def _normalize_dataclass(node):
    values = {
        field.name: _normalize_node(getattr(node, field.name))
        for field in dataclasses.fields(node)
    }
    return type(node)(**values)


def normalize_statement(statement: ast.Statement) -> str:
    """The canonical normalized text of a parsed statement."""
    return format_statement(_normalize_node(statement))


def statement_shape(statement: ast.Statement) -> Tuple[str, str]:
    """``(normalized text, fingerprint)`` of a parsed statement."""
    normalized = normalize_statement(statement)
    return normalized, fingerprint_text(normalized)


def statement_fingerprint(statement: ast.Statement) -> str:
    """Short stable hash of the normalized statement text."""
    return statement_shape(statement)[1]


def fingerprint_text(normalized: str) -> str:
    """Hash an already-normalized text (exposed for the repository loader)."""
    digest = hashlib.sha256(normalized.encode("utf-8")).hexdigest()
    return digest[:FINGERPRINT_HEX]
