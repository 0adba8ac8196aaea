"""Whole-provider persistence: tables, views, and trained models.

The paper motivates OLE DB DM with the model *life cycle* — "how to store,
maintain, and refresh" models.  PMML (``repro.pmml``) covers single-model
interchange; this module snapshots an entire provider — base tables, views,
and every mining model with its trained state — to one JSON document, so a
warehouse-plus-models deployment can be saved and restored.

The format is plain JSON (no pickle): table rows are serialised with a
small type-tag scheme (``$date``/``$datetime``, ISO strings), views as
canonical SQL text, and models as their PMML documents plus the life-cycle
metadata PMML alone does not carry (``insert_count`` and the accumulated
training caseset, so a post-restore INSERT INTO still refreshes over the
full history).  ``load_provider`` rebuilds everything through the public
construction paths, so a snapshot from one process version restores
cleanly in another as long as the formats match (a ``format`` field is
checked; format 1 snapshots from older builds still load).

Snapshots are written atomically (:func:`repro.store.atomic.atomic_write_text`:
temp file + fsync + atomic rename), so a crash mid-``save_provider`` never
destroys the previous good snapshot.  :class:`repro.store.durable.DurableStore`
uses the same document as its checkpoint format, adding ``last_seq`` for
journal-replay continuity.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.errors import Error, NotTrainedError
from repro.lang.formatter import format_statement
from repro.lang.parser import parse_statement
from repro.sqlstore.engine import Database
from repro.sqlstore.schema import ColumnSchema, TableSchema
from repro.sqlstore.types import type_from_name
from repro.store.atomic import atomic_write_text

# Format 3 added the optional per-table "statistics" flag (cost-model
# statistics re-derive from rows on load); 2 added durability metadata.
# Older formats stay readable: absent keys simply mean the feature was off.
FORMAT_VERSION = 3
SUPPORTED_FORMATS = (1, 2, FORMAT_VERSION)


# The scalar tag scheme lives in repro.sqlstore.pages (the leaf of the
# module graph) and is shared with the wire protocol and page payloads, so
# snapshots, network frames, and spilled pages round-trip temporal values
# identically.
from repro.sqlstore.pages import (  # noqa: E402  (re-export)
    decode_scalar as _decode_value,
    encode_scalar as _encode_value,
)

encode_value = _encode_value
decode_value = _decode_value


def _encode_case(case) -> Dict[str, Any]:
    return {
        "scalars": {name: _encode_value(value)
                    for name, value in case.scalars.items()},
        "tables": {name: [{key: _encode_value(v) for key, v in row.items()}
                          for row in rows]
                   for name, rows in case.tables.items()},
        "qualifiers": {name: dict(kinds)
                       for name, kinds in case.qualifiers.items()},
    }


def _decode_case(entry: Dict[str, Any]):
    from repro.core.bindings import MappedCase
    case = MappedCase()
    case.scalars = {name: _decode_value(value)
                    for name, value in entry.get("scalars", {}).items()}
    case.tables = {name: [{key: _decode_value(v) for key, v in row.items()}
                          for row in rows]
                   for name, rows in entry.get("tables", {}).items()}
    case.qualifiers = {name: dict(kinds)
                       for name, kinds in entry.get("qualifiers", {}).items()}
    return case


def dump_provider(provider, last_seq: int = 0) -> str:
    """Serialise a provider (tables + views + models) to a JSON string.

    ``last_seq`` is the durable store's journal high-water mark covered by
    this snapshot; plain API snapshots leave it 0.
    """
    from repro.pmml.writer import to_pmml

    tables: List[dict] = []
    for key in sorted(provider.database.tables):
        table = provider.database.tables[key]
        tables.append({
            "name": table.schema.name,
            "columns": [
                {"name": column.name, "type": column.type.name,
                 "nullable": column.nullable,
                 "primary_key": column.primary_key}
                for column in table.schema.columns],
            "rows": [[_encode_value(v) for v in row]
                     for row in table.rows],
        })
        if table.indexes:
            tables[-1]["indexes"] = [
                {"name": index.name, "column": index.column_name}
                for index in table.indexes.values()]
        if table.stats is not None:
            # Flag only — statistics content re-derives deterministically
            # from the restored rows (restore_into inserts row by row, so
            # the incremental path rebuilds them as a side effect).
            tables[-1]["statistics"] = True
    views = {key: format_statement(select)
             for key, select in sorted(provider.database.views.items())}
    models = []
    for model in provider.list_models():
        if model.is_trained:
            models.append({
                "trained": True,
                "pmml": to_pmml(model),
                "insert_count": model.insert_count,
                "cases": [_encode_case(case)
                          for case in model.training_cases],
            })
        else:
            from repro.pmml.writer import definition_to_ddl
            models.append({"trained": False,
                           "ddl": definition_to_ddl(model.definition)})
    return json.dumps({
        "format": FORMAT_VERSION,
        "kind": "repro-provider-snapshot",
        "last_seq": last_seq,
        "data_version": provider.database.data_version,
        "tables": tables,
        "views": views,
        "models": models,
    })


def _parse_snapshot(text: str) -> Dict[str, Any]:
    try:
        snapshot = json.loads(text)
    except json.JSONDecodeError as exc:
        raise Error(f"invalid provider snapshot: {exc}") from exc
    if not isinstance(snapshot, dict) or \
            snapshot.get("kind") != "repro-provider-snapshot":
        raise Error("not a provider snapshot document")
    if snapshot.get("format") not in SUPPORTED_FORMATS:
        raise Error(
            f"snapshot format {snapshot.get('format')!r} is not supported "
            f"(this build reads formats "
            f"{', '.join(str(v) for v in SUPPORTED_FORMATS)})")
    return snapshot


def restore_into(provider, text: str) -> int:
    """Restore a snapshot into an existing (empty) provider.

    Returns the snapshot's ``last_seq`` journal high-water mark.  The
    provider keeps its own configuration (batch size, pool, metrics,
    durability); only catalog state — tables, views, models — is loaded.
    Each restored view is validated against the restored schema here, so a
    snapshot referencing a missing table fails at load time naming the
    view, instead of exploding at first query.
    """
    from repro.pmml.reader import read_pmml
    from repro.core.columns import compile_model_definition
    from repro.core.model import MiningModel

    snapshot = _parse_snapshot(text)
    database = provider.database
    for entry in snapshot["tables"]:
        schema = TableSchema(entry["name"], [
            ColumnSchema(column["name"], type_from_name(column["type"]),
                         nullable=column["nullable"],
                         primary_key=column["primary_key"])
            for column in entry["columns"]])
        table = database.create_table(schema)
        if entry.get("statistics") and table.stats is None:
            # Snapshot came from a statistics-enabled catalog; honour it
            # even if this provider was opened with statistics=False.
            table.rebuild_statistics()
        for row in entry["rows"]:
            table.insert([_decode_value(v) for v in row])
        for index in entry.get("indexes", []):
            table.create_index(index["name"], index["column"])
    # Install every view before validating any: views may reference views.
    view_statements = {}
    for key, text_sql in snapshot["views"].items():
        statement = parse_statement(text_sql)
        database.views[key.upper()] = statement
        view_statements[key] = statement
    for entry in snapshot["models"]:
        if entry["trained"]:
            model = read_pmml(entry["pmml"])
            if "insert_count" in entry:
                model.insert_count = entry["insert_count"]
            if entry.get("cases"):
                model.adopt_cases(
                    [_decode_case(case) for case in entry["cases"]])
        else:
            definition = compile_model_definition(
                parse_statement(entry["ddl"]))
            model = MiningModel(definition)
        provider.models[model.name.upper()] = model
    # Views are validated after models so a view over <model>.CONTENT or
    # $SYSTEM resolves; NotTrainedError is not a resolution failure.
    for key, statement in view_statements.items():
        try:
            database.execute_select_stream(statement)
        except NotTrainedError:
            pass
        except Error as exc:
            raise Error(
                f"snapshot view {key!r} does not resolve against the "
                f"restored schema: {exc}") from exc
    database.advance_data_version(snapshot.get("data_version", 0))
    return int(snapshot.get("last_seq", 0))


def load_provider(text: str):
    """Rebuild a fresh provider from :func:`dump_provider` output."""
    from repro.core.provider import Provider

    provider = Provider()
    restore_into(provider, text)
    return provider


def save_provider(provider, path: str, faults=None) -> None:
    """Atomically write a provider snapshot to ``path``.

    The write goes through the shared temp-file + fsync + atomic-rename
    helper: interrupting it never destroys an existing snapshot at ``path``.
    """
    atomic_write_text(path, dump_provider(provider), faults=faults,
                      fault_prefix="snapshot")


def open_provider(path: str):
    """Load a provider snapshot from ``path``."""
    with open(path, encoding="utf-8") as handle:
        return load_provider(handle.read())
