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
checked; format 1 and 2 snapshots from older builds still load).

:func:`dump_provider` assembles the document from text fragments — a small
head, one fragment per table, the views, one per model — and keeps the two
expensive kinds between dumps: a memory table's rows on the table, labelled
with the ``version`` it had (reused when equal, extended by the new tail
when the table was only appended to), and a trained model's entry as
derived state of the model.  A dump therefore costs what changed since the
last one; the bytes are those ``json.dumps`` of the whole tree would give
(``tests/reference/reference_snapshot.py`` is that encoder, kept as the
oracle).

Snapshots are written atomically (:func:`repro.store.atomic.atomic_write_text`:
temp file + fsync + atomic rename), so a crash mid-``save_provider`` never
destroys the previous good snapshot.  :class:`repro.store.durable.DurableStore`
uses the same document as its checkpoint format, adding ``last_seq`` for
journal-replay continuity.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.errors import Error, NotTrainedError
from repro.lang.formatter import format_statement
from repro.lang.parser import parse_statement
from repro.sqlstore.engine import Database
from repro.sqlstore.schema import ColumnSchema, TableSchema
from repro.sqlstore.storage import ListRowStore
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


def _tag(value: Any) -> Any:
    """The fragment encoder's ``default``: handed only what JSON cannot
    spell, which is a temporal scalar to tag or an unsupported cell."""
    tagged = _encode_value(value)
    if tagged is value:
        raise TypeError(f"Object of type {type(value).__name__} "
                        f"is not JSON serializable")
    return tagged


# Every fragment is spelled by this one encoder — ``json.dumps``'s defaults
# (``", "`` / ``": "``, ASCII escapes, insertion key order), which are the
# bytes of format 3 — so fragments concatenate into exactly the document
# one ``json.dumps`` of the whole tree would give.
_text = json.JSONEncoder(default=_tag).encode


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


def _rows_text(table, encoded) -> str:
    """A table's rows as the inside of a JSON array, encoding only the rows
    its cached fragment (``Table.snapshot_rows``) does not already hold.

    ``encoded`` counts the rows that did go through the encoder.
    """
    if not isinstance(table.store, ListRowStore):
        # Paged rows are deliberately not resident; their text would be.
        rows = table.rows
        encoded.inc(len(rows))
        return _text(rows)[1:-1]
    # The version before the rows: a mutation landing in between leaves the
    # label older than the text, which the next dump re-encodes — a label
    # can be too old, never too new.
    version = table.version
    rows = table.rows
    total = len(rows)
    text, start = "", 0
    cached = table.snapshot_rows
    if cached is not None:
        cached_version, cached_total, cached_text = cached
        if cached_version == version:
            return cached_text
        if version - cached_version == total - cached_total:
            # insert adds one to the version and one row; delete, update
            # and truncate add one to the version and no row: the two
            # differences are equal only after nothing but inserts.
            text, start = cached_text, cached_total
    tail = _text(rows[start:total])[1:-1]
    encoded.inc(total - start)
    text = f"{text}, {tail}" if text else tail
    table.snapshot_rows = (version, total, text)
    return text


def _table_text(table, rows_encoded) -> str:
    head = _text({
        "name": table.schema.name,
        "columns": [
            {"name": column.name, "type": column.type.name,
             "nullable": column.nullable,
             "primary_key": column.primary_key}
            for column in table.schema.columns]})
    text = f'{head[:-1]}, "rows": [{_rows_text(table, rows_encoded)}]'
    # CREATE/DROP INDEX and UPDATE STATISTICS do not move table.version:
    # everything but the rows is spelled afresh by every dump.
    tail: Dict[str, Any] = {}
    if table.indexes:
        tail["indexes"] = [
            {"name": index.name, "column": index.column_name}
            for index in table.indexes.values()]
    if table.stats is not None:
        # Flag only — statistics content re-derives deterministically
        # from the restored rows (restore_into inserts row by row, so
        # the incremental path rebuilds them as a side effect).
        tail["statistics"] = True
    if tail:
        text += ", " + _text(tail)[1:-1]
    return text + "}"


def _model_text(model, cases_encoded) -> str:
    from repro.pmml.writer import definition_to_ddl, to_pmml

    if not model.is_trained:
        return _text({"trained": False,
                      "ddl": definition_to_ddl(model.definition)})

    def entry() -> str:
        cases = model.training_cases
        cases_encoded.inc(len(cases))
        return _text({
            "trained": True,
            "pmml": to_pmml(model),
            "insert_count": model.insert_count,
            "cases": [{"scalars": case.scalars, "tables": case.tables,
                       "qualifiers": case.qualifiers} for case in cases],
        })
    # PMML, insert count and caseset change only when the model is
    # retrained, reset or handed a caseset: derived state.
    return model.derived("snapshot_entry", entry)


def dump_provider(provider, last_seq: int = 0) -> str:
    """Serialise a provider (tables + views + models) to a JSON string.

    ``last_seq`` is the durable store's journal high-water mark covered by
    this snapshot; plain API snapshots leave it 0.  The document is
    assembled from one text fragment per table and per model; a fragment
    whose owner has not changed since the last dump is reused as it is
    (``store.snapshot_rows_encoded`` / ``store.snapshot_cases_encoded``
    count what was encoded anew).
    """
    database = provider.database
    rows_encoded = provider.metrics.counter("store.snapshot_rows_encoded")
    cases_encoded = provider.metrics.counter("store.snapshot_cases_encoded")
    tables = ", ".join(_table_text(database.tables[key], rows_encoded)
                       for key in sorted(database.tables))
    views = _text({key: format_statement(select)
                   for key, select in sorted(database.views.items())})
    models = ", ".join(_model_text(model, cases_encoded)
                       for model in provider.list_models())
    head = _text({
        "format": FORMAT_VERSION,
        "kind": "repro-provider-snapshot",
        "last_seq": last_seq,
        "data_version": database.data_version,
    })
    return (f'{head[:-1]}, "tables": [{tables}], "views": {views}, '
            f'"models": [{models}]}}')


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
        table.insert_many([_decode_value(v) for v in row]
                          for row in entry["rows"])
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
            # Imported where a model needs it, as _model_text imports the
            # writer: a catalog without models never loads the PMML package.
            from repro.pmml.reader import read_pmml
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
            database.plan_select(statement).run(database.batch_size)
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
