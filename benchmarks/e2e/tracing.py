"""Per-layer tracing from outside the program.

The traced run times every statement exactly as the untraced run does, then
*replays* it stage by stage through the layers' public functions — lexer,
parser, planner, scan, expression evaluation, SHAPE, binding, encoding,
training, prediction, wire codec, journal — recording one span per stage.
Spans live in memory and are written to ``out/trace_<workload>.json`` when
the workload ends.

A span is ``[name, start, end, parent, statement]``.  The root span of a
statement (``core.provider.execute``) is the real, timed execution; its
children are replays and therefore lie *after* it on the clock.  A span's
self time is its duration minus the durations of its direct children; the
root's self time is what no stage accounts for — dispatch, locks, telemetry
bookkeeping, and over the wire the network and the other session — and is
reported as ``core.provider.residual_ms``.

Replays that would mutate the program's state run against scratch objects
(a shadow table kept in step with the real one, a scratch journal file), so
the traced run leaves the same data behind as the untraced one.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from repro.algorithms.attributes import AttributeSpace
from repro.algorithms.registry import create_algorithm
from repro.core.bindings import map_rowset
from repro.core.columns import compile_model_definition
from repro.core.prediction import execute_prediction_select
from repro.core.schema_rowsets import model_content_rowset
from repro.lang import ast_nodes as ast
from repro.lang.lexer import tokenize
from repro.lang.normalizer import statement_fingerprint
from repro.lang.parser import parse_statement
from repro.server import protocol
from repro.shaping import execute_shape
from repro.sqlstore.engine import SourceRelation
from repro.sqlstore.expressions import EvalContext, evaluate
from repro.sqlstore.indexes import choose_index
from repro.sqlstore.pages import decode_page, encode_page, encode_row
from repro.sqlstore.rowset import Rowset
from repro.sqlstore.table import Table
from repro.store.journal import JournalWriter, encode_record

from common import now

ROOT = "core.provider.execute"

ALGORITHM_LAYER = {"REPRO_DECISION_TREES": "algorithms.decision_tree",
                   "REPRO_NAIVE_BAYES": "algorithms.naive_bayes"}


class Trace:
    """In-memory span store."""

    def __init__(self):
        self.spans: List[list] = []

    def open(self, name: str, parent: Optional[int], statement: int) -> int:
        self.spans.append([name, now(), None, parent, statement])
        return len(self.spans) - 1

    def close(self, span: int) -> None:
        self.spans[span][2] = now()

    def add(self, name: str, start: float, end: float,
            parent: Optional[int], statement: int) -> int:
        self.spans.append([name, start, end, parent, statement])
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, parent: Optional[int], statement: int):
        span = self.open(name, parent, statement)
        try:
            yield span
        finally:
            self.close(span)

    def self_times(self) -> Dict[str, Tuple[float, int]]:
        """``name -> (total self time in ms, calls)``."""
        children = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        totals: Dict[str, Tuple[float, int]] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            total, calls = totals.get(name, (0.0, 0))
            totals[name] = (total + (end - start - children[index]) * 1e3,
                            calls + 1)
        return totals

    def totals(self) -> Dict[str, float]:
        """``name -> total duration in ms`` (children included)."""
        out: Dict[str, float] = {}
        for name, start, end, _, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) * 1e3
        return out

    def dump(self, path: str, header: dict) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        document = dict(header)
        document["span_fields"] = ["name", "start_ms", "end_ms", "parent",
                                   "statement"]
        document["spans"] = [
            [name, round((start - origin) * 1e3, 4),
             round((end - origin) * 1e3, 4), parent, statement]
            for name, start, end, parent, statement in self.spans]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))
            handle.write("\n")


class Stages:
    """Replays statements through the layers of one embedded provider."""

    def __init__(self, provider, trace: Trace,
                 journal_path: Optional[str] = None):
        self.provider = provider
        self.db = provider.database
        self.trace = trace
        self.counts: Dict[str, float] = {}
        self.statements = 0
        self._fingerprinted = set()
        self._shadows: Dict[str, Table] = {}
        self._cold_cases: Dict[str, list] = {}
        self._journal = JournalWriter(journal_path) if journal_path else None
        self._journal_seq = 0

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- entry point -----------------------------------------------------------

    def replay(self, op, result, start: float, end: float,
               wire: bool = False) -> None:
        """Record the timed execution ``[start, end]`` of ``op`` as a root
        span, then replay its stages beneath it."""
        self.statements += 1
        sid = self.statements
        trace = self.trace
        root = trace.add(ROOT, start, end, None, sid)
        statement = self._lang(root, sid, op.text)
        if isinstance(statement, ast.SelectStatement):
            source = statement.from_clause
            if isinstance(source, ast.PredictionJoin):
                self._predict(root, sid, statement, op.text,
                              warm=op.kind == "predict_warm")
            elif isinstance(source, ast.ModelContentRef):
                self._browse(root, sid, statement)
            else:
                self._select(root, sid, statement)
        elif isinstance(statement, ast.InsertModelStatement):
            self._train(root, sid, statement)
        elif isinstance(statement, ast.InsertValuesStatement):
            self._insert_values(root, sid, statement)
            if wire:
                self._journal_append(root, sid, op.text)
        elif isinstance(statement, ast.CreateMiningModelStatement):
            with trace.span("core.columns.compile", root, sid):
                compile_model_definition(statement)
        if wire:
            self._wire(root, sid, result)

    # -- lang --------------------------------------------------------------------

    def _lang(self, root: int, sid: int, text: str):
        trace = self.trace
        parse = trace.open("lang.parse", root, sid)
        statement = parse_statement(text)
        trace.close(parse)
        # parse_statement tokenizes internally: the lexer's replay is its child.
        with trace.span("lang.tokenize", parse, sid):
            tokenize(text)
        # The workload repository memoizes fingerprints by statement text.
        if text not in self._fingerprinted:
            self._fingerprinted.add(text)
            with trace.span("lang.normalize", root, sid):
                statement_fingerprint(statement)
        self.count("lang.stmt_bytes", len(text.encode("utf-8")))
        return statement

    # -- sqlstore ----------------------------------------------------------------

    def _base_tables(self, ref) -> List[Tuple[Table, str]]:
        if isinstance(ref, ast.NamedTable):
            table = self.db.tables.get(ref.name.upper())
            return [(table, ref.alias or ref.name)] if table else []
        if isinstance(ref, ast.Join):
            return self._base_tables(ref.left) + self._base_tables(ref.right)
        return []

    def _select(self, parent: int, sid: int, select: ast.SelectStatement,
                plan: bool = True) -> Rowset:
        """``plan_select`` and ``execute_select`` whole, then beneath the
        select: the index seek or the sequential read of every base table it
        names, and the WHERE tree evaluated over the materialised rows."""
        trace, db = self.trace, self.db
        if plan:
            with trace.span("sqlstore.engine.plan", parent, sid):
                db.plan_select(select, self.provider.plan_external_source)
        span = trace.open("sqlstore.engine.select", parent, sid)
        result = db.execute_select(select)
        trace.close(span)
        self.count("rows_returned", len(result.rows))

        tables = self._base_tables(select.from_clause)
        if not tables:
            return result
        rows: Optional[List[tuple]] = None
        if len(tables) == 1 and select.where is not None \
                and tables[0][0].indexes:
            rows = self._seek(span, sid, select, *tables[0])
        if rows is None:
            for table, _ in tables:
                rows = self._scan(span, sid, table)
        if select.where is None:
            return result
        if len(tables) == 1:
            table, qualifier = tables[0]
            relation = SourceRelation(
                [(qualifier, c) for c in table.rowset_columns()], rows=rows)
        else:
            relation = db.resolve_table_ref(select.from_clause)
        context = relation.context()
        context.subquery_executor = db.execute_select
        candidates = relation.rows
        where = select.where
        with trace.span("sqlstore.expressions.eval", span, sid):
            for row in candidates:
                evaluate(where, context.with_row(row))
        self.count("sqlstore.expressions.eval_rows", len(candidates))
        return result

    def _seek(self, parent: int, sid: int, select, table: Table,
              qualifier: str) -> Optional[List[tuple]]:
        """The engine's seek decision, mirrored through public calls:
        ``choose_index`` (which runs ``positions_equal/range``), the store's
        cost gate, then ``fetch_rows``."""
        started = now()
        choice = choose_index(select.where, table, qualifier)
        if choice is None or (
                self.db.stats_enabled and
                table.store.seek_cost(choice.positions) >=
                table.store.scan_cost()):
            return None                 # the engine scans instead
        rows = table.store.fetch_rows(choice.positions)
        self.trace.add("sqlstore.indexes.seek", started, now(), parent, sid)
        self.count("rows_examined", len(rows))
        return rows

    def _scan(self, parent: int, sid: int, table: Table) -> List[tuple]:
        trace = self.trace
        misses = self.provider.metrics.counter("buffer.misses")
        rows: List[tuple] = []
        missed = misses.value
        span = trace.open("sqlstore.storage.scan", parent, sid)
        for batch in table.iter_batches(self.db.batch_size):
            rows.extend(batch)
        trace.close(span)
        missed = int(misses.value - missed)
        self.count("sqlstore.storage.scan_rows", len(rows))
        self.count("rows_examined", len(rows))
        if missed:
            # Paged store: every pool miss read and decoded one page file.
            # Decode that many of the table's pages again, as a child span.
            disk = table.store.manager.disk
            flushed = [h for h in table.store.handles if h.current_file]
            decoded = 0
            for handle in flushed[:missed]:
                path = disk.page_path(handle.table_id, handle.current_file)
                with open(path, "rb") as stream:
                    data = stream.read()
                with trace.span("sqlstore.pages.decode", span, sid):
                    decoded += len(decode_page(data).rows)
            self.count("sqlstore.pages.decode_rows", decoded)
        return rows

    def _shadow(self, table: Table, fresh: int) -> Table:
        """An in-memory copy of ``table`` (same indexes, statistics on) that
        receives every replayed insert, so a replay costs what the real table
        of the same size costs without touching it.  It is built at the first
        replay, from the rows that preceded that statement's ``fresh`` ones."""
        key = table.name.upper()
        shadow = self._shadows.get(key)
        if shadow is None:
            shadow = Table(table.schema, with_stats=self.db.stats_enabled)
            rows = table.rows
            for row in rows[:len(rows) - fresh]:
                shadow.store.append(row)
            for index in table.indexes.values():
                shadow.create_index(index.name, index.column_name)
            if shadow.stats is not None:
                shadow.rebuild_statistics()
            self._shadows[key] = shadow
        return shadow

    def _insert_values(self, root: int, sid: int, statement) -> None:
        table = self.db.table(statement.table)
        fresh = len(statement.rows)
        shadow = self._shadow(table, fresh)
        empty = EvalContext({}, ())
        with self.trace.span("sqlstore.table.insert", root, sid):
            for value_row in statement.rows:
                shadow.insert([evaluate(e, empty) for e in value_row])
        self.count("sqlstore.table.insert_rows", fresh)
        handles = getattr(table.store, "handles", None)
        if not handles:
            return
        # Paged store: every appended row is encoded once for page
        # admission, and commit re-encodes each page the rows landed on.
        total = len(table.store)
        first = total
        dirty = []
        for handle in reversed(handles):
            first -= handle.row_count
            dirty.append(handle)
            if total - first >= fresh:
                break
        page_rows = table.store.fetch_rows(list(range(first, total)))
        with self.trace.span("sqlstore.pages.encode", root, sid):
            for row in page_rows[-fresh:]:
                encode_row(row)
            offset = 0
            for handle in reversed(dirty):
                encode_page(handle.page_id,
                            page_rows[offset:offset + handle.row_count])
                offset += handle.row_count
        self.count("sqlstore.pages.encode_rows", fresh + len(page_rows))

    # -- shaping / core / algorithms -------------------------------------------------

    def _shape(self, parent: int, sid: int, shape: ast.ShapeExpr) -> Rowset:
        span = self.trace.open("shaping.shape", parent, sid)
        shaped = execute_shape(shape, self.db)
        self.trace.close(span)
        for source in [shape.master] + [a.child for a in shape.appends]:
            self._select(span, sid, source, plan=False)
        self.count("shaping.cases_out", len(shaped.rows))
        self.count("shaping.nested_rows_out", sum(
            len(cell.rows) for row in shaped.rows for cell in row
            if isinstance(cell, Rowset)))
        return shaped

    def _algorithm_layer(self, model) -> str:
        return ALGORITHM_LAYER.get(model.algorithm.SERVICE_NAME.upper(),
                                   "algorithms.other")

    def _train(self, root: int, sid: int, statement) -> None:
        trace = self.trace
        model = self.provider.model(statement.model)
        definition = model.definition
        shaped = self._shape(root, sid, statement.source)
        with trace.span("core.bindings.map", root, sid):
            cases = map_rowset(definition, shaped, statement.bindings)
        self.count("core.bindings.map_rows", len(cases))
        space = AttributeSpace(definition)
        with trace.span("algorithms.attributes.fit", root, sid):
            space.fit_schema(cases)
        with trace.span("algorithms.attributes.encode", root, sid):
            observations = space.encode_many(cases)
        with trace.span("algorithms.attributes.fit", root, sid):
            space.marginals_from_observations(observations)
        self.count("algorithms.attributes.fit_rows", len(cases))
        self.count("algorithms.attributes.encode_rows", len(cases))
        algorithm = create_algorithm(definition.algorithm,
                                     definition.parameters)
        layer = self._algorithm_layer(model)
        with trace.span(f"{layer}.train", root, sid):
            algorithm.train(space, observations)
        self.count(f"{layer}.train_rows", len(cases))

    def _predict(self, root: int, sid: int, statement, text: str,
                 warm: bool) -> None:
        """``execute_prediction_select`` whole, then beneath it the source,
        binding, encoding and prediction it performed; its self time is the
        join proper (projection, UDFs, ordering).  A warm statement was
        answered from the caseset cache, so source and binding are absent."""
        trace, provider = self.trace, self.provider
        join = statement.from_clause
        model = provider.model(join.model)
        if not warm:
            provider.caseset_cache.clear()
        span = trace.open("core.prediction.join", root, sid)
        result = execute_prediction_select(provider, statement)
        trace.close(span)
        self.count("core.prediction.join_rows", len(result.rows))
        if warm and text in self._cold_cases:
            cases = self._cold_cases.pop(text)
        else:
            if isinstance(join.source, ast.ShapeSource):
                source = self._shape(span, sid, join.source.shape)
            else:
                source = self._select(span, sid, join.source.select,
                                      plan=False)
            with trace.span("core.bindings.map", span, sid):
                cases = map_rowset(model.definition, source)
            self.count("core.bindings.map_rows", len(cases))
            if len(cases) > 1:
                # Kept for the identical warm statement that follows.
                self._cold_cases = {text: cases}
        with trace.span("algorithms.attributes.encode", span, sid):
            observations = model.space.encode_many(cases)
        self.count("algorithms.attributes.encode_rows", len(cases))
        layer = self._algorithm_layer(model)
        with trace.span(f"{layer}.predict", span, sid):
            for observation in observations:
                model.algorithm.predict(observation)
        self.count(f"{layer}.predict_rows", len(cases))

    def _browse(self, root: int, sid: int, statement) -> None:
        trace = self.trace
        model = self.provider.model(statement.from_clause.model)
        # The real statement built the content graph (now cached on the model).
        with trace.span("algorithms.content", root, sid):
            model.algorithm.content_nodes()
        span = trace.open("sqlstore.engine.select", root, sid)
        self.db.execute_select(statement)
        trace.close(span)
        with trace.span("core.schema_rowsets.content", span, sid):
            content = model_content_rowset(model)
        self.count("core.schema_rowsets.content_rows", len(content.rows))

    # -- server / store -------------------------------------------------------------------

    def _wire(self, root: int, sid: int, result) -> None:
        with self.trace.span("server.protocol.encode", root, sid):
            payload = json.dumps(
                {"ok": True, "result": protocol.result_to_wire(result)},
                separators=(",", ":"), default=str).encode("utf-8")
        self.count("server.protocol.bytes_out", len(payload) + 4)
        with self.trace.span("server.protocol.decode", root, sid):
            protocol.result_from_wire(
                json.loads(payload.decode("utf-8"))["result"])

    def _journal_append(self, root: int, sid: int, text: str) -> None:
        self._journal_seq += 1
        record = {"seq": self._journal_seq, "kind": "INSERT", "stmt": text}
        span = self.trace.open("store.journal.append", root, sid)
        self._journal.append(record)       # encode + write + flush + fsync
        self.trace.close(span)
        with self.trace.span("store.journal.encode", span, sid):
            line = encode_record(record)
        self.count("store.journal.bytes", len(line))
