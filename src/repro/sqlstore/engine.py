"""The relational engine: statement execution over the in-memory catalog.

:class:`Database` executes plain-SQL AST nodes (SELECT with joins, grouping,
ordering; INSERT/UPDATE/DELETE; CREATE/DROP TABLE/VIEW).  FROM-clause sources
it does not know about — mining models, SHAPE blocks, ``$SYSTEM`` rowsets,
``<model>.CONTENT`` — are delegated to an optional ``external_source``
callback which the mining provider supplies.  That hook is precisely the
layering of Figure 1 in the paper: the analysis server (mining layer) sits on
top of the relational engine and extends its name space.

A SELECT is planned once and then opened: :meth:`Database.plan_select`
builds the operator tree — taking every strategy decision while reading only
the catalog, statistics and index maps — and each node's ``run`` executes
exactly what its strategy text says.  ``EXPLAIN`` renders that tree, the
workload repository hashes it, ``execute_select_stream`` opens it.
"""

from __future__ import annotations

import datetime
from itertools import chain, compress, repeat
from operator import eq, gt, itemgetter
from typing import (
    Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple)

from repro.errors import BindError, CatalogError, Error, SchemaError
from repro.lang import ast_nodes as ast
from repro.lang.parser import parse_statement
# The module, not its names: repro.obs.explain imports this package's
# rowset module, so either may be mid-import when the other is reached.
from repro.obs import explain as obs_explain
from repro.obs import trace as obs_trace
from repro.obs import workload as obs_workload
from repro.sqlstore import values as V
from repro.sqlstore.expressions import (
    EvalContext,
    compile_expression,
    compile_filter,
    contains_aggregate,
    is_aggregate_call,
)
from repro.sqlstore.functions import make_aggregate
from repro.sqlstore import stats as stats_mod
from repro.sqlstore.indexes import choose_index
from repro.sqlstore.rowset import (
    DEFAULT_BATCH_SIZE,
    Rowset,
    RowsetColumn,
    RowStream,
)
from repro.sqlstore.schema import ColumnSchema, TableSchema
from repro.sqlstore.table import Table
from repro.sqlstore.types import TABLE, TEXT, infer_type, type_from_name


class SourceRelation:
    """An executed FROM source: qualified column descriptors plus rows.

    The rows may be held either materialised (``rows``) or as a pending
    batch iterator; downstream operators that can stream pull
    :meth:`batches`, while legacy/blocking consumers read :attr:`rows`,
    which drains the iterator on first access.
    """

    def __init__(self, columns: List[Tuple[Optional[str], RowsetColumn]],
                 rows: Optional[List[tuple]] = None,
                 batches: Optional[Iterable[List[tuple]]] = None):
        self.columns = columns
        self._rows = list(rows) if rows is not None else None
        self._batches = batches

    @property
    def rows(self) -> List[tuple]:
        """Materialised rows (drains the batch iterator if still pending)."""
        if self._rows is None:
            rows: List[tuple] = []
            for batch in self._batches or ():
                rows.extend(batch)
            self._rows = rows
            self._batches = None
        return self._rows

    def batches(self, batch_size: int = DEFAULT_BATCH_SIZE) \
            -> Iterable[List[tuple]]:
        """The row batches: the pending ones, handed over, or the rows
        re-sliced."""
        rows = self._rows
        if rows is not None:
            return (rows[start:start + batch_size]
                    for start in range(0, len(rows), batch_size))
        pending, self._batches = self._batches, None
        if pending is None:
            raise BindError("relation rows already consumed")
        return iter(pending)

    def pipe(self, stage) -> "SourceRelation":
        """Pass the rows through ``stage`` (a generator over the batch
        iterator) as they are read — how a plan node counts what it
        produces; materialised rows go through as the one batch they
        are.  Returns this relation."""
        rows = self._rows
        pending = iter(self._batches if rows is None
                       else (rows,) if rows else ())
        self._rows, self._batches = None, stage(pending)
        return self

    def names(self) -> List[Tuple[Optional[str], str]]:
        """``(qualifier, name)`` per column — what a plan node's
        ``columns`` holds when known without running the source."""
        return [(qualifier, column.name)
                for qualifier, column in self.columns]

    def context(self) -> EvalContext:
        """Name-resolution map (qualified + bare) over this relation."""
        return EvalContext.from_columns(self.names())

    @classmethod
    def from_rowset(cls, rowset: Rowset,
                    qualifier: Optional[str]) -> "SourceRelation":
        """Wrap a rowset, qualifying every column with ``qualifier``."""
        columns = [(qualifier, c) for c in rowset.columns]
        return cls(columns, list(rowset.rows))

    @classmethod
    def from_stream(cls, stream: RowStream,
                    qualifier: Optional[str]) -> "SourceRelation":
        """Wrap a row stream without draining it."""
        columns = [(qualifier, c) for c in stream.columns]
        return cls(columns, batches=stream.batches())


class Database:
    """In-memory SQL database: table/view catalog plus an executor."""

    # Views may reference views; this bounds expansion so a (directly or
    # mutually) recursive view definition fails cleanly instead of blowing
    # the interpreter stack.
    MAX_VIEW_DEPTH = 32

    def __init__(self, external_source: Optional[Callable] = None,
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 statistics: bool = True):
        self.tables: Dict[str, Table] = {}
        self.views: Dict[str, ast.SelectStatement] = {}
        # external_source(table_ref) -> planned source | None: a plan node
        # describing a FROM source only the mining layer knows, whose
        # run(batch_size) opens it as a SourceRelation.
        self.external_source = external_source
        # Streaming pipeline granularity: operators exchange row batches of
        # (at most) this many rows; memory is O(batch_size), not O(rows).
        self.batch_size = max(1, int(batch_size))
        # Cost-based planning switch.  When off, tables carry no statistics
        # and every execution-affecting decision (join build side, seek vs
        # scan, parallel gating, prediction pushdown) falls back to the
        # original heuristics — the baseline the differential suite compares
        # against.  Display-only estimates (EST_ROWS/COST) are always
        # computed.
        self.stats_enabled = bool(statistics)
        # store_factory(schema) -> row store; installed by the provider when
        # a paged StorageManager is attached, else tables use the in-memory
        # list store.  metrics is the provider's registry (index counters).
        self.store_factory: Optional[Callable] = None
        self.metrics = None
        self._view_depth = 0
        self._catalog_version = 0

    @property
    def data_version(self) -> int:
        """Monotonic counter covering catalog DDL and every table mutation.

        Cheap to read and strictly increasing, so callers (the caseset
        cache) can key cached derived data on it and never serve stale rows.
        """
        return self._catalog_version + sum(
            table.version for table in self.tables.values())

    def advance_data_version(self, floor: int) -> None:
        """Raise ``data_version`` to at least ``floor`` (snapshot restore).

        Rebuilding a catalog from a snapshot replays fewer mutations than
        the original provider performed, so the freshly computed version
        would restart low; bumping it to the snapshot's recorded value keeps
        the counter monotonic across restore, so version-keyed consumers
        (the caseset cache) can never alias pre-crash state.
        """
        current = self.data_version
        if floor > current:
            self._catalog_version += floor - current

    # -- catalog --------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        key = schema.name.upper()
        if key in self.tables or key in self.views:
            raise CatalogError(f"table or view {schema.name!r} already exists")
        store = self.store_factory(schema) if self.store_factory else None
        table = Table(schema, store=store, with_stats=self.stats_enabled)
        self.tables[key] = table
        self._catalog_version += 1
        return table

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        key = name.upper()
        if key in self.tables:
            # Fold the dropped table's mutation count into the catalog
            # counter so data_version never moves backwards.
            self._catalog_version += 1 + self.tables[key].version
            self.tables[key].dispose()
            del self.tables[key]
        elif key in self.views:
            self._catalog_version += 1
            del self.views[key]
        elif not if_exists:
            raise CatalogError(f"no table or view named {name!r}")

    def table(self, name: str) -> Table:
        try:
            return self.tables[name.upper()]
        except KeyError as exc:
            raise BindError(f"no table named {name!r}") from exc

    def has_table(self, name: str) -> bool:
        return name.upper() in self.tables or name.upper() in self.views

    # -- entry points ---------------------------------------------------------

    def execute(self, command: str) -> Any:
        """Parse and execute one SQL statement; returns a Rowset or a count."""
        return self.execute_ast(parse_statement(command))

    def execute_ast(self, statement: ast.Statement) -> Any:
        if isinstance(statement, ast.SelectStatement):
            return self.execute_select(statement)
        if isinstance(statement, ast.UnionStatement):
            return self.execute_union(statement)
        if isinstance(statement, ast.CreateTableStatement):
            return self._execute_create_table(statement)
        if isinstance(statement, ast.CreateViewStatement):
            key = statement.name.upper()
            if key in self.tables or key in self.views:
                raise CatalogError(
                    f"table or view {statement.name!r} already exists")
            self.views[key] = statement.select
            self._catalog_version += 1
            return 0
        if isinstance(statement, ast.InsertValuesStatement):
            return self._execute_insert(statement)
        if isinstance(statement, ast.DeleteStatement):
            return self._execute_delete(statement)
        if isinstance(statement, ast.UpdateStatement):
            return self._execute_update(statement)
        if isinstance(statement, ast.DropTableStatement):
            self.drop_table(statement.name, statement.if_exists)
            return 0
        if isinstance(statement, ast.CreateIndexStatement):
            self.table(statement.table).create_index(statement.name,
                                                     statement.column)
            self._catalog_version += 1
            return 0
        if isinstance(statement, ast.DropIndexStatement):
            self.table(statement.table).drop_index(statement.name,
                                                   statement.if_exists)
            self._catalog_version += 1
            return 0
        if isinstance(statement, ast.UpdateStatisticsStatement):
            return self._execute_update_statistics(statement)
        raise Error(
            f"statement {type(statement).__name__} is not supported by the "
            f"relational engine (is it a DMX statement issued without a "
            f"mining provider?)")

    # -- DDL / DML ------------------------------------------------------------

    def _execute_create_table(self, statement: ast.CreateTableStatement) -> int:
        columns = [
            ColumnSchema(c.name, type_from_name(c.type_name),
                         nullable=c.nullable, primary_key=c.primary_key)
            for c in statement.columns]
        self.create_table(TableSchema(statement.name, columns))
        return 0

    def _execute_update_statistics(
            self, statement: ast.UpdateStatisticsStatement) -> int:
        """Rebuild optimizer statistics from stored rows; returns the table
        count refreshed.  A rebuild changes no stored data, so cached
        casesets stay valid — but the verb also enables cost-based
        planning on a database opened with ``statistics=False``, and a
        planning-input change must be visible to plan-capture consumers,
        so the catalog version is bumped."""
        if statement.table is not None:
            targets = [self.table(statement.table)]
        else:
            targets = list(self.tables.values())
        for table in targets:
            table.rebuild_statistics()
        self.stats_enabled = True
        self._catalog_version += 1
        return len(targets)

    def _execute_insert(self, statement: ast.InsertValuesStatement) -> int:
        table = self.table(statement.table)
        schema = table.schema
        if statement.columns:
            positions = [schema.index_of(name) for name in statement.columns]
        else:
            positions = list(range(len(schema)))

        def widen(values: List[Any]) -> List[Any]:
            if len(values) != len(positions):
                raise SchemaError(
                    f"INSERT expects {len(positions)} values, got {len(values)}")
            row = [None] * len(schema)
            for position, value in zip(positions, values):
                row[position] = value
            return row

        if statement.select is not None:
            source = self.execute_select(statement.select).rows
        else:
            context = self._constant_context()
            source = ([_constant(e, context) for e in value_row]
                      for value_row in statement.rows)
        # Lazily: a row's cells are evaluated, widened and checked before the
        # next row's, so the first bad row in statement order is the error.
        return table.insert_many(widen(list(row)) for row in source)

    def _execute_delete(self, statement: ast.DeleteStatement) -> int:
        table = self.table(statement.table)
        if statement.where is None:
            count = len(table)
            table.truncate()
            return count
        relation = SourceRelation.from_rowset(table.to_rowset(),
                                              statement.table)
        context = relation.context()
        context.subquery_executor = self.execute_select
        return table.delete_where(
            compile_filter([statement.where], context))

    def _execute_update(self, statement: ast.UpdateStatement) -> int:
        table = self.table(statement.table)
        schema = table.schema
        relation = SourceRelation.from_rowset(table.to_rowset(),
                                              statement.table)
        context = relation.context()
        context.subquery_executor = self.execute_select
        assignments = [
            (schema.index_of(name), compile_expression(expr, context))
            for name, expr in statement.assignments]
        # No WHERE is the empty conjunction: every row passes.
        predicate = compile_filter(
            [statement.where] if statement.where is not None else [],
            context)

        def updater(row):
            new_row = list(row)
            for position, value in assignments:
                new_row[position] = value(row)
            return tuple(new_row)

        return table.update_where(predicate, updater)

    # -- SELECT: plan, then open ----------------------------------------------

    def execute_union(self, statement: ast.UnionStatement) -> Rowset:
        """Concatenate branch results; plain UNION dedups (SQL semantics)."""
        return self.execute_union_stream(statement).materialize()

    def execute_union_stream(self, statement: ast.UnionStatement,
                             batch_size: Optional[int] = None) -> RowStream:
        """Streaming UNION: ALL-only chains stream branch by branch.

        Branch schemas must agree in width; the first branch names the
        output columns.  Any plain (deduplicating) UNION makes the whole
        chain blocking, because each dedup applies to everything
        accumulated so far (left-associative SQL semantics).
        """
        return self.plan_union(statement).run(batch_size or self.batch_size)

    def execute_select(self, statement: ast.SelectStatement) -> Rowset:
        return self.execute_select_stream(statement).materialize()

    def execute_select_stream(self, statement: ast.SelectStatement,
                              batch_size: Optional[int] = None) -> RowStream:
        """Execute a SELECT as a stream of row batches.

        Pipelined operators — scans, joins, WHERE, projection, DISTINCT-free
        TOP — produce output batch by batch, so peak memory for them is
        O(batch_size).  Blocking operators (GROUP BY / aggregates, ORDER BY,
        DISTINCT) consume the stream and materialise, so their semantics
        are unchanged.  Planning and opening both happen eagerly (binding
        errors surface at call time); only row production is lazy.
        """
        return self.plan_select(statement).run(batch_size or self.batch_size)

    def resolve_table_ref(self, ref: ast.TableRef,
                          batch_size: Optional[int] = None) -> SourceRelation:
        """Plan and open one FROM source."""
        return self.plan_table_ref(ref).run(batch_size or self.batch_size)

    def plan_select(self, statement: ast.SelectStatement,
                    external_source: Optional[Callable] = None):
        """Plan a SELECT: the tree EXPLAIN renders, the workload repository
        hashes, and ``run(batch_size)`` executes.

        Every strategy decision — blocking vs. streamed, seek vs. scan,
        join keys and build side, view expansion — is taken here, once,
        reading only the catalog, statistics and index key->position maps:
        no table is scanned, no span opened and no usage counter moved
        until ``run``.  The second positional argument is accepted from
        callers that hold the provider's hook; it is the hook this
        database was constructed with and is not consulted again.
        """
        grouped = bool(statement.group_by) or any(
            contains_aggregate(item.expr) for item in statement.select_list)
        blockers = []
        if grouped:
            blockers.append("group/aggregate")
        if statement.order_by:
            blockers.append("order by")
        if statement.distinct:
            blockers.append("distinct")
        blocking = bool(blockers)
        strategy = (f"materialized ({', '.join(blockers)})" if blocking
                    else f"streamed (batch {self.batch_size})")
        node = obs_explain.PlanNode("select", strategy=strategy)
        details = []
        if statement.where is not None:
            details.append("filtered")
        if statement.top is not None:
            details.append(f"top {statement.top}")
        node.detail = ", ".join(details) or None
        source = expanded = None
        if statement.from_clause is None:
            node.strategy = "constant"
            node.est_rows = 1
            node.cost = 0.0
        else:
            source = node.add(self.plan_table_ref(statement.from_clause,
                                                  statement.where))
            expanded = self._expand_select_list(statement, source.columns)
            if expanded is not None:
                node.columns = [(None, name) for _, name, _ in expanded]

            def estimate(node):
                # A seek narrows the scan, not the estimate: selectivity
                # applies to the whole table either way.
                source_est = (len(self.table(source.target))
                              if source.operator == "index seek"
                              else source.est_rows)
                node.est_rows = self._estimate_select_rows(
                    statement, source_est, grouped)
                examined = (source.est_rows if source.est_rows is not None
                            else node.est_rows)
                node.cost = (source.cost or 0.0) + float(examined or 0)
            node.estimator = estimate
        node.open = lambda _, batch_size: self._open_select(
            statement, source, expanded, grouped, blocking, batch_size)
        return node

    def _open_select(self, statement: ast.SelectStatement, source, expanded,
                     grouped: bool, blocking: bool,
                     batch_size: int) -> RowStream:
        """Open a planned SELECT over its planned ``source``: the
        pipeline, or (blocking) the whole result."""
        if source is None:
            result = self._select_without_from(statement)
        else:
            relation = source.run(batch_size)
            context = relation.context()
            context.subquery_executor = self.execute_select
            if expanded is None:
                # The source named its columns only by running.
                expanded = self._expand_select_list(statement,
                                                    relation.names())
            if not blocking:
                return self._select_streaming(
                    statement, relation, context, expanded, batch_size)
            result = self._execute_select_blocking(
                statement, relation, context, expanded, grouped, batch_size)
        return RowStream.from_rowset(result, batch_size)

    def plan_union(self, statement: ast.UnionStatement):
        """Plan a UNION chain (see :meth:`execute_union_stream`)."""
        streaming = bool(statement.all_rows) and all(statement.all_rows)
        node = obs_explain.PlanNode(
            "union",
            strategy="streamed (all branches ALL)" if streaming
            else "materialized (dedup)")
        for branch in statement.branches:
            node.add(self.plan_select(branch))

        def estimate(node):
            ests = [child.est_rows for child in node.children]
            node.cost = sum((child.cost or 0.0) + float(child.est_rows or 0)
                            for child in node.children)
            if all(e is not None for e in ests):
                # Dedup branches can only thin the output; keep the ALL
                # total as the (upper-bound) estimate either way.
                node.est_rows = sum(ests)
        node.estimator = estimate
        node.open = lambda node, batch_size: self._open_union(
            statement, node.children, streaming, batch_size)
        return node

    def _open_union(self, statement: ast.UnionStatement, branches,
                    streaming: bool, batch_size: int) -> RowStream:
        streams = [branch.run(batch_size) for branch in branches]
        columns = streams[0].columns
        for position, stream in enumerate(streams[1:], start=2):
            if len(stream.columns) != len(columns):
                raise SchemaError(
                    f"UNION branch {position} has {len(stream.columns)} "
                    f"columns, expected {len(columns)}")
        if streaming:
            return RowStream(columns, (batch for stream in streams
                                       for batch in stream.batches()))
        # Left-associative: each plain UNION dedups everything so far,
        # UNION ALL just concatenates.
        rows: List[tuple] = list(streams[0])
        for keep_all, stream in zip(statement.all_rows, streams[1:]):
            rows.extend(stream)
            if not keep_all:
                seen = set()
                unique: List[tuple] = []
                for row in rows:
                    key = _row_key(row)
                    if key not in seen:
                        seen.add(key)
                        unique.append(row)
                rows = unique
        return RowStream.from_rowset(Rowset(columns, rows), batch_size)

    def _filtered_batches(self, statement: ast.SelectStatement,
                          relation: SourceRelation, context: EvalContext,
                          batch_size: int):
        """Scan + WHERE, batch at a time.

        The WHERE is bound here, before the first batch is pulled.  Each
        batch boundary is also a workload checkpoint: live progress (rows
        processed) for ``DM_QUERY_LOG``, and the point where a
        ``CANCEL`` lands mid-scan.
        """
        where = (compile_expression(statement.where, context)
                 if statement.where is not None else None)

        def filtered():
            for batch in relation.batches(batch_size):
                obs_workload.checkpoint(rows=len(batch))
                if where is not None:
                    batch = [row for row in batch if where(row) is True]
                if batch:
                    yield batch
        return filtered()

    @staticmethod
    def _source_positions(expanded, context: EvalContext) \
            -> List[Optional[int]]:
        """Per select-list item, the source position a plain column
        reference reads; None for any other item (and for a reference
        that does not resolve — compiling it raises the ``BindError``).

        A ``*`` column names the position it was expanded from — held
        against the context's map with one probe, because where two
        columns share a ``(qualifier, name)`` the first wins by name and
        the later one must keep reading the earlier position.  That case,
        and every reference the statement spelled out, resolves by name.
        """
        by_name = context.columns
        positions = []
        for expr, _, position in expanded:
            if type(expr) is not ast.ColumnRef:
                position = None
            elif position is None or by_name.get(
                    tuple(map(str.upper, expr.parts))) != position:
                position = context.resolve_index(expr.parts)
            positions.append(position)
        return positions

    def _bind_select_list(self, expanded, relation: SourceRelation,
                          context: EvalContext):
        """Bind the select list, once: ``(project, describe)`` —
        ``project(rows)`` gives the output rows of a batch,
        ``describe(sample_rows)`` the output columns.

        One routine, chosen by what the list *is*.  A list of plain
        columns (:meth:`_source_positions`) binds by position: a row is
        projected by one C-level ``itemgetter`` call, or the batch is
        handed on untouched when the positions are the source's own order.
        Any other list compiles each item to a closure.  Either way an
        item that names a source column is described by that column, and
        only what no source column declares is inferred from
        ``sample_rows``.
        """
        positions = self._source_positions(expanded, context)
        values = repeat(None)
        if None in positions:
            values = [compile_expression(expr, context)
                      for expr, _, _ in expanded]

            def project(rows):
                return [tuple([value(row) for value in values])
                        for row in rows]
        elif positions == list(range(len(relation.columns))):
            def project(rows):
                return rows
        elif len(positions) == 1:
            position, = positions  # itemgetter of one gives no tuple

            def project(rows):
                return [(row[position],) for row in rows]
        else:
            pick = itemgetter(*positions)

            def project(rows):
                return list(map(pick, rows))

        def describe(sample_rows):
            return [self._column_meta(name, relation, position, sample_rows,
                                      value)
                    for (_, name, _), position, value
                    in zip(expanded, positions, values)]
        return project, describe

    def _select_streaming(self, statement: ast.SelectStatement,
                          relation: SourceRelation, context: EvalContext,
                          expanded, batch_size: int) -> RowStream:
        """The non-blocking pipeline: WHERE -> project -> TOP, per batch.
        WHERE and the select list (:meth:`_bind_select_list`) are bound
        before a row is read."""
        source = self._filtered_batches(statement, relation, context,
                                        batch_size)
        project, describe = self._bind_select_list(expanded, relation,
                                                   context)
        # Column typing needs sample rows; buffer the head of the stream
        # (same 20-row sample the materialised path uses) and replay it.
        head: List[List[tuple]] = []
        sample_rows: List[tuple] = []
        for batch in source:
            head.append(batch)
            sample_rows.extend(batch)
            if len(sample_rows) >= 20:
                break
        output_columns = describe(sample_rows)

        def produce():
            remaining = statement.top
            if remaining is not None and remaining <= 0:
                return
            for batch in chain(head, source):
                # Filtered batches are never empty, so neither is ``out``.
                if remaining is not None:
                    batch = batch[:remaining]
                out = project(batch)
                yield out
                if remaining is not None:
                    remaining -= len(out)
                    if remaining == 0:
                        return
        return RowStream(output_columns, produce())

    def _execute_select_blocking(self, statement: ast.SelectStatement,
                                 relation: SourceRelation,
                                 context: EvalContext, expanded,
                                 grouped: bool, batch_size: int) -> Rowset:
        """GROUP BY / ORDER BY / DISTINCT path: bind every per-row
        expression, then consume the source and materialise."""
        batches = self._filtered_batches(statement, relation, context,
                                         batch_size)
        if grouped:
            output_columns, output_rows = self._execute_grouped(
                statement, relation, context, expanded, batches)
        else:
            project, describe = self._bind_select_list(expanded, relation,
                                                       context)
            order_keys = self._bind_order_by(statement, expanded, context)
            rows = [row for batch in batches for row in batch]
            output_columns = describe(rows)
            output_rows = project(rows)

        if statement.distinct:
            # Dedup output rows while keeping each survivor paired with its
            # source row, so ORDER BY over source expressions stays aligned.
            seen = set()
            unique_rows = []
            unique_sources = []
            for position, row in enumerate(output_rows):
                key = _row_key(row)
                if key not in seen:
                    seen.add(key)
                    unique_rows.append(row)
                    if not grouped:
                        unique_sources.append(rows[position])
            output_rows = unique_rows
            if not grouped:
                rows = unique_sources

        if statement.order_by and not grouped:  # grouped rows sort there
            output_rows = self._order_rows(statement, order_keys,
                                           output_rows, rows)

        if statement.top is not None:
            output_rows = output_rows[:statement.top]

        return Rowset(output_columns, output_rows)

    def _constant_context(self) -> EvalContext:
        """What binds an expression that has no row to read (a VALUES
        cell, a FROM-less select item): no column resolves, subqueries
        run."""
        context = EvalContext({})
        context.subquery_executor = self.execute_select
        return context

    def _select_without_from(self, statement: ast.SelectStatement) -> Rowset:
        context = self._constant_context()
        columns: List[RowsetColumn] = []
        values: List[Any] = []
        for position, item in enumerate(statement.select_list):
            if isinstance(item.expr, ast.Star):
                raise BindError("SELECT * requires a FROM clause")
            value = _constant(item.expr, context)
            values.append(value)
            columns.append(RowsetColumn(
                item.alias or f"Expr{position + 1}", infer_type(value)))
        return Rowset(columns, [tuple(values)])

    def _expand_select_list(self, statement: ast.SelectStatement, columns):
        """Expand ``*``/``alias.*`` into concrete ``(expr, name,
        position)`` items over the source's ``(qualifier, name)`` columns:
        ``position`` is the source position a ``*`` column was expanded
        from, None for an item the statement spelled out.  None when a
        ``*`` meets a source whose columns are unknown until it runs."""
        expanded: List[Tuple[ast.Expr, str, Optional[int]]] = []
        for ordinal, item in enumerate(statement.select_list):
            if isinstance(item.expr, ast.Star):
                if columns is None:
                    return None
                star = item.expr.qualifier
                for position, (qualifier, name) in enumerate(columns):
                    if star is not None and \
                            (qualifier or "").upper() != star.upper():
                        continue
                    parts = (qualifier, name) if qualifier else (name,)
                    expanded.append(
                        (ast.ColumnRef(parts=parts), name, position))
                continue
            name = item.alias or self._default_name(item.expr, ordinal)
            expanded.append((item.expr, name, None))
        return expanded

    @staticmethod
    def _default_name(expr: ast.Expr, position: int) -> str:
        if isinstance(expr, ast.ColumnRef):
            return expr.name
        if isinstance(expr, ast.FuncCall):
            return expr.name
        return f"Expr{position + 1}"

    @staticmethod
    def _column_meta(name: str, relation: SourceRelation,
                     position: Optional[int], sample_rows: List[tuple],
                     value: Optional[Callable]) -> RowsetColumn:
        """Output column typing: the declared type (and nested columns) of
        the source column at ``position`` when the item names one, else
        best effort — inferred from ``value`` (the item compiled) over the
        head of the sample."""
        if position is not None:
            source = relation.columns[position][1]
            return RowsetColumn(name, source.type,
                                nested_columns=source.nested_columns)
        for row in sample_rows[:20]:
            sample = value(row)
            if isinstance(sample, Rowset):
                return RowsetColumn(name, TABLE,
                                    nested_columns=list(sample.columns))
            if sample is not None:
                return RowsetColumn(name, infer_type(sample))
        return RowsetColumn(name, TEXT)

    # -- grouping -------------------------------------------------------------

    def _execute_grouped(self, statement, relation, context, expanded,
                         batches):
        """GROUP BY / aggregates over the filtered ``batches``.

        Everything is bound before the first batch is pulled: what runs
        per source row (the GROUP BY keys, the aggregates' arguments)
        against ``context``, what runs per group (HAVING, the select list,
        ORDER BY) against a :class:`_GroupContext`.
        """
        aggregate_nodes: List[ast.FuncCall] = []

        def collect(expr):
            if is_aggregate_call(expr):
                aggregate_nodes.append(expr)
                return
            for child in ast.children(expr):
                collect(child)

        for expr, _, _ in expanded:
            collect(expr)
        if statement.having is not None:
            collect(statement.having)
        for item in statement.order_by:
            collect(item.expr)

        group_keys = [compile_expression(g, context)
                      for g in statement.group_by]
        # COUNT(*) / COUNT() count rows and have no argument to bind.
        arguments = [
            compile_expression(node.args[0], context)
            if node.args and not isinstance(node.args[0], ast.Star) else None
            for node in aggregate_nodes]
        group_context = _GroupContext(context, aggregate_nodes)
        having = (compile_expression(statement.having, group_context)
                  if statement.having is not None else None)
        outputs = [compile_expression(expr, group_context)
                   for expr, _, _ in expanded]
        order_keys = self._bind_order_by(statement, expanded, group_context,
                                         bare_only=False)

        # Bucket rows by the GROUP BY key (one global bucket if none).
        buckets: Dict[tuple, List[tuple]] = {}
        group_key = V.group_key
        for batch in batches:
            for row in batch:
                key = tuple([group_key(g(row)) for g in group_keys])
                if key not in buckets:
                    buckets[key] = []
                buckets[key].append(row)
        if not statement.group_by and not buckets:
            buckets[()] = []

        output_rows = []
        groups = []
        for bucket in buckets.values():
            values = []
            for node, argument in zip(aggregate_nodes, arguments):
                accumulator = make_aggregate(
                    node.name, count_rows=argument is None,
                    distinct=node.distinct)
                for row in bucket:
                    accumulator.add(
                        None if argument is None else argument(row))
                values.append(accumulator.result())
            group = (bucket[0] if bucket
                     else tuple([None] * len(relation.columns)), values)
            if having is not None and having(group) is not True:
                continue
            output_rows.append(tuple([output(group) for output in outputs]))
            groups.append(group)

        output_columns = []
        for position, (_, name, _) in enumerate(expanded):
            sample = next(
                (row[position] for row in output_rows if row[position] is not None),
                None)
            output_columns.append(RowsetColumn(name, infer_type(sample)))
        if statement.order_by:
            output_rows = self._order_rows(statement, order_keys,
                                           output_rows, groups)
        return output_columns, output_rows

    # -- ordering -------------------------------------------------------------

    @staticmethod
    def _bind_order_by(statement, expanded, context, bare_only=True):
        """One ``(reads_output, row -> value)`` pair per ORDER BY item: a
        name matching an output column (a bare one only, unless the SELECT
        is grouped) reads the output row, anything else is compiled against
        the source row — for a grouped SELECT, the group."""
        names = [name.upper() for _, name, _ in expanded]
        bound = []
        for item in statement.order_by:
            expr = item.expr
            if isinstance(expr, ast.ColumnRef) and expr.name.upper() in names \
                    and (len(expr.parts) == 1 or not bare_only):
                bound.append((True, itemgetter(
                    names.index(expr.name.upper()))))
            else:
                bound.append((False, compile_expression(expr, context)))
        return bound

    @staticmethod
    def _order_rows(statement, order_keys, output_rows, source_rows):
        """``output_rows`` in ORDER BY order.  Rows that already stand in
        it — an insertion-ordered scan under a SHAPE source's ORDER BY —
        are returned as they are: a stable sort of ordered input is the
        identity."""
        columns = [list(map(value, output_rows if reads_output
                            else source_rows))
                   for reads_output, value in order_keys]
        directions = [item.ascending for item in statement.order_by]
        if _already_ordered(columns, directions):
            return output_rows
        keys = list(zip(*[map(V.sort_key, column) for column in columns]))
        return _multi_key_sort(output_rows, keys, directions)

    # -- cardinality estimation (repro.sqlstore.stats) -------------------------
    #
    # Display-only: each plan node's ``estimator`` calls into these when
    # EXPLAIN renders the tree or the workload repository captures it.  The
    # one execution-affecting reader is :meth:`_hash_build_side`.

    def _stats_resolver(self, ref: ast.TableRef):
        """``resolver(parts) -> (ColumnStats, row_count) | None`` for
        :func:`stats.estimate_selectivity`, honouring alias qualifiers.

        Joins try the left side first, then the right; views and external
        sources resolve nothing (selectivity falls back to defaults).
        """
        if isinstance(ref, ast.NamedTable):
            key = ref.name.upper()
            if key in self.views:
                return lambda parts: None
            table = self.tables.get(key)
            if table is None or table.stats is None:
                return lambda parts: None
            qualifier = (ref.alias or ref.name).upper()

            def resolve(parts):
                if len(parts) > 1 and parts[0].upper() != qualifier:
                    return None
                try:
                    # May lazily rebuild after a paged reopen — and that
                    # rebuild reads pages, so estimation degrades to the
                    # defaults rather than surfacing a storage error here.
                    table_stats = table.statistics()
                except Exception:
                    return None
                if table_stats is None:
                    return None
                column = table_stats.column(parts[-1])
                if column is None:
                    return None
                return column, table_stats.row_count
            return resolve
        if isinstance(ref, ast.Join):
            left = self._stats_resolver(ref.left)
            right = self._stats_resolver(ref.right)

            def resolve(parts):
                found = left(parts)
                return found if found is not None else right(parts)
            return resolve
        return lambda parts: None

    def _estimate_join(self, ref: ast.Join, left_est: Optional[int],
                       right_est: Optional[int], equalities,
                       residual) -> Optional[int]:
        """Estimated join output rows from the planned sides' estimates
        (None when either is unknown) and the join's bound equi keys."""
        if ref.kind == "CROSS":
            return stats_mod.estimate_join_rows(
                "CROSS", left_est, right_est, False)
        ndvs = (None, None)
        if equalities:
            ndvs = (self._equi_key_ndv(ref.left, equalities),
                    self._equi_key_ndv(ref.right, equalities))
        est = stats_mod.estimate_join_rows(
            ref.kind, left_est, right_est, bool(equalities), ndvs)
        if est is not None and residual:
            resolver = self._stats_resolver(ref)
            selectivity = 1.0
            for condition in residual:
                selectivity *= stats_mod.estimate_selectivity(
                    condition, resolver)
            est = int(round(est * selectivity))
        return est

    def _equi_key_ndv(self, ref: ast.TableRef, equalities) -> Optional[int]:
        """NDV of one join side's first equi-key column, when its stats
        are known (the equality may spell either side first)."""
        resolver = self._stats_resolver(ref)
        a, b = equalities[0]
        for column_ref in (a, b):
            found = resolver(column_ref.parts)
            if found is not None:
                return found[0].ndv
        return None

    def _expr_ndv(self, expr: ast.Expr, resolver) -> Optional[int]:
        if isinstance(expr, ast.ColumnRef):
            found = resolver(expr.parts)
            if found is not None:
                return found[0].ndv
        return None

    def _estimate_select_rows(self, statement: ast.SelectStatement,
                              source_est: Optional[int],
                              grouped: bool) -> Optional[int]:
        """Estimated output rows of a SELECT over a FROM source of
        ``source_est`` rows (None in, None out)."""
        if source_est is None:
            return None
        resolver = self._stats_resolver(statement.from_clause)
        est = float(source_est)
        if statement.where is not None:
            est *= stats_mod.estimate_selectivity(statement.where, resolver)
        if grouped:
            ndvs = [self._expr_ndv(expr, resolver)
                    for expr in statement.group_by]
            est = float(stats_mod.estimate_group_rows(int(round(est)), ndvs))
        elif statement.distinct:
            exprs = [item.expr for item in statement.select_list]
            if not any(isinstance(expr, ast.Star) for expr in exprs):
                ndvs = [self._expr_ndv(expr, resolver) for expr in exprs]
                est = float(stats_mod.estimate_group_rows(
                    int(round(est)), ndvs))
        if statement.top is not None:
            est = min(est, float(statement.top))
        return max(0, int(round(est)))

    # -- cost-based decisions --------------------------------------------------

    def _hash_build_side(self, left, right) -> str:
        """``"left"`` when statistics are on and the planned left side's
        estimate is strictly smaller (both known), else ``"right"`` — the
        heuristic the differential suite's ``statistics=False`` baseline
        keeps bit-for-bit."""
        if not self.stats_enabled:
            return "right"
        left_est, right_est = left.estimate(), right.estimate()
        if left_est is None or right_est is None or left_est >= right_est:
            return "right"
        return "left"

    def _seek_is_beneficial(self, table: Table, positions) -> bool:
        """Cost-gate an index seek against the sequential scan (page-aware
        on a paged store).  Without statistics the original always-seek
        behaviour is kept."""
        if not self.stats_enabled:
            return True
        return table.store.seek_cost(positions) < table.store.scan_cost()

    # -- FROM sources -----------------------------------------------------------

    def plan_table_ref(self, ref: ast.TableRef,
                       where: Optional[ast.Expr] = None):
        """Plan a FROM source; its ``run(batch_size)`` opens a
        :class:`SourceRelation`.

        ``where`` is the enclosing SELECT's predicate (only
        :meth:`plan_select` passes it): a base table may answer its
        leftmost sargable conjunct with an index seek.  The full WHERE is
        still re-applied by the filter stage, so a seek only narrows the
        scan.
        """
        if self.external_source is not None:
            planned = self.external_source(ref)
            if planned is not None:
                return planned
        if isinstance(ref, ast.NamedTable):
            key = ref.name.upper()
            if key in self.views:
                return self._plan_view(ref, self.views[key])
            if key in self.tables:
                return self._plan_base_table(ref, self.tables[key], where)
            raise BindError(f"no table, view, or model named {ref.name!r}")
        if isinstance(ref, ast.SubquerySource):
            node = self.plan_select(ref.select)
            node.operator = "subquery"
            node.target = ref.alias
            return as_from_source(node, ref.alias)
        if isinstance(ref, ast.Join):
            return self._plan_join(ref)
        raise BindError(
            f"FROM source {type(ref).__name__} requires the mining provider")

    def _plan_view(self, ref: ast.NamedTable, definition):
        if self._view_depth >= self.MAX_VIEW_DEPTH:
            raise Error(
                f"view expansion exceeded depth {self.MAX_VIEW_DEPTH} at "
                f"{ref.name!r} — is the view recursive?")
        self._view_depth += 1
        try:
            child = self.plan_select(definition)
        finally:
            self._view_depth -= 1
        node = obs_explain.PlanNode(
            "view", target=ref.name, strategy="inline expansion",
            open=lambda _, batch_size: child.run(batch_size))
        node.add(child)
        node.columns = child.columns

        def estimate(node):
            node.est_rows, node.cost = child.est_rows, child.cost
        node.estimator = estimate
        return as_from_source(node, ref.alias or ref.name)

    def _plan_base_table(self, ref: ast.NamedTable, table: Table,
                         where: Optional[ast.Expr]):
        """Index seek when the WHERE allows one and it beats the scan by
        cost, else the sequential scan.  Seek positions stream in
        ascending order, so either path yields byte-identical rows."""
        qualifier = ref.alias or ref.name
        columns = [(qualifier, c) for c in table.rowset_columns()]
        store = table.store
        choice = choose_index(where, table, qualifier)
        # Wide seeks (most of the table, or cold pages a scan would read
        # anyway) cost more than the sequential scan.
        if choice is not None and \
                self._seek_is_beneficial(table, choice.positions):
            def seek(_, batch_size):
                choice.note_use()
                if self.metrics is not None:
                    name = ("index.range_seeks" if choice.access == "range"
                            else "index.seeks")
                    self.metrics.counter(name).inc()
                obs_trace.add("index_seeks", 1)
                return SourceRelation(columns, batches=store.iter_positions(
                    choice.positions, batch_size))

            def estimate(node):
                node.cost = float(store.seek_cost(choice.positions))
                # On a paged store: how many of the pages the seek will
                # touch are buffer-resident right now.
                expectation = store.seek_expectation(choice.positions)
                if expectation is not None:
                    node.detail = f"{choice.detail}; {expectation}"
            node = obs_explain.PlanNode(
                "index seek", target=ref.name,
                strategy=f"index {choice.index.name} ({choice.access})",
                detail=choice.detail, est_rows=len(choice.positions),
                open=seek)
        else:
            def estimate(node):
                node.cost = float(store.scan_cost())
            node = obs_explain.PlanNode(
                "table scan", target=ref.name,
                strategy=f"sequential (batch {self.batch_size})",
                est_rows=len(table),
                open=lambda _, batch_size: SourceRelation(
                    columns, batches=table.iter_batches(batch_size)))
        node.estimator = estimate
        node.columns = [(qualifier, c.name) for _, c in columns]
        return node

    def _plan_join(self, ref: ast.Join):
        left = self.plan_table_ref(ref.left)
        right = self.plan_table_ref(ref.right)
        node = obs_explain.PlanNode("join", target=ref.kind.lower())
        node.add(left)
        node.add(right)
        method = None
        if left.columns is not None and right.columns is not None:
            node.columns = left.columns + right.columns
        if node.columns is not None or ref.kind == "CROSS":
            method = self._join_method(ref, left, right,
                                       left.columns, right.columns)
            node.strategy = method.strategy
        else:
            # A mining-provider leaf names its columns only by running:
            # _open_join calls the same _join_method once they exist and
            # restates the strategy with what it then executes.
            node.strategy = "join method chosen at open " \
                            "(a side's columns are unknown until it runs)"

        def estimate(node):
            equalities, residual = (
                (method.equalities, method.residual) if method is not None
                else _split_equi_condition(ref.condition))
            left_est, right_est = left.est_rows, right.est_rows
            node.est_rows = self._estimate_join(ref, left_est, right_est,
                                                equalities, residual)
            if equalities:
                work = float((left_est or 0) + (right_est or 0)
                             + (node.est_rows or 0))
            else:
                work = float((left_est or 0) * (right_est or 0))
            node.cost = (left.cost or 0.0) + (right.cost or 0.0) + work
        node.estimator = estimate
        node.open = lambda node, batch_size: self._open_join(
            node, ref, method, batch_size)
        return node

    def _join_method(self, ref: ast.Join, left, right, left_names,
                     right_names) -> "_JoinMethod":
        """Decide how a join runs, from the two sides' column names: which
        ON equalities bind as hash keys (the rest stay residual), and what
        builds the hash.  The one decision both EXPLAIN's strategy text and
        :meth:`_open_join` read."""
        if ref.kind == "CROSS":
            return _JoinMethod("cross product (right side materialized)")
        equalities, residual = _split_equi_condition(ref.condition)
        left_context = EvalContext.from_columns(left_names)
        right_context = EvalContext.from_columns(right_names)
        pairs, bound = [], []
        for a, b in equalities:
            a_index = left_context.resolve_index(a.parts)
            b_index = right_context.resolve_index(b.parts)
            if a_index is None or b_index is None:
                # Sides may be written in either order.
                a_index = left_context.resolve_index(b.parts)
                b_index = right_context.resolve_index(a.parts)
            if a_index is None or b_index is None:
                residual.append(ast.BinaryOp("=", a, b))
                continue
            pairs.append((a_index, b_index))
            bound.append((a, b))
        if not pairs:
            return _JoinMethod("nested loop (right side materialized)",
                               residual=tuple(residual))
        # A user index on the first equi column of a base-table right side
        # already holds the hash buckets the scan would build.  (For a base
        # table the relation's column ordinals are the schema ordinals.)
        index = None
        if right.operator == "table scan":
            index = self.table(right.target).index_on(pairs[0][1])
        if index is not None:
            return _JoinMethod(
                f"hash join (right side index {index.name})", tuple(pairs),
                tuple(bound), tuple(residual), build_index=index)
        side = self._hash_build_side(left, right)
        return _JoinMethod(f"hash join ({side} side build)", tuple(pairs),
                           tuple(bound), tuple(residual),
                           build_left=side == "left")

    def _open_join(self, node, ref: ast.Join, method: "Optional[_JoinMethod]",
                   batch_size: int) -> SourceRelation:
        """Streaming join: materialise the build side, stream the probe
        side batch by batch.  Output row order is left-major whichever side
        builds."""
        left_plan, right_plan = node.children
        left = left_plan.run(batch_size)
        right = right_plan.run(batch_size)
        columns = left.columns + right.columns
        right_width = len(right.columns)
        if method is None:
            method = self._join_method(ref, left_plan, right_plan,
                                       left.names(), right.names())
            node.strategy = method.strategy

        if ref.kind == "CROSS":
            right_rows = right.rows  # build side

            def produce_cross():
                for batch in left.batches(batch_size):
                    out = [l + r for l in batch for r in right_rows]
                    if out:
                        yield out
            return SourceRelation(columns, batches=produce_cross())

        pairs = method.pairs
        # Bound against the joined row before the build side is read.
        joined_context = EvalContext.from_columns(
            left.names() + right.names())
        residual_ok = compile_filter(method.residual, joined_context)
        # Without a bound equi pair the whole ON is the loop condition.
        condition = (compile_expression(ref.condition, joined_context)
                     if not pairs else None)
        right_rows: List[tuple] = []
        prebuilt: Optional[Dict[Any, List[tuple]]] = None
        if method.build_index is not None:
            # Positions per key are in insertion order, so the bucket
            # lists (and thus output order) are identical to the
            # scan-built dict.  One sequential read — the right side's
            # scan — fills them all: a paged build side loads each page
            # once, in page order.  A row appended after that read is
            # invisible, as to a scan.
            build_index = method.build_index
            build_rows = right.rows
            limit = len(build_rows)
            prebuilt = {
                key: [build_rows[position] for position in positions
                      if position < limit]
                for key, positions in build_index.hash.items()}
            build_index.join_probes += 1
            if self.metrics is not None:
                self.metrics.counter("index.join_probes").inc()
        elif not method.build_left:
            right_rows = right.rows  # build side

        def produce_left_build():
            # Cost-chosen swap: the (estimated-smaller) left side builds
            # the hash, the right side streams as the probe.  Output stays
            # byte-identical to the right-build plan: matches accumulate
            # per left position in right-arrival order — exactly the order
            # a right-build bucket would replay them — and rows are emitted
            # left-major over the original left batch boundaries.
            first_left, first_right = pairs[0]
            left_flat: List[tuple] = []
            boundaries: List[int] = []
            build: Dict[Any, List[int]] = {}
            for batch in left.batches(batch_size):
                boundaries.append(len(batch))
                for l in batch:
                    position = len(left_flat)
                    left_flat.append(l)
                    if l[first_left] is not None:
                        build.setdefault(
                            V.group_key(l[first_left]), []).append(position)
            matches: List[List[tuple]] = [[] for _ in left_flat]
            for right_batch in right.batches(batch_size):
                for r in right_batch:
                    if r[first_right] is None:
                        continue
                    for position in build.get(
                            V.group_key(r[first_right]), ()):
                        l = left_flat[position]
                        if all(V.sql_equal(l[a], r[b]) is True
                               for a, b in pairs[1:]):
                            if residual_ok(l + r):
                                matches[position].append(r)
            cursor = 0
            for size in boundaries:
                out = []
                for position in range(cursor, cursor + size):
                    l = left_flat[position]
                    for r in matches[position]:
                        out.append(l + r)
                    if ref.kind == "LEFT" and not matches[position]:
                        out.append(l + tuple([None] * right_width))
                cursor += size
                if out:
                    yield out

        def produce():
            build: Optional[Dict[Any, List[tuple]]] = None
            if pairs:
                # Hash join on the first equi pair; verify the rest per
                # candidate.  An index-built dict (prebuilt) short-cuts
                # the build scan.
                build = prebuilt
                if build is None:
                    build = {}
                    first_right = pairs[0][1]
                    for r in right_rows:
                        build.setdefault(
                            V.group_key(r[first_right]), []).append(r)
            for batch in left.batches(batch_size):
                out = []
                if pairs:
                    first_left = pairs[0][0]
                    for l in batch:
                        matched = False
                        if l[first_left] is not None:
                            for r in build.get(V.group_key(l[first_left]), []):
                                if all(V.sql_equal(l[a], r[b]) is True
                                       for a, b in pairs[1:]):
                                    candidate = l + r
                                    if residual_ok(candidate):
                                        out.append(candidate)
                                        matched = True
                        if ref.kind == "LEFT" and not matched:
                            out.append(l + tuple([None] * right_width))
                else:
                    for l in batch:
                        matched = False
                        for r in right_rows:
                            candidate = l + r
                            if condition(candidate) is True:
                                out.append(candidate)
                                matched = True
                        if ref.kind == "LEFT" and not matched:
                            out.append(l + tuple([None] * right_width))
                if out:
                    yield out
        if method.build_left:
            return SourceRelation(columns, batches=produce_left_build())
        return SourceRelation(columns, batches=produce())


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def as_from_source(node, qualifier: Optional[str]):
    """Turn a plan node whose ``run`` opens a :class:`RowStream` (a planned
    SELECT or SHAPE) into a FROM source under ``qualifier``."""
    open_stream = node.open
    node.open = lambda node, batch_size: SourceRelation.from_stream(
        open_stream(node, batch_size), qualifier)
    if node.columns is not None:
        node.columns = [(qualifier, name) for _, name in node.columns]
    return node


class _JoinMethod(NamedTuple):
    """How one join runs — decided by :meth:`Database._join_method`."""

    strategy: str
    #: Bound equi keys as (left ordinal, right ordinal); empty means no
    #: hash (cross product or nested loop over the whole ON condition).
    pairs: Tuple[Tuple[int, int], ...] = ()
    #: The ON equalities behind ``pairs`` (for key-NDV estimates).
    equalities: Tuple[Tuple[ast.ColumnRef, ast.ColumnRef], ...] = ()
    #: Conjuncts checked per candidate, unbound equalities included.
    residual: Tuple[ast.Expr, ...] = ()
    #: The right-side user index that supplies the buckets, if one does.
    build_index: Optional[Any] = None
    #: The (estimated-smaller) left side builds and the right side probes.
    build_left: bool = False


class _GroupContext(EvalContext):
    """The binder of what a grouped SELECT evaluates per group — HAVING,
    the select list, ORDER BY.  Compiled over it, an expression is a
    closure over a *group*, ``(representative_row, aggregate_values)``: an
    aggregate call (by node identity) reads its slot of the values, a
    column reference reads the representative row."""

    def __init__(self, context: EvalContext,
                 aggregate_nodes: List[ast.FuncCall]):
        super().__init__(context.columns)
        self.subquery_executor = context.subquery_executor
        self._subquery_cache = context._subquery_cache
        self.slots = {id(node): slot
                      for slot, node in enumerate(aggregate_nodes)}

    def bind_column(self, ref: ast.ColumnRef) -> Callable[[tuple], Any]:
        read = super().bind_column(ref)
        return lambda group: read(group[0])

    def bind_function(self, call: ast.FuncCall) -> Callable[[tuple], Any]:
        slot = self.slots.get(id(call))
        if slot is None:
            return super().bind_function(call)
        return lambda group: group[1][slot]


def _row_key(row: tuple) -> tuple:
    """Hashable identity of a row for DISTINCT / UNION dedup."""
    return tuple(V.group_key(v) if not isinstance(v, Rowset) else id(v)
                 for v in row)


def _constant(expr: ast.Expr, context: EvalContext) -> Any:
    """The value of an expression evaluated once, with no row to read: a
    literal — nearly every VALUES cell — is read directly, anything else
    compiles and runs."""
    if type(expr) is ast.Literal:
        return expr.value
    return compile_expression(expr, context)(())


def _split_equi_condition(condition: Optional[ast.Expr]):
    """Split an AND tree into column=column pairs and residual predicates."""
    equalities: List[Tuple[ast.ColumnRef, ast.ColumnRef]] = []
    residual: List[ast.Expr] = []
    for expr in ast.conjuncts(condition):
        if isinstance(expr, ast.BinaryOp) and expr.op == "=" and \
                isinstance(expr.left, ast.ColumnRef) and \
                isinstance(expr.right, ast.ColumnRef):
            equalities.append((expr.left, expr.right))
        else:
            residual.append(expr)
    return equalities, residual


#: Up to here every int is its own float, so native int order is
#: ``sort_key`` order exactly (beyond it distinct ints share a key).
_EXACT_INT = 2 ** 53


def _already_ordered(columns: List[list], directions: List[bool]) -> bool:
    """Whether rows whose ORDER BY values are ``columns`` (one list per
    key) already stand where :func:`_multi_key_sort` would put them.

    Adjacent rows are compared on the raw values, a key's pairs in one
    ``map`` — the first key over every pair, each later key over the pairs
    the keys before it left equal — and the first pair out of order ends
    the test, which is where an unsorted input ends it.  NULL and mixed
    type classes raise ``TypeError``; they, a NaN (which orders against
    nothing) and every column :func:`_orders_natively` does not vouch for
    go to the sort."""
    tied = range(len(columns[0]) - 1)   # i: rows i and i + 1 still tie
    try:
        for values, ascending in zip(columns, directions):
            if isinstance(tied, range):     # every pair: the key's neighbours
                left, right = values[:-1], values[1:]
            else:
                left = list(map(values.__getitem__, tied))
                right = list(map(values.__getitem__, map((1).__add__, tied)))
            if any(map(gt, left, right) if ascending
                   else map(gt, right, left)):
                return False
            tied = list(compress(tied, map(eq, left, right)))
            if not tied:
                break
    except TypeError:
        return False
    return all(map(_orders_natively, columns))


def _orders_natively(values: list) -> bool:
    """Whether native ``<`` / ``==`` on ``values`` agree with their
    ``sort_key``s, ties included: one type class whose key is the value
    (``str``, ``date`` by ordinal, ``float`` without a NaN — one in a key
    no tie consults would still steer the sort's pass over that key) or
    ``int`` / ``bool`` small enough to be their own floats.  A
    ``datetime`` is keyed by its day alone, so it is not among them."""
    kinds = set(map(type, values))
    if kinds <= {int, bool}:
        return not kinds or (-_EXACT_INT <= min(values)
                             and max(values) <= _EXACT_INT)
    if kinds == {float}:
        return all(map(eq, values, values))
    return len(kinds) == 1 and kinds <= {str, datetime.date}


def _multi_key_sort(rows: List[tuple], keys: List[tuple],
                    directions: List[bool]) -> List[tuple]:
    """Stable multi-key sort honouring per-key ASC/DESC."""
    indexed = list(range(len(rows)))
    # Sort by the last key first (stable sorts compose right-to-left).
    for position in reversed(range(len(directions))):
        indexed.sort(key=lambda i: keys[i][position],
                     reverse=not directions[position])
    return [rows[i] for i in indexed]
