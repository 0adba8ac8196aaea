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
workload repository hashes it, ``execute_select`` opens it.
Planning is two steps, one path: :meth:`Database.prepare` takes what a
statement *shape* decides (:class:`Prepared`), :meth:`Database.bind` what
reads the statement's literals; the provider keeps a shape's prepared plan
beside its statement template and binds every later statement of it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import replace
from functools import partial, reduce
from itertools import chain, compress
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


class Prepared:
    """A SELECT or UNION shape planned against one catalog state: what
    planning and opening its statements decide without reading one of
    their literals.  :meth:`Database.prepare` makes it;
    :meth:`Database.bind` plans one statement of the shape from it — a
    fresh tree of a few nodes — and leaves to that tree only what reads a
    value: the index choice and the seek-vs-scan gate, the estimates, the
    WHERE and whatever else compiles against a per-statement context.  Over a base table it holds the
    table's columns, the select list expanded over them and ``bound``: the
    context's column map and, for an ungrouped list, its
    :meth:`Database._select_binding`.  ``hashes`` holds the caller's
    ``(skeleton, hash)`` per access variant (:meth:`variant`)."""

    # branches: a UNION's; base: (ref, table, columns) of a base-table
    # source, and expanded: the select list (the template-shared
    # select_list) expanded over its columns; tables: the base tables
    # every branch reads (None when a source is planned per statement: a
    # view, join, subquery or one of the mining layer's) — whether the
    # caller may keep the plan.  What is prepared is derived from the
    # catalog alone, so the catalog version is all a kept plan is valid for.
    branches = base = bound = select_list = expanded = tables = None

    def __init__(self):
        self.hashes: Dict[Any, tuple] = {}

    def variant(self, plan) -> Optional[str]:
        """What tells ``plan``'s skeleton from the other plans of this
        shape: the access path of a SELECT's base table (all else is fixed
        here); None when the source is planned per statement."""
        return None if self.base is None else plan.children[0].strategy


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
        # Bumped by every DDL and UPDATE STATISTICS: what a prepared plan
        # is valid for.
        self.catalog_version = 0

    @property
    def data_version(self) -> int:
        """Monotonic counter covering catalog DDL and every table mutation.

        Cheap to read and strictly increasing, so callers (the caseset
        cache) can key cached derived data on it and never serve stale rows.
        """
        return self.catalog_version + sum(
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
            self.catalog_version += floor - current

    # -- catalog --------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        key = schema.name.upper()
        if key in self.tables or key in self.views:
            raise CatalogError(f"table or view {schema.name!r} already exists")
        store = self.store_factory(schema) if self.store_factory else None
        table = Table(schema, store=store, with_stats=self.stats_enabled)
        self.tables[key] = table
        self.catalog_version += 1
        return table

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        key = name.upper()
        if key in self.tables:
            # Fold the dropped table's mutation count into the catalog
            # counter so data_version never moves backwards.
            self.catalog_version += 1 + self.tables[key].version
            self.tables[key].dispose()
            del self.tables[key]
        elif key in self.views:
            self.catalog_version += 1
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
        """Plan ``statement`` (:meth:`plan`), then run it: a Rowset for a
        query, a count for anything else."""
        result = self.plan(statement).run(self.batch_size)
        return result.materialize() if isinstance(result, RowStream) \
            else result

    def plan(self, statement: ast.Statement):
        """The plan of a relational statement: the tree EXPLAIN renders and
        ``run(batch_size)`` executes.  A query is its operator tree; DDL and
        DML are one node, with an INSERT's SELECT under it, whose run
        applies the statement — looking its table up again — and returns
        its count."""
        if isinstance(statement, ast.SelectStatement):
            return self.plan_select(statement)
        if isinstance(statement, ast.UnionStatement):
            return self.plan_union(statement)
        whole = obs_explain.whole
        if isinstance(statement, ast.InsertValuesStatement):
            node = obs_explain.PlanNode(
                "insert", target=statement.table, strategy="row append",
                open=partial(self._execute_insert, statement))
            if statement.select is None:
                node.est_rows = len(statement.rows)
            else:
                node.add(self.plan_select(statement.select))
                node.estimator = obs_explain.copy_child_rows
            return node
        if isinstance(statement, ast.DeleteStatement):
            return whole("delete", statement.table,
                         "truncate" if statement.where is None
                         else "scan + predicate delete",
                         self._execute_delete, statement,
                         est_rows=self._where_rows(statement))
        if isinstance(statement, ast.UpdateStatement):
            return whole("update", statement.table, "scan + predicate update",
                         self._execute_update, statement,
                         est_rows=self._where_rows(statement))
        if isinstance(statement, ast.UpdateStatisticsStatement):
            tables = (list(self.tables.values()) if statement.table is None
                      else [self.table(statement.table)])
            return whole("update statistics",
                         statement.table or "(all tables)",
                         "full rebuild from stored rows",
                         self._execute_update_statistics, statement,
                         detail=f"{len(tables)} table(s)",
                         est_rows=sum(map(len, tables)))
        if isinstance(statement, ast.CreateTableStatement):
            return whole("create table", statement.name, "catalog only",
                         self._execute_create_table, statement)
        if isinstance(statement, ast.CreateViewStatement):
            return whole("create view", statement.name,
                         "catalog only (definition stored)",
                         self._execute_create_view, statement)
        if isinstance(statement, ast.DropTableStatement):
            return whole("drop table", statement.name, "catalog only",
                         self._execute_drop_table, statement)
        if isinstance(statement, ast.CreateIndexStatement):
            return whole("create index", statement.name,
                         "build from stored rows",
                         self._execute_create_index, statement)
        if isinstance(statement, ast.DropIndexStatement):
            return whole("drop index", statement.name, "catalog only",
                         self._execute_drop_index, statement)
        raise Error(
            f"statement {type(statement).__name__} is not supported by "
            f"the relational engine (is it a DMX statement issued "
            f"without a mining provider?)")

    def _where_rows(self, statement) -> Optional[int]:
        """A DELETE's or UPDATE's estimate: the rows of its table its WHERE
        holds for, as a SELECT over the same WHERE estimates them."""
        table = self.tables.get(statement.table.upper())
        resolver = self._stats_resolver(ast.NamedTable(statement.table))
        return None if table is None else round(len(table) * (
            stats_mod.estimate_selectivity(statement.where, resolver)))

    # -- DDL / DML ------------------------------------------------------------

    def _execute_create_view(self, statement: ast.CreateViewStatement) -> int:
        if self.has_table(statement.name):
            raise CatalogError(
                f"table or view {statement.name!r} already exists")
        self.views[statement.name.upper()] = statement.select
        self.catalog_version += 1
        return 0

    def _execute_drop_table(self, statement: ast.DropTableStatement) -> int:
        self.drop_table(statement.name, statement.if_exists)
        return 0

    def _execute_create_index(self,
                              statement: ast.CreateIndexStatement) -> int:
        self.table(statement.table).create_index(statement.name,
                                                 statement.column)
        self.catalog_version += 1
        return 0

    def _execute_drop_index(self, statement: ast.DropIndexStatement) -> int:
        self.table(statement.table).drop_index(statement.name,
                                               statement.if_exists)
        self.catalog_version += 1
        return 0

    def _execute_create_table(self,
                              statement: ast.CreateTableStatement) -> int:
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
        targets = (list(self.tables.values()) if statement.table is None
                   else [self.table(statement.table)])
        for table in targets:
            table.rebuild_statistics()
        self.stats_enabled = True
        self.catalog_version += 1
        return len(targets)

    def _execute_insert(self, statement: ast.InsertValuesStatement, node,
                        batch_size: int) -> int:
        """INSERT: VALUES rows, or the rows of the planned SELECT under
        ``node``, read whole before the first is inserted."""
        table = self.table(statement.table)
        schema = table.schema
        positions = [schema.index_of(name) for name in statement.columns]
        for index, position in enumerate(positions):
            if position in positions[:index]:
                raise SchemaError(
                    f"column {statement.columns[index]!r} appears twice in "
                    f"the INSERT column list")

        def widen(values) -> List[Any]:
            if len(values) != len(positions):
                raise SchemaError(
                    f"INSERT expects {len(positions)} values, got {len(values)}")
            row = [None] * len(schema)
            for position, value in zip(positions, values):
                row[position] = value
            return row

        if statement.select is not None:
            rows = node.children[0].run(batch_size).materialize().rows
        else:
            rows = statement.rows
            if list in set(map(type, rows)):  # a row has an expression cell
                context = self._constant_context()
                rows = (row if type(row) is tuple else
                        [_constant(cell, context) for cell in row]
                        for row in rows)
        # Lazily: a row's cells are evaluated, widened and checked before the
        # next row's, so the first bad row in statement order is the error.
        # Without a column list a row goes as it is: the table checks arity.
        return table.insert_many(map(widen, rows) if positions else rows)

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

    def execute_select(self, statement: ast.SelectStatement) -> Rowset:
        """Execute a SELECT: plan it (:meth:`plan_select`), open the plan
        and drain the rows it streams.

        Pipelined operators — scans, joins, WHERE, projection, DISTINCT-free
        TOP — produce output batch by batch, so peak memory for them is
        O(batch_size).  Blocking operators (GROUP BY / aggregates, ORDER BY,
        DISTINCT) consume the stream and materialise, so their semantics
        are unchanged.  Opening binds every clause, before a row is read.
        """
        return self.plan_select(statement).run(self.batch_size).materialize()

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
        return self.bind(self.prepare(statement), statement)

    def prepare(self, statement) -> Prepared:
        """Prepare a SELECT or UNION shape (:class:`Prepared`); what
        :meth:`bind` makes of it is what :meth:`plan_select` /
        :meth:`plan_union` return."""
        prepared = Prepared()
        if isinstance(statement, ast.UnionStatement):
            prepared.branches = list(map(self.prepare, statement.branches))
            tables = [branch.tables for branch in prepared.branches]
            prepared.tables = None if None in tables else sum(tables, [])
            return prepared
        prepared.grouped = bool(statement.group_by) or any(
            contains_aggregate(item.expr) for item in statement.select_list)
        blockers = [name for name, present in (
            ("group/aggregate", prepared.grouped),
            ("order by", statement.order_by),
            ("distinct", statement.distinct)) if present]
        prepared.blocking = bool(blockers)
        prepared.strategy = (
            "constant" if statement.from_clause is None
            else f"materialized ({', '.join(blockers)})" if blockers
            else f"streamed (batch {self.batch_size})")
        prepared.detail = _select_detail(statement)
        ref = statement.from_clause
        if type(ref) is ast.NamedTable and ref.name.upper() in self.tables \
                and (self.external_source is None
                     or self.external_source(ref) is None):
            table = self.tables[ref.name.upper()]
            relation = SourceRelation([(ref.alias or ref.name, column)
                                       for column in table.rowset_columns()])
            prepared.base, prepared.tables, prepared.select_list = \
                (ref, table, relation.columns), [table], statement.select_list
            prepared.expanded = self._expand_select_list(statement,
                                                         relation.names())
            context = relation.context()
            prepared.bound = (context.columns, None if prepared.grouped else
                              self._select_binding(prepared.expanded,
                                                   context, relation.columns))
        return prepared

    def bind(self, prepared: Prepared, statement):
        """The plan tree of ``statement``, a statement of the shape
        ``prepared`` was prepared from: a fresh tree of a few nodes."""
        if prepared.branches is not None:
            return self._bind_union(prepared, statement)
        node = obs_explain.PlanNode("select", strategy=prepared.strategy,
                                    detail=prepared.detail)
        source = expanded = None
        if statement.from_clause is None:
            node.est_rows = 1
            node.cost = 0.0
        else:
            pushed = None
            if type(statement.from_clause) is ast.Join and self.stats_enabled:
                pushed, statement = self._pushdown(statement)
                node.detail = _select_detail(statement)
            source = node.add(
                self._plan_base_table(*prepared.base, statement.where)
                if prepared.base is not None else
                self.plan_table_ref(statement.from_clause, pushed))
            # A select list with a literal of this statement's own is
            # expanded again (its positions are the prepared ones).
            expanded = (prepared.expanded
                        if statement.select_list is prepared.select_list
                        else self._expand_select_list(statement,
                                                      source.columns))
            if expanded is not None:
                node.columns = [(None, name) for _, name, _ in expanded]

            def estimate(node):
                # A seek narrows the scan, not the estimate: selectivity
                # applies to the whole table either way.
                source_est = (len(self.table(source.target))
                              if source.operator == "index seek"
                              else source.est_rows)
                node.est_rows = self._estimate_select_rows(
                    statement, source_est, prepared.grouped)
                examined = (source.est_rows if source.est_rows is not None
                            else node.est_rows)
                node.cost = (source.cost or 0.0) + float(examined or 0)
            node.estimator = estimate
        node.open = lambda _, batch_size: self._open_select(
            statement, source, expanded, prepared, batch_size)
        return node

    def _open_select(self, statement: ast.SelectStatement, source, expanded,
                     prepared: Prepared, batch_size: int) -> RowStream:
        """Open a planned SELECT over its planned ``source``: the
        pipeline, or (blocking) the whole result."""
        # A statement's first select to open starts its scan (a PREDICTION
        # JOIN or TRAIN opens its source in a phase of its own).
        obs_workload.set_phase("scan", leaving="parse")
        if source is None:
            result = self._select_without_from(statement)
        else:
            relation = source.run(batch_size)
            bound = prepared.bound  # (column map, binding) over a table
            context = EvalContext(bound[0]) if bound else relation.context()
            if expanded is None:
                # The source named its columns only by running.
                expanded = self._expand_select_list(statement,
                                                    relation.names())
            context.subquery_executor = self.execute_select
            if not prepared.blocking:
                return self._select_streaming(statement, relation, context,
                                              expanded, batch_size,
                                              bound and bound[1])
            result = self._execute_select_blocking(
                statement, relation, context, expanded, prepared.grouped,
                batch_size, bound and bound[1])
        return RowStream.from_rowset(result, batch_size)

    def plan_union(self, statement: ast.UnionStatement):
        """Plan a UNION chain.  ALL-only chains stream branch by branch.
        Branch schemas must agree in width; the first branch names the
        output columns.  Any plain (deduplicating) UNION makes the whole
        chain blocking, because each dedup applies to everything
        accumulated so far (left-associative SQL semantics)."""
        return self.bind(self.prepare(statement), statement)

    def _bind_union(self, prepared: Prepared,
                    statement: ast.UnionStatement):
        streaming = bool(statement.all_rows) and all(statement.all_rows)
        node = obs_explain.PlanNode(
            "union",
            strategy="streamed (all branches ALL)" if streaming
            else "materialized (dedup)")
        for branch, select in zip(prepared.branches, statement.branches):
            node.add(self.bind(branch, select))

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

    def _filtered_batches(self, where: Optional[ast.Expr],
                          relation: SourceRelation, context: EvalContext,
                          batch_size: int):
        """Scan + WHERE, batch at a time: a select's, or a ``filter``'s
        conjuncts pushed below a join.

        The WHERE is bound here, before the first batch is pulled.  Each
        batch boundary is also a workload checkpoint: live progress (rows
        processed) for ``DM_QUERY_LOG``, and the point where a
        ``CANCEL`` lands mid-scan.
        """
        where = (compile_expression(where, context)
                 if where is not None else None)

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

    def _select_binding(self, expanded, context: EvalContext, columns):
        """What binds a select list by position over a source's
        ``(qualifier, column)`` ``columns`` — it reads no row and no
        literal, so a prepared shape keeps it: ``(positions, project,
        described)``.  ``positions`` are
        :meth:`_source_positions`; when every item is a plain column,
        ``project(rows)`` picks a batch's output rows with one C-level
        ``itemgetter`` call per row — or hands the batch on untouched when
        the positions are the source's own order — and ``described`` are
        the output columns, the source columns'; both None otherwise."""
        positions = self._source_positions(expanded, context)
        if None in positions:
            return positions, None, None
        described = [self._column_meta(name, columns, position, (), None)
                     for (_, name, _), position in zip(expanded, positions)]
        if positions == list(range(len(columns))):
            return positions, lambda rows: rows, described
        if len(positions) == 1:
            position, = positions  # itemgetter of one gives no tuple
            return (positions, lambda rows: [(row[position],) for row in rows],
                    described)
        pick = itemgetter(*positions)
        return positions, lambda rows: list(map(pick, rows)), described

    def _bind_select_list(self, expanded, relation: SourceRelation,
                          context: EvalContext, binding=None):
        """Bind the select list, once: ``(project, describe)`` —
        ``project(rows)`` gives the output rows of a batch,
        ``describe(sample_rows)`` the output columns.

        One routine, chosen by what the list *is*.  A list of plain
        columns binds by position (:meth:`_select_binding`, which a
        prepared shape holds as ``binding``); any other list compiles each
        item to a closure.  Either way an item that names a source column
        is described by that column, and only what no source column
        declares is inferred from ``sample_rows``.
        """
        positions, project, described = binding or self._select_binding(
            expanded, context, relation.columns)
        if project is not None:
            return project, lambda sample_rows: list(described)
        values = [compile_expression(expr, context)
                  for expr, _, _ in expanded]

        def project(rows):
            return [tuple([value(row) for value in values]) for row in rows]

        def describe(sample_rows):
            return [self._column_meta(name, relation.columns, position,
                                      sample_rows, value)
                    for (_, name, _), position, value
                    in zip(expanded, positions, values)]
        return project, describe

    def _select_streaming(self, statement: ast.SelectStatement,
                          relation: SourceRelation, context: EvalContext,
                          expanded, batch_size: int,
                          binding=None) -> RowStream:
        """The non-blocking pipeline: WHERE -> project -> TOP, per batch.
        WHERE and the select list (:meth:`_bind_select_list`) are bound
        before a row is read."""
        source = self._filtered_batches(statement.where, relation, context,
                                        batch_size)
        project, describe = self._bind_select_list(expanded, relation,
                                                   context, binding)
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
                                 grouped: bool, batch_size: int,
                                 binding=None) -> Rowset:
        """GROUP BY / ORDER BY / DISTINCT path: bind every per-row
        expression, then consume the source and materialise."""
        batches = self._filtered_batches(statement.where, relation, context,
                                         batch_size)
        if grouped:
            output_columns, output_rows = self._execute_grouped(
                statement, relation, context, expanded, batches)
        else:
            project, describe = self._bind_select_list(expanded, relation,
                                                       context, binding)
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
    def _column_meta(name: str, columns, position: Optional[int],
                     sample_rows: List[tuple],
                     value: Optional[Callable]) -> RowsetColumn:
        """Output column typing: the declared type (and nested columns) of
        the source column at ``position`` of the ``(qualifier, column)``
        ``columns`` when the item names one, else best effort — inferred
        from ``value`` (the item compiled) over the head of the sample."""
        if position is not None:
            source = columns[position][1]
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

        # Bucket rows by their GROUP BY keys, built a batch column at a
        # time (one global bucket if none); then each aggregate is one
        # call over its bucket's argument column.
        aggregates = [make_aggregate(node.name, count_rows=argument is None,
                                     distinct=node.distinct)
                      for node, argument in zip(aggregate_nodes, arguments)]
        buckets: Dict[Any, List[tuple]] = {} if group_keys else {(): []}
        for batch in batches:
            if not group_keys:
                buckets[()].extend(batch)
                continue
            columns = [V.group_keys(list(map(key, batch)))
                       for key in group_keys]
            for key, row in zip(zip(*columns), batch):
                buckets.setdefault(key, []).append(row)

        output_rows = []
        groups = []
        for bucket in buckets.values():
            values = [aggregate(bucket if argument is None
                                else list(map(argument, bucket)))
                      for aggregate, argument in zip(aggregates, arguments)]
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
        identity.  Otherwise the sort keys are the raw values where every
        key column orders natively, their ``sort_key`` tuples where one does
        not."""
        columns = [list(map(value, output_rows if reads_output
                            else source_rows))
                   for reads_output, value in order_keys]
        directions = [item.ascending for item in statement.order_by]
        if _already_ordered(columns, directions):
            return output_rows
        if not all(map(V.orders_natively, columns)):
            columns = [list(map(V.sort_key, column)) for column in columns]
        return _multi_key_sort(output_rows, list(zip(*columns)), directions)

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
                       pushed: Optional[Dict[str, List[ast.Expr]]] = None):
        """Plan a FROM source; its ``run(batch_size)`` opens a
        :class:`SourceRelation`.

        A base table here is scanned: the index seek a SELECT's WHERE may
        drive is planned over its one base table, by :meth:`bind`.
        ``pushed`` holds, by qualifier, the WHERE conjuncts a join's
        base-table leaves run (:meth:`_pushdown`): each in a ``filter``
        node over its leaf's scan, and the select does not apply them
        again.
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
                node = self._plan_base_table(ref, self.tables[key], None, None)
                conjuncts = pushed and pushed.get((ref.alias or key).upper())
                return (self._plan_filter(node, ref, conjuncts) if conjuncts
                        else node)
            raise BindError(f"no table, view, or model named {ref.name!r}")
        if isinstance(ref, ast.SubquerySource):
            node = self.plan_select(ref.select)
            node.operator = "subquery"
            node.target = ref.alias
            return as_from_source(node, ref.alias)
        if isinstance(ref, ast.Join):
            return self._plan_join(ref, pushed)
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

    def _plan_base_table(self, ref: ast.NamedTable, table: Table, columns,
                         where: Optional[ast.Expr]):
        """Index seek when the WHERE allows one and it beats the scan by
        cost, else the sequential scan.  Seek positions stream in
        ascending order, so either path yields byte-identical rows.
        ``columns`` are the table's ``(qualifier, column)`` pairs when a
        prepared shape holds them (None: made here)."""
        qualifier = ref.alias or ref.name
        columns = columns or [(qualifier, c) for c in table.rowset_columns()]
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
                    self.metrics.fold({name: 1})
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

    def _pushdown(self, statement: ast.SelectStatement):
        """Split the WHERE of a SELECT over a join: ``(pushed, select)``.

        ``pushed`` holds, by upper-cased qualifier, each conjunct one
        base-table leaf decides alone (:func:`pushable_columns`, and every
        column it reads is the leaf's) — a leaf on an INNER or CROSS side
        or the preserved left side of a LEFT join, down nested joins, whose
        qualifier no other leaf shares: by name, ``T2.c`` reads the first
        of two ``T2`` leaves.  ``select`` is the statement with the AND of
        the other conjuncts as its WHERE."""
        leaves = list(_join_leaves(statement.from_clause, True))
        names = [(getattr(leaf, "alias", None) or getattr(leaf, "name", "")
                  or getattr(leaf, "rowset", "")
                  or getattr(leaf, "model", "")).upper()
                 for leaf, _ in leaves]
        has_column = {name: self.tables[leaf.name.upper()].schema.has_column
                      for (leaf, takes), name in zip(leaves, names)
                      if takes and names.count(name) == 1
                      and getattr(leaf, "name", "").upper() in self.tables}
        pushed, rest = {}, []
        for conjunct in ast.conjuncts(statement.where):
            qualifier, columns = pushable_columns(conjunct) or (None, ())
            if qualifier in has_column and \
                    all(map(has_column[qualifier], columns)):
                pushed.setdefault(qualifier, []).append(conjunct)
            else:
                rest.append(conjunct)
        return pushed, replace(statement, where=_conjoin(rest))

    def _plan_filter(self, child, ref: ast.NamedTable,
                     conjuncts: List[ast.Expr]):
        """The WHERE conjuncts pushed to one join leaf, run over its scan:
        the join reads only the rows they hold True for."""
        condition = _conjoin(conjuncts)

        def open_filter(node, batch_size):
            relation = child.run(batch_size)
            return SourceRelation(relation.columns, batches=(
                self._filtered_batches(condition, relation,
                                       relation.context(), batch_size)))

        def estimate(node):
            node.est_rows = round(child.est_rows * (
                stats_mod.estimate_selectivity(condition,
                                               self._stats_resolver(ref))))
            node.cost = (child.cost or 0.0) + float(child.est_rows)
        node = obs_explain.PlanNode(
            "filter", target=child.target, strategy="WHERE pushed below join",
            detail=f"{len(conjuncts)} conjunct(s)", open=open_filter)
        node.add(child)
        node.columns, node.estimator = child.columns, estimate
        return node

    def _plan_join(self, ref: ast.Join, pushed=None):
        left = self.plan_table_ref(ref.left, pushed)
        right = self.plan_table_ref(ref.right, pushed)
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
        # already holds the hash buckets the scan would build — but for a
        # DATE column, whose bucket of one day may hold a date and a
        # datetime that ``=`` tells apart.  (For a base table the
        # relation's column ordinals are the schema ordinals.)
        index = None
        if right.operator == "table scan":
            index = self.table(right.target).index_on(pairs[0][1])
        if index is not None and index.type_name != "DATE":
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
        outer = ref.kind == "LEFT"
        padding = tuple([None] * right_width)
        # Bound against the joined row before the build side is read.
        joined_context = EvalContext.from_columns(
            left.names() + right.names())
        residual_ok = compile_filter(method.residual, joined_context)
        if not pairs:
            # Without a bound equi pair the whole ON is the loop condition.
            condition = compile_expression(ref.condition, joined_context)
            right_rows = right.rows

            def produce_loop():
                for batch in left.batches(batch_size):
                    out = []
                    for l in batch:
                        matched = False
                        for r in right_rows:
                            candidate = l + r
                            if condition(candidate) is True:
                                out.append(candidate)
                                matched = True
                        if outer and not matched:
                            out.append(l + padding)
                    if out:
                        yield out
            return SourceRelation(columns, batches=produce_loop())

        # Hash join on the first equi pair, keyed by values.join_keys on
        # every path; a candidate is checked — the other pairs, then the
        # residual — only when there is something to check.
        (first_left, first_right), rest = pairs[0], pairs[1:]
        check = None
        if rest or method.residual:
            def check(l, r):
                for a, b in rest:
                    if V.sql_equal(l[a], r[b]) is not True:
                        return False
                return residual_ok(l + r)
        # A key the hash does not hold yet is filled from the build rows
        # at its ``positions_of``; a scan-built hash holds every build key,
        # so it has none.
        build, positions_of, build_rows = {}, {}.get, []
        if method.build_index is not None:
            # Each index bucket holds one key's positions in insertion
            # order — the rows, in the order a scan-built bucket holds
            # them.  One sequential read — the right side's scan — takes
            # the rows (a paged build side loads each page once, in page
            # order), and the bucket map is taken with them (``rebuild``
            # replaces it): a key's bucket is filled the first time a
            # probe asks for it.  A row appended after that read is
            # invisible, as to a scan.
            build_index, build_rows = method.build_index, right.rows
            positions_of = build_index.hash.get
            if build_index.type_name == "BOOLEAN":
                # Keyed ("b", value) there; the probe's key is the float.
                positions_of = {1.0: positions_of(("b", True)),
                                0.0: positions_of(("b", False))}.get
            build_index.join_probes += 1
            if self.metrics is not None:
                self.metrics.fold({"index.join_probes": 1})
        elif not method.build_left:
            build = _hash_buckets(right.rows, first_right)
        limit, take = len(build_rows), build_rows.__getitem__

        def produce_left_build():
            # Cost-chosen swap: the (estimated-smaller) left side builds
            # the hash, the right side streams as the probe.  Output stays
            # byte-identical to the right-build plan: matches accumulate
            # per left position in right-arrival order — exactly the order
            # a right-build bucket would replay them — and rows are emitted
            # left-major over the original left batch boundaries.
            left_flat: List[tuple] = []
            boundaries: List[int] = []
            for batch in left.batches(batch_size):
                boundaries.append(len(batch))
                left_flat.extend(batch)
            build = _hash_buckets(left_flat, first_left, positions=True)
            matches: List[List[tuple]] = [[] for _ in left_flat]
            for right_batch in right.batches(batch_size):
                keys = V.join_keys([r[first_right] for r in right_batch])
                for r, key in zip(right_batch, keys):
                    for position in build.get(key, ()):
                        if check is None or check(left_flat[position], r):
                            matches[position].append(r)
            cursor = 0
            for size in boundaries:
                out = []
                for position in range(cursor, cursor + size):
                    l = left_flat[position]
                    for r in matches[position]:
                        out.append(l + r)
                    if outer and not matches[position]:
                        out.append(l + padding)
                cursor += size
                if out:
                    yield out

        def produce():
            for batch in left.batches(batch_size):
                out = []
                keys = V.join_keys([l[first_left] for l in batch])
                for l, key in zip(batch, keys):
                    matched = False
                    rows = build.get(key)
                    if rows is None:  # filled once: a repeat is one lookup
                        # (a NaN, unequal to itself, has no positions)
                        positions = key == key and positions_of(key) or ()
                        rows = build[key] = list(map(take, positions[
                            :bisect_left(positions, limit)]))
                    for r in rows:
                        if check is None or check(l, r):
                            out.append(l + r)
                            matched = True
                    if outer and not matched:
                        out.append(l + padding)
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


def _join_leaves(ref: ast.TableRef, takes: bool):
    """``(leaf, takes)`` per FROM leaf of a join tree, left to right:
    ``takes`` while no LEFT join above pads the leaf with NULLs."""
    if isinstance(ref, ast.Join):
        yield from _join_leaves(ref.left, takes)
        yield from _join_leaves(ref.right, takes and ref.kind != "LEFT")
    else:
        yield ref, takes


def _hash_buckets(rows: List[tuple], column: int,
                  positions: bool = False) -> Dict[Any, list]:
    """``rows`` — or, with ``positions``, their indexes — by the join key
    of ``column`` (:func:`values.join_keys`), each bucket in row order; a
    NULL or NaN key joins nothing and is left out (a NaN key would find
    another by object identity alone)."""
    buckets: Dict[Any, list] = {}
    keys = V.join_keys([row[column] for row in rows])
    for key, item in zip(keys, range(len(rows)) if positions else rows):
        if key is not None and key == key:
            buckets.setdefault(key, []).append(item)
    return buckets


#: Expression nodes a WHERE conjunct run below a join may contain: a
#: function call is not one (a prediction function reads the bound case,
#: not the source row), nor is a subquery of either kind.
PUSHABLE_NODES = (ast.BinaryOp, ast.UnaryOp, ast.IsNull, ast.InList,
                  ast.Between, ast.Like, ast.Literal)


def pushable_columns(conjunct: ast.Expr) \
        -> Optional[Tuple[str, List[str]]]:
    """``(qualifier, names)``, upper-cased, of a WHERE conjunct that one
    join source decides alone: every column reference is ``qualifier.name``
    and every other node a :data:`PUSHABLE_NODES` one.  None for any other
    conjunct — one that reads no column, two qualifiers or an unqualified
    name among them.  Judged from the AST alone, at plan time.  Dropping a
    source row the conjunct does not hold True for is exact: the WHERE is
    an AND over its conjuncts, and an AND with a False or NULL operand is
    never True."""
    refs = []

    def row_local(expr):
        if type(expr) is ast.ColumnRef:
            refs.append([part.upper() for part in expr.parts])
            return len(expr.parts) == 2
        return isinstance(expr, PUSHABLE_NODES) and \
            all(map(row_local, ast.children(expr)))
    qualifiers = {parts[0] for parts in refs} if row_local(conjunct) else ()
    return (qualifiers.pop(), [parts[1] for parts in refs]) \
        if len(qualifiers) == 1 else None


def _conjoin(conjuncts: List[ast.Expr]) -> Optional[ast.Expr]:
    """The AND of ``conjuncts``, left to right (None for none)."""
    return reduce(partial(ast.BinaryOp, "AND"), conjuncts or [None])


def _select_detail(statement: ast.SelectStatement) -> Optional[str]:
    """A select node's detail: whether it filters, and its TOP."""
    details = ["filtered"] if statement.where is not None else []
    if statement.top is not None:
        details.append(f"top {statement.top}")
    return ", ".join(details) or None


def _row_key(row: tuple) -> tuple:
    """Hashable identity of a row for DISTINCT / UNION dedup."""
    return tuple(V.group_key(v) if not isinstance(v, Rowset) else id(v)
                 for v in row)


def _constant(expr: ast.Expr, context: EvalContext) -> Any:
    """The value of an expression evaluated once, with no row to read: a
    literal is read directly, anything else compiles and runs."""
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


def _already_ordered(columns: List[list], directions: List[bool]) -> bool:
    """Whether rows whose ORDER BY values are ``columns`` (one list per
    key) already stand where :func:`_multi_key_sort` would put them.

    Adjacent rows are compared on the raw values, a key's pairs in one
    ``map`` — the first key over every pair, each later key over the pairs
    the keys before it left equal — and the first pair out of order ends
    the test, which is where an unsorted input ends it.  NULL and mixed
    type classes raise ``TypeError``; they, a NaN (which orders against
    nothing) and every column :func:`values.orders_natively` does not
    vouch for go to the sort."""
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
    return all(map(V.orders_natively, columns))


def _multi_key_sort(rows: List[tuple], keys: List[tuple],
                    directions: List[bool]) -> List[tuple]:
    """Stable multi-key sort honouring per-key ASC/DESC."""
    indexed = list(range(len(rows)))
    # Sort by the last key first (stable sorts compose right-to-left).
    for position in reversed(range(len(directions))):
        column = [key[position] for key in keys]
        indexed.sort(key=column.__getitem__,
                     reverse=not directions[position])
    return [rows[i] for i in indexed]
