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
Planning is two steps: :meth:`Database.prepare` takes what a statement
*shape* decides (:class:`Prepared`), and binding what reads the
statement's literals.  A base-table SELECT's tree reads them, whatever
binds it, from the statement's :class:`Bound` — its seek and its WHERE
— handed to its openers: :meth:`Database.bind` plans a statement on its
own, its tree handed its own Bound; the provider keeps a shape's prepared
plan beside its statement template and binds each later statement to the
tree its access path shares with every other statement of the shape
(:meth:`Database.bind_values`, :class:`Variant`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import replace
from functools import partial
from itertools import chain, compress, repeat
from operator import eq, gt, is_not, itemgetter
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
    compile_selection,
    contains_aggregate,
    kernel_selection,
    is_aggregate_call,
)
from repro.sqlstore.functions import make_aggregate
from repro.sqlstore import stats as stats_mod
from repro.sqlstore.indexes import LITERAL_VALUE, index_choice, seek_forms
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
    which drains the iterator on first access.  A base table's access
    path also names the stored ``positions`` its rows are read from, in
    order — what a DELETE or UPDATE changes.
    """

    def __init__(self, columns: List[Tuple[Optional[str], RowsetColumn]],
                 rows: Optional[List[tuple]] = None,
                 batches: Optional[Iterable[List[tuple]]] = None,
                 positions: Optional[Iterable[int]] = None):
        self.columns = columns
        self._rows = list(rows) if rows is not None else None
        self._batches = batches
        self.positions = positions

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
    their literals.  :meth:`Database.prepare` makes it; binding a
    statement of the shape takes what reads a value — the index choice and
    the seek-vs-scan gate, the estimates, the WHERE and whatever else
    compiles against a per-statement context.  Over a base table it
    holds the table's columns, the select list expanded over them,
    ``binding`` — the context's column map and the list's
    :meth:`Database._select_binding` — the seeks its WHERE could drive
    (``forms``: :func:`seek_forms`) and that WHERE compiled once
    (``where``: the ``bind`` of :func:`kernel_selection`; None when a
    conjunct is no kernel).  ``variants`` holds, kept, the
    :class:`Variant` of each access path its statements have been bound
    to (:meth:`Database.bind_values`).  What is prepared is derived
    from the catalog alone, so the catalog version is all a kept plan is
    valid for."""

    # branches: a UNION's; base: (ref, table, columns) of a base-table
    # source, and expanded: the select list expanded over its columns.
    branches = base = binding = expanded = forms = where = None

    def __init__(self, statement):
        self.statement = statement
        self.variants: Dict[Any, Variant] = {}

    def reads(self) -> Optional[set]:
        """The ids of the literal nodes its WHERE kernels read (a UNION:
        its branches' together), or None when a source is not a base
        table: such a shape's plan is not kept."""
        if self.branches is not None:
            reads = [branch.reads() for branch in self.branches]
            return None if None in reads else set().union(*reads)
        if self.base is None:
            return None
        reads = set()
        if self.where is not None:
            self.where(lambda node: reads.add(id(node)) or node.value)
        return reads


class Variant:
    """One access path of a kept shape — a seek by one index, or the scan,
    per base table — and its plan tree, shared by every statement of the
    shape that chooses it.  ``identity`` is what the workload repository
    renders of it once: ``(skeleton, hash, estimated rows)``, the estimate
    the first statement's."""

    __slots__ = ("plan", "identity")

    def __init__(self, plan):
        self.plan, self.identity = plan, None


class Bound:
    """One statement, as the openers of a base-table access or SELECT
    tree read it (handed to them with the batch size): the seek ``choice``
    (None: the scan) its ``where`` gave for the literal values
    ``value_of``, as of the table's ``version``; and for a SELECT its
    ``prepared`` shape, the ``statement`` and its WHERE bound to those
    values (``select``; None: compiled as the tree opens).  Bound to a
    kept shape it also holds the :class:`Variant` it runs (a UNION: and
    its ``branches``'s bounds)."""

    __slots__ = ("prepared", "statement", "variant", "choice", "version",
                 "where", "value_of", "select", "branches")

    def run(self, batch_size: int):
        return self.variant.plan.run((self, batch_size))


def bound_to(node, bound: Bound):
    """``node``, whose opener reads a :class:`Bound`, as the tree of one
    statement: its opener handed ``bound`` with the batch size."""
    opener = node.open
    node.open = lambda node, batch_size: opener(node, (bound, batch_size))
    return node


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
        # and every execution-affecting decision (seek vs scan, parallel
        # gating, prediction pushdown) falls back to the original
        # heuristics — the baseline the differential suite compares
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
        DML are one node, with an INSERT's SELECT or a DELETE's or UPDATE's
        access path under it, whose run applies the statement and returns
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
        if isinstance(statement, ast.DeleteStatement) and \
                statement.where is None:
            return whole("delete", statement.table, "truncate",
                         lambda _: self.table(statement.table).truncate(),
                         statement, est_rows=self._where_rows(statement))
        if isinstance(statement, (ast.DeleteStatement, ast.UpdateStatement)):
            return self._plan_dml(statement)
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

    def _plan_dml(self, statement):
        """A DELETE's or UPDATE's node: its child is the access path a
        SELECT of its WHERE gets (:meth:`_plan_base_table`: the index seek
        or the table scan, by the same cost), and its run changes, among
        the rows that path opens, those the WHERE holds for."""
        table = self.table(statement.table)
        node = obs_explain.PlanNode(
            "delete" if isinstance(statement, ast.DeleteStatement)
            else "update", statement.table, "at the positions read",
            self._where_rows(statement),
            open=partial(self._execute_dml, statement, table))
        node.add(self._plan_base_table(ast.NamedTable(statement.table), table,
                                       statement.where))
        return node

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
        obs_workload.set_phase("scan", leaving="parse")
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

    def _execute_dml(self, statement, table: Table, node,
                     batch_size: int) -> int:
        """Run a DELETE or UPDATE: open the access path under ``node``,
        bind the SET and WHERE once over the table's columns, collect every
        position it opened whose row the WHERE holds for — before anything
        changes — and hand the table those positions."""
        obs_workload.set_phase("scan", leaving="parse")
        relation = node.children[0].run(batch_size)
        context = relation.context()
        context.subquery_executor = self.execute_select
        assignments = [
            (table.schema.index_of(name), compile_expression(expr, context))
            for name, expr in getattr(statement, "assignments", ())]
        # No WHERE is the empty conjunction: every row passes.
        select = compile_selection(ast.conjuncts(statement.where), context)
        positions = list(select(relation.rows, relation.positions))
        if isinstance(statement, ast.DeleteStatement):
            return table.delete_at(positions)

        def updater(row):
            new_row = list(row)
            for position, value in assignments:
                new_row[position] = value(row)
            return tuple(new_row)

        return table.update_at(positions, updater)

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
        join keys and build, view expansion — is taken here, once,
        reading only the catalog, statistics and index key->position maps:
        no table is scanned, no span opened and no usage counter moved
        until ``run``.  The second positional argument is accepted from
        callers that hold the provider's hook; it is the hook this
        database was constructed with and is not consulted again.
        """
        return self.bind(self.prepare(statement))

    def prepare(self, statement) -> Prepared:
        """Prepare a SELECT or UNION shape (:class:`Prepared`); what
        :meth:`bind` makes of it is what :meth:`plan_select` /
        :meth:`plan_union` return."""
        prepared = Prepared(statement)
        if isinstance(statement, ast.UnionStatement):
            prepared.branches = list(map(self.prepare, statement.branches))
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
        ref = statement.from_clause
        if type(ref) is ast.NamedTable and ref.name.upper() in self.tables \
                and (self.external_source is None
                     or self.external_source(ref) is None):
            table = self.tables[ref.name.upper()]
            relation = SourceRelation([(ref.alias or ref.name, column)
                                       for column in table.rowset_columns()])
            prepared.base = (ref, table, relation.columns)
            prepared.expanded = self._expand_select_list(statement,
                                                         relation.names())
            context = relation.context()
            prepared.binding = (context.columns, self._select_binding(
                prepared.expanded, context, relation.columns))
            prepared.forms = seek_forms(statement.where, table,
                                        ref.alias or ref.name)
            try:
                prepared.where = kernel_selection(
                    ast.conjuncts(statement.where), context)
            except BindError:
                pass  # each statement raises it as its tree opens
        return prepared

    def bind(self, prepared: Prepared, value_of=LITERAL_VALUE,
             statement=None):
        """The plan tree of ``statement``, its own: a fresh tree of a few
        nodes.  By default the statement is the one ``prepared`` was
        prepared from; another of its shape holds ``value_of(node)`` at
        the prepared one's literal nodes."""
        statement = statement or prepared.statement
        if prepared.branches is not None:
            return self._union_node(statement, [
                self.bind(branch, value_of, select) for branch, select
                in zip(prepared.branches, statement.branches)])
        if prepared.base is not None:
            bound = self._bound(prepared, statement, value_of)
            return bound_to(self._base_select(prepared, bound, statement),
                            bound)
        source = expanded = None
        if statement.from_clause is not None:
            pushed = None
            if type(statement.from_clause) is ast.Join and self.stats_enabled:
                pushed, statement = self._pushdown(statement)
            source = self.plan_table_ref(statement.from_clause, pushed)
            expanded = self._expand_select_list(statement, source.columns)
        node = self._select_node(prepared, statement, source, expanded)
        node.open = lambda _, batch_size: self._open_select(
            statement, source, expanded, prepared, batch_size)
        return node

    def bind_values(self, prepared: Prepared, value_of,
                    statement=None) -> Bound:
        """``statement`` (by default the prepared one), a statement of a
        kept shape whose literals are, at the prepared statement's literal
        nodes, ``value_of(node)``, bound to the tree its access path shares
        with every other statement of the shape that chooses it (its
        :class:`Variant`, planned the first time one does): its seek, as of
        the table's version now, and its WHERE, bound to those values when
        every conjunct is a kernel, else compiled as the tree opens."""
        statement = statement or prepared.statement
        if prepared.branches is not None:
            bound = Bound()
            bound.branches = [
                self.bind_values(branch, value_of, select) for branch, select
                in zip(prepared.branches, statement.branches)]
            key = tuple(branch.variant for branch in bound.branches)
        else:
            bound = self._bound(prepared, statement, value_of)
            key = bound.choice and (bound.choice.index.name,
                                    bound.choice.access)
        bound.variant = prepared.variants.get(key) or \
            prepared.variants.setdefault(key, self._variant(prepared, bound))
        return bound

    def _variant(self, prepared: Prepared, bound: Bound) -> Variant:
        """The shared tree of the access path ``bound`` chose: planned as
        :meth:`bind` plans one statement, its openers read each statement's
        own :class:`Bound`."""
        if prepared.branches is None:
            return Variant(self._base_select(prepared, bound))
        statement = prepared.statement
        plan = self._union_node(statement, [
            branch.variant.plan for branch in bound.branches])
        plan.open = lambda _, arg: self._open_union(statement, [
            branch.run(arg[1]) for branch in arg[0].branches], arg[1])
        return Variant(plan)

    def _seek(self, table: Table, forms, where, value_of) -> Bound:
        """The seek the first of ``where``'s seek ``forms`` its values let
        seek gives, when it beats the scan by cost (wide seeks — most of
        the table, or cold pages a scan would read anyway — do not)."""
        bound = Bound()
        choice = index_choice(forms, value_of)
        if choice is not None and \
                not self._seek_is_beneficial(table, choice.positions):
            choice = None
        bound.choice, bound.version = choice, table.version
        bound.where, bound.value_of = where, value_of
        return bound

    def _bound(self, prepared: Prepared, statement, value_of) -> Bound:
        """A base-table SELECT of ``prepared``'s shape bound to its
        values: its seek and its WHERE (when a kernel WHERE was
        prepared)."""
        bound = self._seek(prepared.base[1], prepared.forms,
                           prepared.statement.where, value_of)
        bound.prepared, bound.statement = prepared, statement
        bound.select = prepared.where and prepared.where(value_of)
        return bound

    def _base_select(self, prepared: Prepared, bound: Bound,
                     statement=None):
        """The tree of a base-table SELECT of the prepared shape over the
        access path ``bound`` chose, estimated by ``statement`` (by
        default the prepared one); its openers read the :class:`Bound`
        of the statement they run."""
        # (The openers hold nothing that holds a kept plan's variant: it
        # is freed by reference counting.)
        ref, table, columns = prepared.base
        source = self._access_node(ref, table, columns, bound.choice)
        plan = self._select_node(prepared, statement or prepared.statement,
                                 source, prepared.expanded)
        plan.open = lambda _, arg: self._open_select(
            arg[0].statement, source, None, arg[0].prepared, arg[1], arg[0])
        return plan

    def _select_node(self, prepared: Prepared, statement, source, expanded):
        """A SELECT's node over its planned ``source`` (None: no FROM), with
        its estimator; the caller gives it its opener."""
        node = obs_explain.PlanNode("select", strategy=prepared.strategy,
                                    detail=_select_detail(statement))
        if source is None:
            node.est_rows = 1
            node.cost = 0.0
            return node
        node.add(source)
        if expanded is not None:
            node.columns = [(None, name) for _, name, _ in expanded]
        grouped = prepared.grouped

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
        return node

    def _open_select(self, statement: ast.SelectStatement, source, expanded,
                     prepared: Prepared, batch_size: int,
                     bound: Optional[Bound] = None) -> RowStream:
        """Open a planned SELECT over its planned ``source``: the value
        rows its select list makes, per batch or (blocking) whole, handed
        to the one result tail (:func:`typed_stream`,
        :func:`blocked_result`).  WHERE, the select list and the ORDER BY
        keys are bound before a row is read.  A base-table SELECT's
        ``source`` reads the statement's :class:`Bound`, and so does its
        WHERE when a kernel WHERE was prepared; its select list is the
        prepared one's unless it holds a literal of the statement's own
        (then it is expanded again: its positions are the prepared
        ones)."""
        # A statement's first select to open starts its scan (a PREDICTION
        # JOIN or TRAIN opens its source in a phase of its own).
        obs_workload.set_phase("scan", leaving="parse")
        if source is None:
            return self._select_without_from(statement)
        relation = source.run(batch_size if bound is None
                              else (bound, batch_size))
        binding = prepared.binding  # (column map, binding) over a table
        context = EvalContext(binding[0]) if binding else relation.context()
        if bound is not None and statement.select_list is \
                prepared.statement.select_list:
            expanded = prepared.expanded
        elif expanded is None:
            # The source named its columns only by running.
            expanded = self._expand_select_list(statement, relation.names())
        context.subquery_executor = self.execute_select
        batches = self._filtered_batches(
            bound and bound.select or compile_selection(
                ast.conjuncts(statement.where), context), relation, batch_size)
        names = list(map(itemgetter(1), expanded))
        project, declared = (binding and binding[1]) or self._select_binding(
            expanded, context, relation.columns)
        if prepared.grouped:
            order, keys, rows, groups = self._execute_grouped(
                statement, relation, context, expanded, batches)
            return blocked_result(statement, names, declared, rows, order,
                                  batch_size, groups, keys)
        project = project or self._compiled_projection(expanded, context)
        if not prepared.blocking:
            return typed_stream(names, declared, map(project, limited(
                batches, statement.top)))
        order, hidden = order_keys(statement, expanded)
        keys = [compile_expression(expr, context) for expr in hidden]
        sources = [row for batch in batches for row in batch]
        return blocked_result(statement, names, declared, project(sources),
                              order, batch_size, sources, keys)

    def plan_union(self, statement: ast.UnionStatement):
        """Plan a UNION chain.  ALL-only chains stream branch by branch.
        Branch schemas must agree in width; the first branch names the
        output columns.  Any plain (deduplicating) UNION makes the whole
        chain blocking, because each dedup applies to everything
        accumulated so far (left-associative SQL semantics)."""
        return self.bind(self.prepare(statement))

    def _union_node(self, statement: ast.UnionStatement, branches):
        """A UNION's node over its planned ``branches``, with its estimator
        and the opener that runs each branch as it is planned."""
        node = obs_explain.PlanNode(
            "union", strategy="streamed (all branches ALL)"
            if _streams(statement) else "materialized (dedup)")
        for branch in branches:
            node.add(branch)

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
            statement, [branch.run(batch_size) for branch in node.children],
            batch_size)
        return node

    def _open_union(self, statement: ast.UnionStatement, streams,
                    batch_size: int) -> RowStream:
        """Chain the opened branch ``streams``."""
        columns = streams[0].columns
        for position, stream in enumerate(streams[1:], start=2):
            if len(stream.columns) != len(columns):
                raise SchemaError(
                    f"UNION branch {position} has {len(stream.columns)} "
                    f"columns, expected {len(columns)}")
        if _streams(statement):
            return RowStream(columns, (batch for stream in streams
                                       for batch in stream.batches()))
        # Left-associative: each plain UNION dedups everything so far,
        # UNION ALL just concatenates.
        rows: List[tuple] = list(streams[0])
        for keep_all, stream in zip(statement.all_rows, streams[1:]):
            rows.extend(stream)
            if not keep_all:
                rows = list(map(rows.__getitem__,
                                distinct_positions(rows, len(columns))))
        return RowStream.from_rowset(Rowset(columns, rows), batch_size)

    @staticmethod
    def _filtered_batches(select, relation: SourceRelation,
                          batch_size: int):
        """Scan + WHERE, batch at a time: a select's WHERE, or a
        ``filter``'s conjuncts pushed below a join, as the ``select`` of
        :func:`compile_selection`, bound before the first batch is pulled
        (whose pull, the plan node's, is where progress is counted and a
        ``CANCEL`` lands).  A batch the WHERE empties is not passed on."""
        return filter(None, map(select, relation.batches(batch_size)))

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
        literal, so a prepared shape keeps it: ``(project, declared)``.
        ``declared`` holds, per item that :meth:`_source_positions` gives
        a position, the output column — the source column's type and
        nested columns under the item's name — and None for an item typed
        by its values (:func:`typed_stream`).  When every item is a plain
        column, ``project(rows)`` picks a batch's output rows with one
        C-level ``itemgetter`` call per row — or hands the batch on
        untouched when the positions are the source's own order; None
        otherwise."""
        positions = self._source_positions(expanded, context)
        declared = [None if position is None else RowsetColumn(
            name, columns[position][1].type,
            columns[position][1].nested_columns)
            for (_, name, _), position in zip(expanded, positions)]
        if None in positions:
            return None, declared
        if positions == list(range(len(columns))):
            return lambda rows: rows, declared
        if len(positions) == 1:
            position, = positions  # itemgetter of one gives no tuple
            return lambda rows: [(row[position],) for row in rows], declared
        pick = itemgetter(*positions)
        return lambda rows: list(map(pick, rows)), declared

    @staticmethod
    def _compiled_projection(items, context: EvalContext):
        """``project(rows)`` of a select list that is not all plain
        columns: every item compiled to a closure, once."""
        values = [compile_expression(expr, context) for expr, _, _ in items]
        return lambda rows: [tuple([value(row) for value in values])
                             for row in rows]

    def _constant_context(self) -> EvalContext:
        """What binds an expression that has no row to read (a VALUES
        cell, a FROM-less select item): no column resolves, subqueries
        run."""
        context = EvalContext({})
        context.subquery_executor = self.execute_select
        return context

    def _select_without_from(self, statement: ast.SelectStatement,
                             value_of=LITERAL_VALUE) -> RowStream:
        """A FROM-less SELECT: one row of constants, through the tail's TOP
        and typing (DISTINCT and ORDER BY leave one row as it is).  An
        item that is a literal node holds ``value_of(node)``: its own
        value, or that of a statement of its shape."""
        context = self._constant_context()
        names: List[str] = []
        values: List[Any] = []
        for position, item in enumerate(statement.select_list):
            if isinstance(item.expr, ast.Star):
                raise BindError("SELECT * requires a FROM clause")
            names.append(item.alias or f"Expr{position + 1}")
            values.append(_constant(item.expr, context, value_of))
        return typed_stream(names, [None] * len(names),
                            limited([[tuple(values)]], statement.top))

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
            expanded.append((item.expr, item_name(item, ordinal), None))
        return expanded

    # -- grouping -------------------------------------------------------------

    def _execute_grouped(self, statement, relation, context, expanded,
                         batches):
        """GROUP BY / aggregates over the filtered ``batches``:
        ``(order, keys, rows, groups)`` — a row of the select list's values
        per group that HAVING keeps, that group, and the ORDER BY keys that
        are not output columns, bound to run over a group
        (:func:`order_keys`; ``order`` holds each key's position).

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
        order, hidden = order_keys(statement, expanded, bare_only=False)
        keys = [compile_expression(expr, group_context) for expr in hidden]

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

        rows, groups = [], []
        for bucket in buckets.values():
            values = [aggregate(bucket if argument is None
                                else list(map(argument, bucket)))
                      for aggregate, argument in zip(aggregates, arguments)]
            group = (bucket[0] if bucket
                     else tuple([None] * len(relation.columns)), values)
            if having is not None and having(group) is not True:
                continue
            rows.append(tuple([output(group) for output in outputs]))
            groups.append(group)
        return order, keys, rows, groups

    # -- cardinality estimation (repro.sqlstore.stats) -------------------------
    #
    # Display-only: each plan node's ``estimator`` calls into these when
    # EXPLAIN renders the tree or the workload repository captures it.  The
    # one execution-affecting reader is the parallel gate
    # (``exec.partition.prediction_parallelism``).

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

        A base table here is scanned: the index seek a WHERE may drive is
        planned over a SELECT's one base table, by :meth:`bind`, and over a
        DELETE's or UPDATE's, by :meth:`_plan_dml`.
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
                node = self._plan_base_table(ref, self.tables[key], None)
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

    def _plan_base_table(self, ref: ast.NamedTable, table: Table,
                         where: Optional[ast.Expr]):
        """Index seek when the WHERE allows one and it beats the scan by
        cost (:meth:`_seek`), else the sequential scan.  Seek positions
        stream in ascending order, so either path yields byte-identical
        rows."""
        qualifier = ref.alias or ref.name
        columns = [(qualifier, c) for c in table.rowset_columns()]
        bound = self._seek(table, seek_forms(where, table, qualifier), where,
                           LITERAL_VALUE)
        return bound_to(self._access_node(ref, table, columns, bound.choice),
                        bound)

    def _access_node(self, ref: ast.NamedTable, table: Table, columns,
                     choice):
        """The node of a base table read by the seek ``choice`` (None: the
        scan), with its estimator; its opener reads the :class:`Bound` of
        the statement (:meth:`_open_access`)."""
        store = table.store
        if choice is not None:
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
                detail=choice.detail, est_rows=len(choice.positions))
        else:
            def estimate(node):
                node.cost = float(store.scan_cost())
            node = obs_explain.PlanNode(
                "table scan", target=ref.name,
                strategy=f"sequential (batch {self.batch_size})",
                est_rows=len(table))
        node.estimator = estimate
        node.columns = [(qualifier, c.name) for qualifier, c in columns]
        node.open = lambda _, arg: self._open_access(ref, table, columns, *arg)
        return node

    def _open_access(self, ref: ast.NamedTable, table: Table, columns,
                     bound: Bound, batch_size: int) -> SourceRelation:
        """Read a base table by the statement's seek (none: scan it).  The
        positions are the table's as planned, at ``bound.version``: a
        mutation since derives them again — every position once no index
        serves.  The WHERE above filters the rows either way."""
        choice = bound.choice
        if choice is not None and table.version != bound.version:
            choice = index_choice(seek_forms(
                bound.where, table, ref.alias or ref.name), bound.value_of)
        if choice is None:
            return SourceRelation(columns, positions=range(len(table.store)),
                                  batches=table.iter_batches(batch_size))
        choice.note_use()
        obs_trace.count(self.metrics, "index.range_seeks"
                        if choice.access == "range" else "index.seeks")
        obs_trace.add("index_seeks", 1)
        return SourceRelation(columns, batches=table.store.iter_positions(
            choice.positions, batch_size), positions=choice.positions)

    def _pushdown(self, statement: ast.SelectStatement):
        """Split the WHERE of a SELECT over a join: ``(pushed, select)``.

        ``pushed`` holds, by upper-cased qualifier, each conjunct one
        base-table leaf decides alone (:func:`pushable_qualifier`) — a
        leaf on an INNER or CROSS side or the preserved left side of a LEFT
        join, down nested joins, whose qualifier no other leaf shares: by
        name, ``T2.c`` reads the first of two ``T2`` leaves.  A column the
        leaf lacks is the BindError it is above the join: a qualified name
        never falls back to another source's column.  ``select`` is the
        statement with the AND of the other conjuncts as its WHERE."""
        leaves = list(_join_leaves(statement.from_clause, True))
        names = [(getattr(leaf, "alias", None) or getattr(leaf, "name", "")
                  or getattr(leaf, "rowset", "")
                  or getattr(leaf, "model", "")).upper()
                 for leaf, _ in leaves]
        takers = {name for (leaf, takes), name in zip(leaves, names)
                  if takes and names.count(name) == 1
                  and getattr(leaf, "name", "").upper() in self.tables}
        pushed, rest = {}, []
        for conjunct in ast.conjuncts(statement.where):
            qualifier = pushable_qualifier(conjunct)
            if qualifier in takers:
                pushed.setdefault(qualifier, []).append(conjunct)
            else:
                rest.append(conjunct)
        return pushed, replace(statement, where=ast.conjoin(rest))

    def _plan_filter(self, child, ref: ast.NamedTable,
                     conjuncts: List[ast.Expr]):
        """The WHERE conjuncts pushed to one join leaf, run over its scan:
        the join reads only the rows they hold True for."""
        condition = ast.conjoin(conjuncts)

        def open_filter(node, batch_size):
            relation = child.run(batch_size)
            return SourceRelation(relation.columns, batches=(
                self._filtered_batches(compile_selection(
                    conjuncts, relation.context()), relation, batch_size)))

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
            method = self._join_method(ref, right, left.columns,
                                       right.columns)
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

    def _join_method(self, ref: ast.Join, right, left_names,
                     right_names) -> "_JoinMethod":
        """Decide how a join runs, from the two sides' column names: which
        ON equalities bind as hash keys (the rest stay residual), and
        whether a right-side index supplies the hash.  The one decision
        both EXPLAIN's strategy text and :meth:`_open_join` read."""
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
        return _JoinMethod("hash join (right side build)", tuple(pairs),
                           tuple(bound), tuple(residual))

    def _open_join(self, node, ref: ast.Join, method: "Optional[_JoinMethod]",
                   batch_size: int) -> SourceRelation:
        """Streaming join: materialise the right (build) side, stream the
        left (probe) side batch by batch, so output row order is
        left-major."""
        left_plan, right_plan = node.children
        left = left_plan.run(batch_size)
        right = right_plan.run(batch_size)
        columns = left.columns + right.columns
        right_width = len(right.columns)
        if method is None:
            method = self._join_method(ref, right_plan, left.names(),
                                       right.names())
            node.strategy = method.strategy

        pairs, rest = method.pairs[:1], method.pairs[1:]
        outer = ref.kind == "LEFT"
        padding = tuple([None] * right_width)
        # Bound against the joined row before the build side is read: a
        # probe row's candidate pairs are selected as one batch — by the
        # whole ON in a nested loop (none in a CROSS join), else by the
        # residual (the other equi pairs, held by position, checked first).
        conditions = method.residual if pairs else ast.conjuncts(ref.condition)
        select = compile_selection(list(conditions), EvalContext.from_columns(
            left.names() + right.names())) if conditions else None
        if not pairs:
            right_rows = right.rows
            candidates = lambda batch: repeat(right_rows, len(batch))
        else:
            candidates = self._hash_build(method, right, pairs[0])

        def produce():
            for batch in left.batches(batch_size):
                out = []
                for l, rows in zip(batch, candidates(batch)):
                    if rest:
                        rows = [r for r in rows if all(
                            V.sql_equal(l[a], r[b]) for a, b in rest)]
                    if select is None:
                        for r in rows:
                            out.append(l + r)
                    else:
                        rows = select([l + r for r in rows])
                        out += rows
                    if outer and not rows:
                        out.append(l + padding)
                if out:
                    yield out
        return SourceRelation(columns, batches=produce())

    def _hash_build(self, method: "_JoinMethod", right: SourceRelation,
                    pair: Tuple[int, int]):
        """``candidates(batch)``: per probe row, the build side's rows whose
        key is its key on the first equi ``pair``, keyed by
        values.join_keys on every path.  The right side builds: a map from
        each key to its ascending positions in the right rows — a
        right-side index's own map when one serves, else one built from the
        rows here.  A key's bucket of rows is filled the first time a probe
        asks for it."""
        first_left, first_right = pair
        build_rows = right.rows
        if method.build_index is not None:
            # Each index bucket holds one key's positions in insertion
            # order.  One sequential read — the right side's scan — takes
            # the rows (a paged build side loads each page once, in page
            # order), and the bucket map is taken with them (``rebuild``
            # replaces it).  A row appended after that read is invisible,
            # as to a scan.
            build_index = method.build_index
            positions_of = build_index.hash.get
            if build_index.type_name == "BOOLEAN":
                # Keyed ("b", value) there; the probe's key is the float.
                positions_of = {1.0: positions_of(("b", True)),
                                0.0: positions_of(("b", False))}.get
            build_index.join_probes += 1
            obs_trace.count(self.metrics, "index.join_probes")
        else:
            positions_of = _hash_buckets(build_rows, first_right).get
        build, limit, take = {}, len(build_rows), build_rows.__getitem__

        def candidates(batch):
            found = []
            for key in V.join_keys([l[first_left] for l in batch]):
                rows = build.get(key)
                if rows is None:  # filled once: a repeat is one lookup
                    # (a NaN, unequal to itself, has no positions)
                    positions = key == key and positions_of(key) or ()
                    rows = build[key] = list(map(take, positions[
                        :bisect_left(positions, limit)]))
                found.append(rows)
            return found
        return candidates


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
    #: Conjuncts a probe row's candidates are selected by, unbound
    #: equalities included.
    residual: Tuple[ast.Expr, ...] = ()
    #: The right-side user index that supplies the buckets, if one does.
    build_index: Optional[Any] = None


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


def _hash_buckets(rows: List[tuple], column: int) -> Dict[Any, List[int]]:
    """The positions of ``rows`` by the join key of ``column``
    (:func:`values.join_keys`), each bucket ascending; a NULL or NaN key
    joins nothing and is left out (a NaN key would find another by object
    identity alone)."""
    buckets: Dict[Any, List[int]] = {}
    keys = V.join_keys([row[column] for row in rows])
    for position, key in enumerate(keys):
        if key is not None and key == key:
            buckets.setdefault(key, []).append(position)
    return buckets


#: Expression nodes a WHERE conjunct run below a join may contain: a
#: function call is not one (a prediction function reads the bound case,
#: not the source row), nor is a subquery of either kind.
PUSHABLE_NODES = (ast.BinaryOp, ast.UnaryOp, ast.IsNull, ast.InList,
                  ast.Between, ast.Like, ast.Literal)


def pushable_qualifier(conjunct: ast.Expr) -> Optional[str]:
    """The qualifier, upper-cased, of a WHERE conjunct that one join source
    decides alone: every column reference is ``qualifier.name`` and every
    other node a :data:`PUSHABLE_NODES` one.  None for any other conjunct —
    one that reads no column, two qualifiers or an unqualified name among
    them.  Judged from the AST alone, at plan time.  Dropping a
    source row the conjunct does not hold True for is exact: the WHERE is
    an AND over its conjuncts, and an AND with a False or NULL operand is
    never True."""
    qualifiers = set()

    def row_local(expr):
        if type(expr) is ast.ColumnRef:
            qualifiers.add(expr.parts[0].upper())
            return len(expr.parts) == 2
        return isinstance(expr, PUSHABLE_NODES) and \
            all(map(row_local, ast.children(expr)))
    return qualifiers.pop() \
        if row_local(conjunct) and len(qualifiers) == 1 else None


def _streams(statement: ast.UnionStatement) -> bool:
    """Whether a UNION chain streams: every link is UNION ALL."""
    return bool(statement.all_rows) and all(statement.all_rows)


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


# ---------------------------------------------------------------------------
# the result tail: what every SELECT ends in — relational (streamed,
# blocking, grouped), UNION's dedup and the PREDICTION JOIN alike
# ---------------------------------------------------------------------------

def item_name(item: ast.SelectItem, ordinal: int) -> str:
    """A select item's output name: its alias, a column's or function's
    name, else ``Expr<n>``."""
    if item.alias:
        return item.alias
    if isinstance(item.expr, (ast.ColumnRef, ast.FuncCall)):
        return item.expr.name
    return f"Expr{ordinal + 1}"


def order_keys(statement: ast.SelectStatement, expanded,
               bare_only: bool = True):
    """Where each ORDER BY key stands in a value row: ``(order,
    hidden)``.  A name matching an output column of the ``(expr, name,
    position)`` ``expanded`` list (a bare one only, unless the SELECT is
    grouped) is that column's position; any other key is a hidden
    expression, appended to ``hidden``, whose value stands behind the
    select list's."""
    names = list(map(str.upper, map(itemgetter(1), expanded)))
    order, hidden = [], []
    for item in statement.order_by:
        expr = item.expr
        if type(expr) is ast.ColumnRef and expr.name.upper() in names \
                and (len(expr.parts) == 1 or not bare_only):
            order.append(names.index(expr.name.upper()))
        else:
            order.append(len(names) + len(hidden))
            hidden.append(expr)
    return order, hidden


def typed_stream(names: List[str], declared: List[Optional[RowsetColumn]],
                 batches: Iterable[List[tuple]]) -> RowStream:
    """The result stream of the value-row ``batches``, its columns typed by
    the one rule: an item that reads a source column as it is has that
    column's type and nested columns (``declared``, named already); any
    other takes the type of its first non-NULL value — TABLE with the
    nested rowset's columns — and is TEXT when it has none.

    The head the rule needs is buffered and replayed ahead of the rest:
    batches until every value-typed column has shown a value, each looked
    at once and only in the columns still waiting.  A result of declared
    columns reads no row."""
    if None not in declared:
        return RowStream(declared, batches)
    columns = list(declared)
    waiting = [position for position, column in enumerate(columns)
               if column is None]
    head, batches = [], iter(batches)
    for batch in batches:
        head.append(batch)
        still = []
        for position in waiting:
            sample = next(filter(partial(is_not, None),
                                 map(itemgetter(position), batch)), None)
            if sample is None:
                still.append(position)
            elif isinstance(sample, Rowset):
                columns[position] = RowsetColumn(names[position], TABLE,
                                                 list(sample.columns))
            else:
                columns[position] = RowsetColumn(names[position],
                                                 infer_type(sample))
        waiting = still
        if not waiting:
            break
    for position in waiting:
        columns[position] = RowsetColumn(names[position], TEXT)
    return RowStream(columns, chain(head, batches))


def limited(batches: Iterable[List[tuple]], top: Optional[int]):
    """TOP: at most ``top`` rows of ``batches`` (all of them for None),
    pulling no batch once satisfied."""
    if top is None:
        return batches

    def first(remaining):
        if remaining > 0:
            for batch in batches:
                batch = batch[:remaining]
                if batch:
                    yield batch
                remaining -= len(batch)
                if not remaining:
                    return
    return first(top)


def distinct_positions(rows: List[tuple], width: int) -> List[int]:
    """DISTINCT: where the first occurrence of each row stands, by its
    first ``width`` values — what stands behind them (hidden ORDER BY
    keys) rides along."""
    seen, kept = set(), []
    for position, row in enumerate(rows):
        key = _row_key(row[:width])
        if key not in seen:
            seen.add(key)
            kept.append(position)
    return kept


def order_rows(rows: List[tuple], order: List[int],
               directions: List[bool]) -> List[tuple]:
    """ORDER BY: ``rows`` stably sorted by the values at the ``order``
    positions, each ascending or not by ``directions``.  Rows that already
    stand in that order — an insertion-ordered scan under a SHAPE source's
    ORDER BY — are returned as they are (:func:`_already_ordered`): a
    stable sort of ordered input is the identity.  Otherwise the sort keys
    are the raw values where every key column orders natively, their
    ``sort_key`` tuples where one does not."""
    columns = [list(map(itemgetter(position), rows)) for position in order]
    if _already_ordered(columns, directions):
        return rows
    if not all(map(V.orders_natively, columns)):
        columns = [list(map(V.sort_key, column)) for column in columns]
    return _multi_key_sort(rows, list(zip(*columns)), directions)


def blocked_result(statement: ast.SelectStatement, names: List[str],
                   declared: List[Optional[RowsetColumn]], rows: List[tuple],
                   order: List[int], batch_size: int, sources=None,
                   keys=()) -> RowStream:
    """A drained result's tail: DISTINCT, then ORDER BY (keys at
    ``order``), then TOP over value rows, each the select list's values
    and then any hidden ORDER BY keys; the rows that remain, cut to the
    select list and re-batched, typed by :func:`typed_stream`.

    With ``keys``, ``rows`` hold the select list alone and the hidden keys
    are evaluated here, over the ``sources`` (source rows or groups) of
    the rows DISTINCT keeps — key by key, once the select list is over
    every row, so a select-list error of any row comes before a key's."""
    width = len(names)
    if statement.distinct:
        kept = distinct_positions(rows, width)
        rows = list(map(rows.__getitem__, kept))
        if keys:
            sources = list(map(sources.__getitem__, kept))
    if keys:
        columns = [list(map(key, sources)) for key in keys]
        rows = [row + values for row, values in zip(rows, zip(*columns))]
    if statement.order_by:
        rows = order_rows(rows, order,
                          [item.ascending for item in statement.order_by])
    rows = rows[:statement.top]
    if rows and len(rows[0]) > width:
        rows = [row[:width] for row in rows]
    return typed_stream(names, declared, (
        rows[start:start + batch_size]
        for start in range(0, len(rows), batch_size)))


def _constant(expr: ast.Expr, context: EvalContext,
              value_of=LITERAL_VALUE) -> Any:
    """The value of an expression evaluated once, with no row to read: a
    literal is read (``value_of``), anything else compiles and runs."""
    if type(expr) is ast.Literal:
        return value_of(expr)
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
