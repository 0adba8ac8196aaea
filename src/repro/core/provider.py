"""The OLE DB DM provider: one command surface for SQL and DMX.

:class:`Provider` owns the relational engine and the mining-model catalog
and dispatches every statement — the "analysis server" box of the paper's
Figure 1, layered on the relational engine through the engine's
``external_source`` hook.  :class:`Connection` is the thin session facade
(`connect()` creates one) that applications use, playing the role of an
OLE DB session issuing command strings.

Name resolution follows the paper's "model as table" analogy: INSERT INTO
and DELETE FROM look the target up in the model catalog first, then fall
back to base tables, so the same statement forms work on both.
"""

from __future__ import annotations

import re
import threading
import time
import weakref
from itertools import chain
from typing import Any, Callable, Dict, List, Optional

from repro.errors import BindError, CatalogError, Error, ParseError
from repro.lang import ast_nodes as ast
from repro.lang.lexer import Scan
from repro.lang.parser import parse_statement
from repro.lang.templates import TemplateCache
from repro.obs import MetricsRegistry, Tracer, WorkloadRegistry
from repro.obs import trace as obs_trace
from repro.obs import workload as obs_workload
from repro.obs.explain import PlanNode, build_plan, explain_rowset
from repro.obs.repository import WorkloadRepository
from repro.shaping.shape import plan_shape
from repro.sqlstore.engine import Database, SourceRelation, as_from_source
from repro.sqlstore.rowset import DEFAULT_BATCH_SIZE, Rowset, RowStream
from repro.store.durable import MUTATING_STATEMENTS
from repro.exec.pool import WorkerPool
from repro.algorithms.registry import resolve_algorithm
from repro.core.casecache import CasesetCache
from repro.core.columns import compile_model_definition
from repro.core.model import MiningModel
from repro.core.prediction import bind_prediction, keeps_plan, \
    prepare_prediction
from repro.core.schema_rowsets import model_content_rowset, system_rowset


def _condense(command: str, limit: int = 120) -> str:
    """Collapse whitespace and truncate a statement for error/log display."""
    text = " ".join(command.split())
    if len(text) > limit:
        text = text[:limit - 3] + "..."
    return text


def _attach_statement(exc: Error, command: str) -> None:
    """Append the failing statement text to a parse/bind error in place.

    Mutating ``args`` (rather than raising a new exception) preserves the
    concrete error type and any attributes such as ``ParseError.line``.
    """
    snippet = _condense(command)
    message = str(exc)
    if "[in statement:" in message:
        return
    exc.args = (f"{message} [in statement: {snippet}]",)


def _statement_kind(statement: ast.Statement, provider=None) -> str:
    """Classify an AST node for the query log / per-kind metrics."""
    if isinstance(statement, ast.ExplainStatement):
        return "EXPLAIN_ANALYZE" if statement.analyze else "EXPLAIN"
    if isinstance(statement, ast.CreateMiningModelStatement):
        return "CREATE_MODEL"
    if isinstance(statement, ast.InsertModelStatement):
        return "TRAIN"
    if isinstance(statement, ast.InsertValuesStatement):
        if provider is not None and \
                statement.table.upper() in provider.models:
            return "TRAIN"
        return "INSERT"
    if isinstance(statement, ast.SelectStatement):
        if isinstance(statement.from_clause, ast.PredictionJoin):
            return "PREDICT"
        return "SELECT"
    if isinstance(statement, (ast.DeleteModelStatement, ast.DeleteStatement)):
        return "DELETE"
    if isinstance(statement, ast.DropMiningModelStatement):
        return "DROP_MODEL"
    if isinstance(statement, ast.DropTableStatement):
        return "DROP"
    if isinstance(statement, ast.ExportModelStatement):
        return "EXPORT"
    if isinstance(statement, ast.ImportModelStatement):
        return "IMPORT"
    name = type(statement).__name__
    if name.endswith("Statement"):
        name = name[:-len("Statement")]
    return re.sub(r"(?<=[a-z])(?=[A-Z])", "_", name).upper()


#: The kinds of the control verbs, which have no plan.
_CONTROL_KINDS = ("TRACE", "CANCEL", "EXPLAIN", "EXPLAIN_ANALYZE")

#: Seconds a statement waiting for the writer lock blocks between two
#: checks of its cancel token.
_WRITER_WAIT_SLICE_S = 0.05


def _await_writer_lock(lock) -> None:
    """Take the contended writer lock in timed slices, honouring the
    waiting statement's CANCEL between them; the wait, cancelled or not,
    is one ``provider:writer`` lock wait on the statement and in
    ``$SYSTEM.DM_LOCK_WAITS``."""
    started = time.perf_counter()
    try:
        while not lock.acquire(timeout=_WRITER_WAIT_SLICE_S):
            obs_workload.check()
    finally:
        obs_workload.note_lock_wait(
            "provider:writer", "write",
            (time.perf_counter() - started) * 1000.0)


def _weak_hook(method: Callable) -> Callable:
    """``method`` as a hook that does not keep its object alive.  The
    provider owns the database and the tracer it hands its hooks to; held
    strongly they would close two reference cycles, and a closed
    connection's tables would wait for a gen-2 collection.  After the
    provider is gone the hook answers None — "not mine" to the engine."""
    ref = weakref.WeakMethod(method)

    def hook(*args):
        target = ref()
        return None if target is None else target(*args)
    return hook


class Provider:
    """The provider: relational engine + mining-model catalog + dispatcher.

    ``batch_size`` sets the granularity of the streaming pipeline (rows per
    batch exchanged between operators); ``caseset_cache_capacity`` sizes
    the LRU cache of bound casesets (0 disables it).
    ``max_workers`` caps the shared worker pool used by the parallel
    PREDICTION JOIN (1 = always serial), and ``pool_mode`` picks its
    transport (``auto``/``serial``/``thread``/``process``); a statement's
    ``WITH MAXDOP n`` can only lower the cap.  A model INSERT trains in
    one pass on any pool and accepts ``WITH MAXDOP`` without using it.

    ``durable_path`` attaches a crash-safe store (:mod:`repro.store`): the
    directory's snapshot + journal are replayed into this provider at
    construction, and every subsequent mutating statement is journaled and
    fsync'd before it is acknowledged.  ``durable_checkpoint_interval``
    sets how many journaled statements trigger an automatic checkpoint
    (0 disables auto-checkpointing).

    ``storage_path`` attaches the paged row store (:mod:`repro.sqlstore.
    storage`): base-table rows live in fixed-budget pages cached by a
    shared buffer pool of ``buffer_pages`` frames and spilled to versioned
    files, so tables larger than the pool stream from disk.  Alone, the
    paged store is itself the restart-surviving database (shadow-paged
    commit per mutation); combined with ``durable_path`` it runs ephemeral
    — journal replay stays the authority and the directory is pure spill
    space.  ``storage_page_bytes`` overrides the page budget (tests force
    tiny pages).

    ``faults`` threads one :class:`repro.store.FaultInjector` (tests)
    through the write paths of both stores: the durable store's journal,
    snapshot, checkpoint and export stations, and the paged store's page,
    catalog and catalog_log ones — disjoint prefixes, so a fault armed for
    one store never fires in the other.

    ``telemetry_path`` attaches a rotating JSONL slow-query sink: every
    statement whose latency reaches ``slow_query_ms`` (default 0 — log
    everything) is appended as one JSON record, including its trace rows
    when span capture was on.  :meth:`serve_metrics` starts the HTTP
    telemetry endpoint (``/metrics``, ``/healthz``, ``/queries``,
    ``/statements``).

    ``repository`` gates the workload repository
    (:mod:`repro.obs.repository`): per-fingerprint statement aggregates
    and plan history behind ``$SYSTEM.DM_STATEMENT_STATS`` /
    ``DM_PLAN_HISTORY`` / ``DM_PLAN_CHANGES``.  On by default
    (observation-only, pinned by the differential suite); with a
    ``durable_path`` it persists to ``workload_repository.json`` in that
    directory.
    """

    def __init__(self, batch_size: int = DEFAULT_BATCH_SIZE,
                 caseset_cache_capacity: int = 8,
                 max_workers: int = 1,
                 pool_mode: str = "auto",
                 durable_path: Optional[str] = None,
                 durable_checkpoint_interval: Optional[int] = None,
                 storage_path: Optional[str] = None,
                 buffer_pages: Optional[int] = None,
                 storage_page_bytes: Optional[int] = None,
                 faults=None,
                 slow_query_ms: Optional[float] = None,
                 telemetry_path: Optional[str] = None,
                 statistics: bool = True,
                 repository: bool = True):
        self.database = Database(
            external_source=_weak_hook(self.plan_external_source),
            batch_size=batch_size, statistics=statistics)
        self.models: Dict[str, MiningModel] = {}
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.database.metrics = self.metrics
        self.caseset_cache = CasesetCache(capacity=caseset_cache_capacity,
                                          metrics=self.metrics)
        self.pool = WorkerPool(max_workers=max_workers, mode=pool_mode,
                               metrics=self.metrics)
        self.workload = WorkloadRegistry(metrics=self.metrics)
        self.templates = TemplateCache(metrics=self.metrics)
        repo_path = None
        if durable_path is not None:
            import os
            repo_path = os.path.join(durable_path, "workload_repository.json")
        self.repository = WorkloadRepository(path=repo_path,
                                             metrics=self.metrics)
        self.repository.enabled = bool(repository)
        self.tracer.on_statement = _weak_hook(self._observe_statement)
        # Listed at 0 from the start, before completion's fold writes them.
        for name in ("statements.total", "resource.cpu_ms",
                     "resource.pool_cpu_ms", "resource.lock_wait_ms",
                     "resource.rows_processed"):
            self.metrics.counter(name)
        self.metrics.histogram("statements.latency_ms")
        self.metrics.histogram("resource.statement_cpu_ms")
        self.slow_sink = None
        if telemetry_path is not None:
            from repro.obs.sink import SlowQuerySink
            self.slow_sink = SlowQuerySink(
                telemetry_path,
                threshold_ms=0.0 if slow_query_ms is None else slow_query_ms)
        self._metrics_server = None
        # Attached DMX network server (repro.server.DmxServer), if any;
        # set by the server itself so close() can drain it and
        # $SYSTEM.DM_SESSIONS can see its sessions.
        self.dmx_server = None
        # One writer at a time, on every provider: a mutating statement
        # holds this from its planning to its commit, and a checkpoint
        # holds it while it snapshots.  Reentrant: an auto-checkpoint runs
        # inside the statement that triggered it.  Readers take no lock.
        self.writer_lock = threading.RLock()
        self.store = None
        self.recovery_info = None
        self.storage = None
        if storage_path is not None:
            from repro.sqlstore.buffer import DEFAULT_BUFFER_PAGES
            from repro.sqlstore.pages import DEFAULT_PAGE_BYTES
            from repro.sqlstore.storage import StorageManager
            # With a durable journal attached, replay is the authority and
            # the paged store is pure spill space (ephemeral); alone, the
            # paged store *is* the restart-surviving database.
            self.storage = StorageManager(
                storage_path,
                buffer_pages=(DEFAULT_BUFFER_PAGES if buffer_pages is None
                              else buffer_pages),
                faults=faults, metrics=self.metrics,
                ephemeral=durable_path is not None,
                page_bytes=(DEFAULT_PAGE_BYTES if storage_page_bytes is None
                            else storage_page_bytes))
            self.database.store_factory = self.storage.make_store
            self.storage.open_into(self.database)
        if durable_path is not None:
            from repro.store.durable import (
                DEFAULT_CHECKPOINT_INTERVAL,
                DurableStore,
            )
            interval = (DEFAULT_CHECKPOINT_INTERVAL
                        if durable_checkpoint_interval is None
                        else durable_checkpoint_interval)
            self.store = DurableStore(
                durable_path, checkpoint_interval=interval,
                faults=faults, metrics=self.metrics)
            self.recovery_info = self.store.recover(self)

    def close(self) -> None:
        """Release pooled workers (the pool revives lazily if reused), the
        durable store's journal handle, any telemetry endpoint, and an
        attached DMX network server (drained before teardown)."""
        if self.dmx_server is not None:
            self.dmx_server.close()
        if self._metrics_server is not None:
            self._metrics_server.close()
            self._metrics_server = None
        self.pool.shutdown()
        self.repository.save()
        if self.store is not None:
            self.store.close()
        if self.storage is not None:
            self.storage.close(self.database)

    def serve_metrics(self, port: int = 0, host: str = "127.0.0.1"):
        """Start (or return) the HTTP telemetry endpoint for this provider.

        Serves ``/metrics`` (Prometheus text exposition), ``/healthz``
        (200 while the store is writable, 503 once it turns read-only),
        and ``/queries`` (recent DM_QUERY_LOG as JSON) on a daemon thread.
        ``port=0`` binds an ephemeral port; read it back from
        ``server.port``.  A closed server is replaced rather than returned,
        so serve/close cycles on one provider always yield a live endpoint.
        """
        if self._metrics_server is None or self._metrics_server.closed:
            from repro.obs.export import TelemetryServer
            self._metrics_server = TelemetryServer(self, host=host,
                                                   port=port)
        return self._metrics_server

    def checkpoint(self) -> None:
        """Snapshot the durable store now and truncate its journal.

        The snapshot is taken under the writer lock, so it lands on a
        statement boundary: no mutation, embedded or over the wire, is
        between its apply and its journal record.  Reads go on meanwhile;
        they change no durable state.
        """
        if self.store is None:
            raise Error("this provider has no durable store; open one with "
                        "connect(durable_path=...)")
        with self.writer_lock:
            self.store.checkpoint(self)
        self.repository.save()

    # -- catalog ----------------------------------------------------------------

    def model(self, name: str) -> MiningModel:
        try:
            return self.models[name.upper()]
        except KeyError as exc:
            raise BindError(f"no mining model named {name!r}") from exc

    def has_model(self, name: str) -> bool:
        return name.upper() in self.models

    def list_models(self) -> List[MiningModel]:
        return [self.models[key] for key in sorted(self.models)]

    def drop_model(self, statement: ast.DropMiningModelStatement) -> int:
        """DROP: the catalog entry and the bound casesets cached under the
        model's name, which nothing can hit once it is gone."""
        key = statement.name.upper()
        if key in self.models:
            del self.models[key]
            self.caseset_cache.discard_model(key)
            self.templates.drop_plans()  # a kept singleton holds the model
        elif not statement.if_exists:
            raise CatalogError(f"no mining model named {statement.name!r}")
        return 0

    def reset_model(self, statement: ast.DeleteModelStatement) -> int:
        """DELETE FROM a model: its caseset and content, under its lock."""
        model = self.model(statement.name)
        with model.lock.write():
            model.reset()
        return 0

    # -- dispatch ----------------------------------------------------------------

    def execute(self, command: str) -> Any:
        """Parse and execute one command; Rowset for queries, int for DML.

        Every statement (except the TRACE verb itself, which controls the
        tracer) is one :class:`~repro.obs.trace.StatementRecord`, admitted
        here and completed when this call returns or raises, so the
        ``$SYSTEM.DM_QUERY_LOG`` ring and provider metrics stay populated.
        """
        stripped = command.lstrip()
        first = stripped.split(None, 1)[0].upper() if stripped else ""
        if first == "TRACE":
            return self.execute_ast(parse_statement(command))
        record, result = self._admitted(
            command, lambda statement, plan: self._execute_statement(
                statement, command, plan))
        self.tracer.complete(record)
        return result

    def _admitted(self, command: str, run: Callable):
        """One statement's admission, shared by :meth:`execute` and
        :meth:`execute_stream`: admit its record (live in the workload
        registry, active on this thread until this returns), parse it —
        through the statement-template cache, which runs the parser only
        on a shape it has not seen — and classify it, plan it once (a
        control verb has no plan; a mutating statement is planned under
        the writer lock) — outside any model lock, a templated SELECT,
        UNION or singleton PREDICTION JOIN from its shape's kept plan — and
        hand that plan,
        with the shape's fingerprint, to the workload repository
        (skeleton, hash, estimate).  Then ``run(statement, plan)`` — a
        statement made from a template shares nodes with others of its
        shape, so the tree is read-only from here on — and return
        ``(record, its result)``.
        A failure anywhere completes the record; success leaves completion
        to the caller, whose statement may outlive this call as a stream.
        A statement that fails to plan is still fingerprinted, so its
        error counts against its aggregates."""
        record = self.tracer.admit(command,
                                   session=obs_workload.session_id())
        self.workload.admit(record)
        previous = obs_trace.activate(record)
        lock = None
        try:
            obs_workload.set_phase("parse")
            try:
                statement, shape, slot = self.templates.parse(command)
            except ParseError as exc:
                _attach_statement(exc, command)
                raise
            # (A template hit is made a statement only if it is planned as
            # one; its kind is its template's.)
            shaped = statement or slot[0].statement
            record.kind = kind = _statement_kind(shaped, self)
            # A mutating statement (or EXPLAIN ANALYZE of one) holds the
            # writer lock from here to its commit: its plan reads the data
            # — the table an INSERT … SELECT reads, an index seek's row
            # positions — so no other mutation may commit before it runs,
            # or it would change rows it did not read (and its journal
            # record would replay against data it did not run on).
            if type(shaped.statement if kind == "EXPLAIN_ANALYZE"
                    else shaped) in MUTATING_STATEMENTS:
                if not self.writer_lock.acquire(blocking=False):
                    _await_writer_lock(self.writer_lock)
                lock = self.writer_lock
            plan = None
            try:
                statement, plan = self._prepared_plan(statement, kind, slot)
            except BindError as exc:
                _attach_statement(exc, command)
                raise
            finally:
                self.repository.annotate(record, shape, plan)
            return record, run(statement, plan)
        except BaseException as exc:
            self.tracer.complete(record, exc)
            raise
        finally:
            if lock is not None:
                lock.release()
            obs_trace.deactivate(previous)

    def _prepared_plan(self, statement: Optional[ast.Statement], kind: str,
                       slot):
        """``(statement, plan)``: the statement — made from its template
        when the parse hit one (``statement`` None; ``slot`` is the parse's
        ``(template, slot values)``) — and its plan (none for a control
        verb).  A templated SELECT or UNION (not FLATTENED) reads its
        template's kept plan of the shape when the catalog has not changed
        since it was prepared (a hit); otherwise (a miss) it prepares the
        shape and, when every source is a base table, keeps the plan there
        with the catalog version it was prepared against — any other shape
        binds that prepared plan to its statement, made.  Every statement
        of a kept shape runs the tree its access path shares
        (:meth:`Database.bind_values`): one whose every literal one of its
        WHERE's kernels reads is bound by its values alone and runs as the
        template's own statement, never made; any other is made, and its
        tree reads it.  A templated PREDICTION JOIN whose every literal is
        an item of its FROM-less SELECT source (:func:`keeps_plan`) is kept
        the same way, also while its model is the object it was prepared
        for: each statement opens the kept tree with its own values, never
        made (:func:`bind_prediction`).  Any other statement is planned by
        :func:`build_plan`."""
        if slot is not None and kind in ("SELECT", "UNION") and \
                not getattr(slot[0].statement, "flattened", False):
            template, values = slot
            database = self.database
            version = database.catalog_version
            kept, prepared, by_values = template.plan or (None, None, False)
            if kept != version:
                if prepared is not None:
                    obs_trace.count(self.metrics, "sqlstore.plan_cache.misses")
                prepared = database.prepare(template.statement)
                reads = prepared.reads()
                by_values = reads is not None and \
                    reads.issuperset(template.slots)
                if database.catalog_version == version:  # no DDL meanwhile
                    template.plan = (version, None if reads is None
                                     else prepared, by_values)
                if reads is None:  # planned statement by statement
                    statement = statement or template.instantiate(values)
                    return statement, database.bind(
                        prepared, template.value_of(values), statement)
            elif prepared is not None:
                obs_trace.count(self.metrics, "sqlstore.plan_cache.hits")
            if prepared is not None:
                statement = template.statement if by_values \
                    else template.instantiate(values)
                return statement, database.bind_values(
                    prepared, template.value_of(values), statement)
        elif slot is not None and kind == "PREDICT":
            template, values = slot
            version = self.database.catalog_version
            kept, prepared, _ = template.plan or (None, None, True)
            if kept == version and prepared.current(self):
                obs_trace.count(self.metrics, "sqlstore.plan_cache.hits")
            elif keeps_plan(template.statement, template.slots):
                if prepared is not None:
                    obs_trace.count(self.metrics, "sqlstore.plan_cache.misses")
                prepared = prepare_prediction(self, template.statement)
                if self.database.catalog_version == version:
                    template.plan = (version, prepared, True)
            else:
                prepared = None
            if prepared is not None:
                return template.statement, bind_prediction(
                    template.value_of(values), prepared)
        if statement is None:
            statement = slot[0].instantiate(slot[1])
        return statement, (None if kind in _CONTROL_KINDS
                           else build_plan(self, statement))

    def _execute_statement(self, statement: ast.Statement, command: str,
                           plan: Optional[PlanNode] = None) -> Any:
        """Run ``statement`` (``plan``, its already-built tree, if it has
        one), then commit it if it mutates — shared by :meth:`execute` and
        EXPLAIN ANALYZE, which commits the *inner* statement's text, so
        crash replay re-runs the mutation rather than the EXPLAIN wrapper.
        A mutation runs under the writer lock :meth:`_admitted` took."""
        mutating = type(statement) in MUTATING_STATEMENTS
        version = self.database.catalog_version
        try:
            if mutating and self.store is not None:
                # Refuse up front if a previous durability failure left
                # memory ahead of disk: don't widen the divergence.
                self.store.ensure_healthy()
                if isinstance(statement, ast.CreateMiningModelStatement):
                    # A model the next checkpoint could not write is
                    # refused before it exists.  Replay calls execute_ast,
                    # so an old journal still recovers.
                    resolve_algorithm(
                        statement.algorithm).require_persistence()
            result = self.execute_ast(statement, plan)
        except BindError as exc:
            _attach_statement(exc, command)
            raise
        if not mutating:
            return result
        if self.database.catalog_version != version:
            self.templates.drop_plans()
        # Ack ordering: a mutation is acknowledged (returned to the caller)
        # only once it is committed — its journal record fsync'd, or else
        # the paged store's shadow-page commit made (flush dirty pages,
        # move the catalog root).  A crash before this point loses only an
        # unacknowledged statement.
        if self.store is not None:
            self.store.record_statement(self, statement, command)
        elif self.storage is not None and not self.storage.ephemeral:
            self.storage.commit(self.database)
        return result

    def execute_ast(self, statement: ast.Statement,
                    plan: Optional[PlanNode] = None) -> Any:
        """Execute one parsed statement: a control verb, or the plan
        :func:`build_plan` makes of any other — ``plan`` when the caller
        already built it — run, and a query's rows materialized."""
        if isinstance(statement, ast.TraceStatement):
            return self._execute_trace(statement)
        if isinstance(statement, ast.CancelStatement):
            return self._execute_cancel(statement)
        if isinstance(statement, ast.ExplainStatement):
            return self._execute_explain(statement)
        result = (plan or build_plan(self, statement)).run(
            self.database.batch_size)
        return result.materialize() if isinstance(result, RowStream) \
            else result

    # -- observability ------------------------------------------------------------

    def _execute_explain(self, statement: ast.ExplainStatement) -> Rowset:
        """EXPLAIN [ANALYZE]: plan description, optionally with actuals.

        Plain EXPLAIN is pure — the planner pass reads catalog statistics
        only, so no data-path span is opened and no state is mutated.
        ANALYZE executes the very tree rendered, on this statement's record,
        and renders it with the actuals its nodes took as they ran.
        Estimates are filled before execution, so a mutating inner
        statement is estimated against the data it started from.
        """
        inner = statement.statement
        plan = build_plan(self, inner)
        plan.estimate()
        # With no active record (recording off, or a direct execute_ast()
        # call) a scratch record nobody completes takes the actuals, and
        # the metrics counted on it are folded here.
        active = obs_trace.active_record()
        record = active or obs_trace.StatementRecord(0, "EXPLAIN")
        if statement.analyze:
            from repro.lang.formatter import format_statement
            previous = obs_trace.activate(record)
            try:
                self._execute_statement(inner, format_statement(inner), plan)
            finally:
                obs_trace.deactivate(previous)
                if active is None:
                    self.metrics.fold(record.folds)
        rowset = explain_rowset(plan, record if statement.analyze else None)
        # ROWS_OUT is the rows this statement returns; the analyzed
        # statement's own are its root's ACTUAL_ROWS.
        totals = record.actuals.totals() if record.actuals else {}
        record.actuals = None
        record.counters.update(totals, rows_out=len(rowset.rows))
        return rowset

    def plan_external_source(self, ref: ast.TableRef) -> Optional[PlanNode]:
        """The engine's one hook: plan a FROM source only the mining layer
        knows — SHAPE, ``$SYSTEM.*``, ``<model>.CONTENT/.CASES/.PMML`` — as
        a node that describes it for EXPLAIN and whose ``run`` opens it as
        a :class:`SourceRelation`.  None hands ``ref`` back to the engine.
        """
        if isinstance(ref, ast.ShapeSource):
            return as_from_source(plan_shape(ref.shape, self.database),
                                  ref.alias)
        if isinstance(ref, ast.SystemRowsetRef):
            return PlanNode(
                "system rowset", target=f"$SYSTEM.{ref.rowset.upper()}",
                strategy="materialized snapshot",
                open=lambda *_: SourceRelation.from_rowset(
                    system_rowset(self, ref.rowset),
                    ref.alias or ref.rowset))
        if isinstance(ref, ast.ModelContentRef):
            model = self.model(ref.model)

            def facet(*_) -> SourceRelation:
                if ref.facet == "CONTENT":
                    rowset = model_content_rowset(model)
                elif ref.facet == "PMML":
                    from repro.pmml.writer import pmml_rowset
                    rowset = pmml_rowset(model)
                elif ref.facet == "CASES":
                    rowset = self._model_cases_rowset(model)
                else:  # pragma: no cover - parser restricts facets
                    raise BindError(f"unknown model facet {ref.facet!r}")
                return SourceRelation.from_rowset(rowset,
                                                  ref.alias or ref.model)
            return PlanNode(
                f"model {ref.facet.lower()}", target=model.name,
                strategy="materialized", open=facet,
                est_rows=model.case_count if ref.facet == "CASES" else None)
        if isinstance(ref, ast.NamedTable) and self.has_model(ref.name):
            raise Error(
                f"{ref.name!r} is a mining model; query its content with "
                f"SELECT * FROM [{ref.name}].CONTENT or predict with "
                f"PREDICTION JOIN (section 3.3)")
        return None

    def _execute_trace(self, statement: ast.TraceStatement) -> str:
        """TRACE ON|OFF|LAST|STATUS — control and inspect the tracer."""
        from repro import reporting
        mode = statement.mode.upper()
        if mode == "ON":
            self.tracer.enabled = True
            return "tracing is ON (span capture enabled)"
        if mode == "OFF":
            self.tracer.enabled = False
            return "tracing is OFF (statement log only)"
        if mode == "LAST":
            record = self.tracer.last()
            if record is None:
                return ("no traced statement in the ring — execute a "
                        "statement first (TRACE ON enables span capture)")
            return reporting.render_trace(record)
        state = "ON" if self.tracer.enabled else "OFF"
        return (f"tracing is {state}; "
                f"{len(self.tracer)} statement(s) in the ring "
                f"(capacity {self.tracer.ring_size})")

    def _execute_cancel(self, statement: ast.CancelStatement) -> str:
        """CANCEL <id> — request cooperative cancellation of a live statement.

        Returns immediately; the target unwinds at its next batch, pool
        task, or training-iteration checkpoint and lands in
        ``DM_QUERY_LOG`` with status ``cancelled``.  When the CANCEL verb
        itself arrives over the wire, the request is scoped to the issuing
        session — a session can only cancel its own statements.
        """
        target = self.workload.cancel(statement.statement_id,
                                      session=obs_workload.session_id())
        return (f"cancel requested for statement {target.statement_id} "
                f"({target.kind}, phase {target.phase}); it will stop at "
                f"its next checkpoint")

    def export_trace(self, path: str) -> int:
        """Write the trace ring as Chrome-trace JSON (chrome://tracing,
        Perfetto).  Returns the number of statements exported."""
        from repro.obs.export import export_chrome_trace
        return export_chrome_trace(self, path)

    def _observe_statement(self, record) -> None:
        """The tracer's completion callback, once per statement: fold the
        record into the repository, the metrics and the sink.  The span
        tree's totals and the statement's CPU are read once, for both
        folds; the metrics take theirs in one :meth:`MetricsRegistry.fold`
        — one call, the registry's lock taken once, each name created the
        first time it comes up (an ``activity.*`` counter at 0 too)."""
        totals = record.totals()
        kind = (record.kind or "UNKNOWN").lower()
        latency = record.duration_ms
        counts = {"statements.total": 1, f"statements.{kind}.count": 1}
        if record.status == "error":
            counts["statements.errors"] = 1
        elif record.status == "cancelled":
            counts["statements.cancelled"] = 1
        for name, amount in totals.items():
            counts[f"activity.{name}"] = amount
        observations = {"statements.latency_ms": latency,
                        f"statements.{kind}.latency_ms": latency}
        cpu_ms = None
        if record.registry is not None:
            cpu_ms = record.total_cpu_ms()
            counts["resource.cpu_ms"] = cpu_ms
            counts["resource.pool_cpu_ms"] = record.pool_cpu_ms
            counts["resource.lock_wait_ms"] = record.lock_wait_ms
            counts["resource.rows_processed"] = record.rows_processed
            observations["resource.statement_cpu_ms"] = cpu_ms
        counts.update(record.folds)
        self.repository.observe(record, totals, cpu_ms)
        self.metrics.fold(counts, observations)
        if self.slow_sink is not None:
            self.slow_sink.maybe_write(record)

    # -- model life cycle ---------------------------------------------------------

    def create_model(self, statement: ast.CreateMiningModelStatement) -> int:
        key = statement.name.upper()
        if key in self.models:
            raise CatalogError(
                f"mining model {statement.name!r} already exists")
        if self.database.has_table(statement.name):
            raise CatalogError(
                f"a table named {statement.name!r} already exists; model "
                f"names share the table name space")
        definition = compile_model_definition(statement)
        self.models[key] = MiningModel(definition)
        return 0

    # -- SELECT ---------------------------------------------------------------------

    def execute_stream(self, command: str,
                       batch_size: Optional[int] = None) -> RowStream:
        """Execute a SELECT (plain or PREDICTION JOIN) as a row stream.

        The returned :class:`RowStream` is single-use; blocking clauses
        (GROUP BY, ORDER BY, DISTINCT) still materialize internally, but
        pipelined shapes are produced batch by batch.

        The statement lives as long as its stream: its record stays a
        ``running`` row of ``$SYSTEM.DM_QUERY_LOG`` (and within reach of
        ``CANCEL``) until the stream is exhausted, raises, is closed or is
        dropped, and only then completes — ``ok`` with the counts of what
        was produced unless producing a batch raised.  A failure to
        parse, plan or open completes it before this call raises.
        """
        def open_stream(statement, plan) -> RowStream:
            if not isinstance(statement, (ast.SelectStatement,
                                          ast.UnionStatement)):
                raise Error(
                    "execute_stream supports SELECT statements only; "
                    "use execute() for DDL/DML")
            try:
                return plan.run(batch_size or self.database.batch_size)
            except BindError as exc:
                _attach_statement(exc, command)
                raise
        record, stream = self._admitted(command, open_stream)
        batches = self._produce(record, stream.batches())
        # A generator that never started runs no ``finally``: a stream
        # dropped before its first batch completes through this instead.
        weakref.finalize(batches, self.tracer.complete, record)
        return RowStream(stream.columns, batches)

    def _produce(self, record, batches):
        """``batches`` as the life of the statement ``record``: the record
        is this thread's active one only while a batch is being produced
        (so a statement the consumer runs between batches is its own), and
        completes wherever consumption ends."""
        try:
            while True:
                previous = obs_trace.activate(record)
                try:
                    batch = next(batches, None)
                finally:
                    obs_trace.deactivate(previous)
                if batch is None:
                    return
                yield batch
        except Exception as exc:
            self.tracer.complete(record, exc)
            raise
        finally:
            batches.close()  # closed or dropped early: unwind the producers
            self.tracer.complete(record)

    def _model_cases_rowset(self, model: MiningModel) -> Rowset:
        """``<model>.CASES``: drill through to the accumulated caseset."""
        model.require_trained()
        records = []
        for case in chain.from_iterable(model.training_cases):
            record = {name: value for name, value in case.scalars.items()}
            for table_name, rows in case.tables.items():
                record[table_name] = ", ".join(
                    str(row.get(model.definition.find(table_name)
                                .key_column().name.upper()))
                    for row in rows)
            records.append(record)
        return Rowset.from_dicts(records)

    # -- PMML -------------------------------------------------------------------------

    def export_model(self, statement: ast.ExportModelStatement) -> int:
        from repro.pmml.writer import write_pmml_file
        model = self.model(statement.name)
        write_pmml_file(model, statement.path)
        return 0

    def import_model(self, statement: ast.ImportModelStatement) -> int:
        from repro.pmml.reader import read_pmml_file
        model = read_pmml_file(statement.path)
        if statement.rename_to:
            model.definition.name = statement.rename_to
        key = model.name.upper()
        if key in self.models:
            raise CatalogError(
                f"mining model {model.name!r} already exists; use "
                f"IMPORT ... AS <new name>")
        self.models[key] = model
        return 0


class Connection:
    """A session on a provider (the OLE DB session/command analogue)."""

    def __init__(self, provider: Optional[Provider] = None):
        self.provider = provider or Provider()
        self._closed = False

    def execute(self, command: str) -> Any:
        """Execute one SQL or DMX command string."""
        if self._closed:
            raise Error("connection is closed")
        return self.provider.execute(command)

    def execute_stream(self, command: str,
                       batch_size: Optional[int] = None) -> RowStream:
        """Execute one SELECT as a single-use stream of row batches."""
        if self._closed:
            raise Error("connection is closed")
        return self.provider.execute_stream(command, batch_size)

    def cancel(self, statement_id: int) -> str:
        """Request cooperative cancellation of a live statement by id.

        Equivalent to executing ``CANCEL <id>`` (the id space is the one in
        ``$SYSTEM.DM_QUERY_LOG``); safe to call from another thread while
        the target is executing.
        """
        if self._closed:
            raise Error("connection is closed")
        target = self.provider.workload.cancel(statement_id)
        return (f"cancel requested for statement {target.statement_id} "
                f"({target.kind}, phase {target.phase})")

    def execute_script(self, script: str) -> List[Any]:
        """Execute ';'-separated statements; returns each result."""
        results = []
        for command in split_statements(script):
            results.append(self.execute(command))
        return results

    @property
    def database(self) -> Database:
        return self.provider.database

    def models(self) -> List[MiningModel]:
        return self.provider.list_models()

    def model(self, name: str) -> MiningModel:
        return self.provider.model(name)

    def close(self) -> None:
        self._closed = True
        self.provider.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def connect(**kwargs) -> Connection:
    """Open a connection to an OLE DB DM provider.

    Keyword arguments (``batch_size``, ``caseset_cache_capacity``,
    ``max_workers``, ``pool_mode``, ``durable_path``,
    ``durable_checkpoint_interval``, ``storage_path``, ``buffer_pages``,
    ``storage_page_bytes``, ``faults``, ``slow_query_ms``,
    ``telemetry_path``, ``statistics``, ``repository``) are forwarded to
    :class:`Provider`.
    ``repository=False`` disables the workload repository (per-fingerprint
    statement aggregates and plan history; observation-only either way).
    ``statistics=False`` disables table statistics and pins the planner to
    the pre-statistics heuristics (the cost-based planner's differential
    baseline).  Without ``durable_path`` the provider is purely
    in-memory; with it, existing state under that directory is recovered
    (snapshot + journal replay) and every acknowledged mutation survives
    process death.  ``storage_path``/``buffer_pages``/``storage_page_bytes``
    attach the paged row store so base tables larger than the buffer pool
    spill to disk.  ``faults`` threads a fault injector through both
    stores' write paths (tests).
    ``telemetry_path``/``slow_query_ms`` attach the rotating JSONL
    slow-query sink.
    """
    return Connection(Provider(**kwargs))


def split_statements(script: str) -> List[str]:
    """Split a script at its ``;`` tokens, as the lexer reads strings,
    [identifiers] and comments (:class:`lexer.Scan`).  A comment goes with
    the statement after it, a piece holding no token is no statement, and
    text the lexer cannot take stays in its piece, so running that piece
    reports the lexer's error."""
    scan = Scan(script)
    statements: List[str] = []
    start, pos, tokens = 0, scan.start, False
    for spelled, number, string, trivia in scan.rows:
        if not (spelled or number or string):
            break  # end of text, or text no alternative took
        if spelled == ";":
            if tokens:
                statements.append(script[start:pos].strip())
            start, tokens = pos + 1, False
        else:
            tokens = True
        pos += len(spelled) + len(number) + len(string) + len(trivia)
    if tokens or pos < len(script):
        statements.append(script[start:].strip())
    return statements
