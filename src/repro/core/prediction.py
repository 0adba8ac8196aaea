"""PREDICTION JOIN execution (paper section 3.3).

"The basic operation of obtaining prediction on a dataset D using a DMM M is
modeled as a 'prediction join' between D and M."  Execution:

1. open the source (a SHAPE block, sub-select, or table) as a row stream;
2. with its columns known and no row read yet, bind once: the source-rows
   -> :class:`CaseBatch` binder (by the ON clause's equalities, or by
   column name for NATURAL PREDICTION JOIN) and, through
   :func:`compile_cases`, WHERE and the select list — model-qualified
   column references read predicted values ("look up predicted values ...
   using the attribute values of a case as a key for the join"),
   prediction UDFs read the case's :class:`CasePrediction`,
   source-qualified references read the source row;
3. per batch: filter, encode and score the surviving cases together, apply
   the bound closures;
4. end in the relational engine's result tail: DISTINCT, ORDER BY and
   TOP mean what they mean in a plain SELECT, and the output columns are
   typed by its one rule (:func:`~repro.sqlstore.engine.typed_stream`) —
   FLATTENED, if requested, is applied above.
"""

from __future__ import annotations

import weakref
from itertools import repeat
from operator import itemgetter
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import BindError, PredictionError
from repro.lang import ast_nodes as ast
from repro.obs import workload as obs_workload
from repro.shaping.shape import ShapedBatch, plan_shape
from repro.sqlstore.engine import (
    Bound,
    blocked_result,
    bound_to,
    item_name,
    limited,
    order_keys,
    pushable_qualifier,
    typed_stream,
)
from repro.sqlstore.expressions import (
    EvalContext,
    compile_expression,
    compile_selection,
)
from repro.sqlstore.indexes import LITERAL_VALUE
from repro.sqlstore.rowset import Rowset, RowsetColumn, RowStream
from repro.core.bindings import CaseBatch, case_binder as _case_binder, \
    pair_binder
from repro.core.casecache import prediction_key
from repro.core.functions import (
    PREDICTION_FUNCTIONS,
    PredictionScope,
    bind_predict_association,
)


class PredictionEvalContext(EvalContext):
    """The binder of a prediction query's expressions.

    :func:`~repro.sqlstore.expressions.compile_expression` over this
    context yields closures over an *entry* — ``(source_row,
    CasePrediction, the case's predicted values)`` — rather than over a
    bare row.  Resolution order for column references:

    1. ``<model>.<column>`` — predicted value of a model column;
    2. ``<alias>.<column>`` / bare names — the source row;
    3. bare names matching a model PREDICT column — predicted value.

    Function calls resolve to prediction UDFs first, SQL scalar functions
    second.  Once an expression is bound, ``scope.values`` and
    ``scope.reads`` say how much of the case's prediction it reads,
    ``source_width`` how many leading source columns.
    """

    def __init__(self, model, source_context: EvalContext):
        super().__init__(source_context.columns)
        self.subquery_executor = source_context.subquery_executor
        self._subquery_cache = source_context._subquery_cache
        self.model = model
        self.source_width = 0
        # The scope binds plain arguments back through this context; held
        # strongly the pair would be a cycle pinning the database (through
        # ``subquery_executor``) until a gen-2 collection.  Binders compile
        # while the context binds them, never later.
        binder = weakref.ref(self)
        self.scope = PredictionScope(
            model, lambda expr: compile_expression(expr, binder()))

    def bind_column(self, ref: ast.ColumnRef) -> Callable[[tuple], Any]:
        parts = ref.parts
        model = self.model
        if parts[0].upper() == model.name.upper():
            if len(parts) == 1:
                outputs = model.definition.output_columns()
                raise BindError(
                    f"select a column of model {model.name!r}, e.g. "
                    f"[{model.name}]."
                    f"[{outputs[0].name if outputs else '<column>'}]")
            return self._predicted_value(tuple(parts[1:]))
        index = self.resolve_index(parts)
        if index is not None:
            self.source_width = max(self.source_width, index + 1)

            def read(entry):
                return entry[0][index]
            self.scope.columns[read] = ("source", index)
            return read
        if len(parts) == 1:
            column = model.definition.find(parts[0])
            if column is not None and not column.is_table:
                return self._predicted_value((parts[0],))
        raise BindError(
            f"cannot resolve column {'.'.join(parts)!r} in prediction query")

    def _predicted_value(self, parts: Tuple[str, ...]) \
            -> Callable[[tuple], Any]:
        model = self.model
        if len(parts) != 1:
            raise BindError(
                f"unsupported model column path "
                f"{'.'.join((model.name,) + parts)!r} in a select list; "
                f"use prediction functions for nested results")
        column = model.definition.find(parts[0])
        if column is None:
            raise BindError(
                f"model {model.name!r} has no column {parts[0]!r}")
        if column.is_table:
            return bind_predict_association(
                self.scope, [ast.ColumnRef(parts=(column.name,))])
        attribute = model.space.for_column(column.name)
        if attribute is None:
            raise BindError(
                f"column {parts[0]!r} is not part of the trained "
                f"attribute space")
        return self.scope.value_reader(attribute)

    def bind_function(self, call: ast.FuncCall) -> Callable[[tuple], Any]:
        binder = PREDICTION_FUNCTIONS.get(call.name.upper())
        if binder is not None:
            return binder(self.scope, call.args)
        return super().bind_function(call)


def _source_alias(source: ast.TableRef) -> Optional[str]:
    if isinstance(source, ast.ShapeSource):
        return source.alias
    if isinstance(source, ast.SubquerySource):
        return source.alias
    if isinstance(source, ast.NamedTable):
        return source.alias or source.name
    raise PredictionError(
        f"unsupported PREDICTION JOIN source {type(source).__name__}")


def plan_prediction_source(provider, source: ast.TableRef):
    """Plan the right-hand side of PREDICTION JOIN — the node EXPLAIN shows
    under the join, whose ``run(batch_size)`` opens it as a row stream."""
    database = provider.database
    if isinstance(source, ast.ShapeSource):
        return plan_shape(source.shape, database)
    if isinstance(source, ast.SubquerySource):
        return database.plan_select(source.select)
    node = database.plan_table_ref(source)
    open_relation = node.open

    def open_stream(node, batch_size):
        relation = open_relation(node, batch_size)
        columns = [column for _, column in relation.columns]
        return RowStream(columns, relation.batches(batch_size))
    node.open = open_stream
    return node


def split_on_condition(model_name: str, alias: Optional[str],
                       condition: ast.Expr) \
        -> List[Tuple[Tuple[str, ...], Tuple[str, ...]]]:
    """Decompose the ON clause into (model_path, source_path) pairs."""
    pairs = []

    def strip(parts: Tuple[str, ...], head: Optional[str]) -> Tuple[str, ...]:
        if head and parts and parts[0].upper() == head.upper():
            return tuple(parts[1:])
        return tuple(parts)

    for expr in ast.conjuncts(condition):
        if not (isinstance(expr, ast.BinaryOp) and expr.op == "=" and
                isinstance(expr.left, ast.ColumnRef) and
                isinstance(expr.right, ast.ColumnRef)):
            raise PredictionError(
                "the ON clause of PREDICTION JOIN must be a conjunction of "
                "column equalities")
        left, right = expr.left.parts, expr.right.parts
        left_is_model = left[0].upper() == model_name.upper()
        right_is_model = right[0].upper() == model_name.upper()
        if left_is_model == right_is_model:
            raise PredictionError(
                f"each ON equality must relate a model column to a "
                f"source column; got "
                f"{'.'.join(left)} = {'.'.join(right)}")
        model_parts = left if left_is_model else right
        source_parts = right if left_is_model else left
        pairs.append((strip(model_parts, model_name),
                      strip(source_parts, alias)))
    return pairs


def _surviving_batches(stream: RowStream, pushed: List[ast.Expr],
                       alias: Optional[str]):
    """The opened source's row batches, minus the rows a pushed-down
    conjunct rejects.  Both the serial binder and the pool dispatcher read
    the source through here, so ``pushed N source predicate(s)`` holds on
    either path: the full WHERE still runs per case downstream, only the
    binding work for doomed rows is saved."""
    if not pushed:
        return stream.batches()
    return filter(None, map(compile_selection(
        pushed, _source_context(stream.columns, alias)), stream.batches()))


def case_binder(model, columns: List[RowsetColumn], alias: Optional[str],
                on_pairs):
    """Compile ``source rows -> CaseBatch`` from column metadata alone
    (binders never consult rows), so a pool worker rebuilds the binder
    from its payload.  ``on_pairs`` is the decomposed ON clause; None binds
    by column name (NATURAL and positional joins)."""
    shape = Rowset(columns)
    if on_pairs is None:
        return _case_binder(model.definition, shape)
    return pair_binder(model.definition, shape, on_pairs, alias)


def compile_cases(model, source_context: EvalContext,
                  where: Optional[ast.Expr], exprs: List[ast.Expr],
                  keys: List[ast.Expr] = ()) \
        -> Callable[[CaseBatch], List[tuple]]:
    """Bind WHERE, ``exprs`` and the hidden ORDER BY ``keys`` against
    ``model`` and the source's columns, once, and return the per-batch
    kernel: a :class:`CaseBatch` (with its source rows) in, one value tuple
    per surviving case out — with ``keys``, a ``(values, entry)`` pair
    instead, so the result tail evaluates ``kernel.keys`` over the entries
    of the rows DISTINCT keeps (:func:`blocked_result`).

    Binding needs column metadata only, so an unknown model column or
    function is a :class:`BindError` here — before a row is read, whatever
    the source holds.  The kernel filters — before scoring unless WHERE
    reads a prediction — and scores the surviving batch once, and only if
    some bound expression reads a prediction: the predicted values the
    closures read (``scope.values``) as one value column per attribute
    (``predict_values``), the predictions read whole (``scope.reads``) as
    a lazy prediction per case (``predict_cases``; its values are then
    read off those).  When every output is a plain column — a source
    column, a model column or ``Predict(col)`` — and WHERE reads no
    prediction, the batch's rows are the output columns zipped; otherwise
    each case's entry goes through the closures.  A shaped source hands
    the closures its master rows unless they read a nested column.

    ``kernel.plain`` holds, per expression, where the batch holds it as a
    column (``scope.columns``), or None.
    """
    context = PredictionEvalContext(model, source_context)
    scope = context.scope
    passes = None if where is None else compile_expression(where, context)
    filter_predicts = scope.reads is None or bool(scope.reads or scope.values)
    values = [compile_expression(expr, context) for expr in exprs]
    keys = [compile_expression(expr, context) for expr in keys]
    width, attributes, reads = context.source_width, scope.values, scope.reads
    whole = reads is None or bool(reads)
    if whole and reads is not None:   # the values are read off them too
        reads = reads | {attribute.index for attribute in attributes}
    plain = list(map(scope.columns.get, values))
    columnar = None not in plain and not filter_predicts and not keys

    def kernel(cases: CaseBatch) -> List[tuple]:
        rows = cases.source
        if isinstance(rows, ShapedBatch):
            rows = rows.master if width <= rows.width else rows.rows()
        if passes is not None and not filter_predicts:
            kept = [position for position, row in enumerate(rows)
                    if passes((row, None, None)) is True]
            if len(kept) < len(rows):
                rows = list(map(rows.__getitem__, kept))
                cases = list(map(cases.__getitem__, kept))
        predictions, columns = repeat(None), []
        if whole:
            predictions = model.predict_cases(cases, reads)
            if attributes:
                predictions = list(predictions)
                columns = model.algorithm.value_columns(predictions,
                                                        attributes)
        elif attributes:
            columns = model.predict_values(cases, attributes)
        if columnar:
            return list(zip(*[map(itemgetter(at), rows) if kind == "source"
                              else columns[at] for kind, at in plain]))
        entries = zip(rows, predictions,
                      zip(*columns) if columns else repeat(None))
        if filter_predicts:
            entries = (entry for entry in entries if passes(entry) is True)
        if keys:
            return [(tuple([value(entry) for value in values]), entry)
                    for entry in entries]
        return [tuple([value(entry) for value in values])
                for entry in entries]
    kernel.plain, kernel.keys = plain, keys
    return kernel


class _ReadLease:
    """A one-shot, idempotent hold on a model's read lock.

    Streaming predictions outlive the statement call, so the read side of
    the model lock must be released wherever consumption actually ends —
    normal exhaustion, an error mid-stream, or the consumer abandoning the
    generator.  Idempotence makes every such path safe to run.  A stream
    of declared columns is handed out before anything pulls it, and a
    generator that never started runs no ``finally``: a lease no one holds
    any longer is released as it is collected.
    """

    __slots__ = ("_lock", "_held")

    def __init__(self, lock):
        self._lock = lock
        lock.acquire_read()
        self._held = True

    def release(self) -> None:
        if self._held:
            self._held = False
            self._lock.release_read()

    __del__ = release


class PreparedPrediction:
    """A PREDICTION JOIN shape planned against one catalog state and one
    model object (:func:`prepare_prediction`): ``plan``, its tree, whose
    nodes are opened with ``(bound, batch size)`` — the
    :class:`~repro.sqlstore.engine.Bound` of the statement they run — and
    ``identity``, what the workload repository renders of the tree once.
    A templated shape keeps it when :func:`keeps_plan` says so, while the
    catalog version it was prepared at and :meth:`current` hold."""

    __slots__ = ("model", "key", "ceiling", "plan", "identity")

    def __init__(self, provider, join: ast.PredictionJoin, maxdop):
        self.model, self.key = provider.model(join.model), join.model.upper()
        self.ceiling = provider.pool.effective_dop(maxdop)
        self.plan = self.identity = None

    def current(self, provider) -> bool:
        """Whether a templated statement (one with no MAXDOP) of the shape
        is planned so: its model is this object, its session's dop ceiling
        this one."""
        return provider.models.get(self.key) is self.model and \
            provider.pool.effective_dop() == self.ceiling


def keeps_plan(statement: ast.SelectStatement, slots) -> bool:
    """Whether a templated PREDICTION JOIN keeps its prepared plan: every
    literal its template substitutes (``slots``, keyed by the literal
    nodes' ids) is an item of its FROM-less SELECT source — the one row a
    statement's values make — and it reads no subquery (kept, a subquery's
    rows would be read once) and is not FLATTENED."""
    from repro.exec.partition import _contains_subquery
    source = statement.from_clause.source
    return isinstance(source, ast.SubquerySource) and \
        source.select.from_clause is None and not statement.flattened and \
        slots.keys() <= {id(item.expr) for item in source.select.select_list} \
        and not _contains_subquery([statement.where] + [
            item.expr for item in statement.select_list + statement.order_by])


def bind_prediction(value_of=LITERAL_VALUE,
                    kept: Optional[PreparedPrediction] = None) -> Bound:
    """A statement of a prepared shape, whose literals are, at the
    prepared statement's literal nodes, ``value_of(node)`` — what the
    tree's openers read.  Of a ``kept`` shape, its ``run`` opens that
    shape's tree with it."""
    bound = Bound()
    bound.value_of, bound.variant = value_of, kept
    return bound


def plan_prediction(provider, statement: ast.SelectStatement):
    """Plan a PREDICTION JOIN: the tree EXPLAIN prints, the workload
    repository hashes and ``run(batch_size)`` executes — the statement's
    prepared tree, bound to it."""
    return bound_to(prepare_prediction(provider, statement).plan,
                    bind_prediction())


def prepare_prediction(provider, statement: ast.SelectStatement) \
        -> PreparedPrediction:
    """Prepare a PREDICTION JOIN shape: its plan tree.

    Decided here, once, from the catalog, the pool configuration and the
    statement alone: the planned source, serial vs parallel (and the
    ``pool.serial_fallbacks.<reason>`` a serial verdict owes), the
    source-only conjuncts pushed below binding, the join mode, the
    caseset-cache key — none for a constant (FROM-less) source, which is
    bound afresh and neither probes nor fills the cache — and blocking vs
    streamed.  A FROM-less SELECT source is the row its items make in the
    statement the tree is opened with; any other source is planned with
    the statement, which only it runs.  Nothing is scanned, locked
    or counted until ``run``: the model's read lease, the cache lookup,
    the fallback metric and ``NotTrainedError`` all belong to the run.
    ``run`` takes the bound caseset from the cache or runs its stage —
    ``bind cases`` (serial) or ``parallel predict`` — over the source, and
    returns a :class:`RowStream` whose lease is released on exhaustion,
    error or abandonment; ORDER BY / DISTINCT drain that same stream
    before sorting (blocking is draining, not a second evaluator).  The
    source's binder and the select list's kernel are bound in ``run`` too,
    once the source's columns are known and before a row is read, and
    kept while the model's trained state lasts.  FLATTENED is the
    ``flatten`` node :func:`repro.obs.explain.build_plan` puts above this
    tree.
    """
    from repro.exec.partition import (
        parallel_value_batches,
        prediction_parallelism,
        prediction_replica,
    )
    from repro.obs.explain import PlanNode

    join: ast.PredictionJoin = statement.from_clause
    prepared = PreparedPrediction(provider, join, statement.maxdop)
    model = prepared.model
    database, pool = provider.database, provider.pool
    cache, metrics = provider.caseset_cache, provider.metrics
    alias = _source_alias(join.source)
    # A FROM-less SELECT is one row no later statement replays: binding it
    # costs less than keying it, so it never meets the cache.  Its items
    # are the bound statement's.
    constant = isinstance(join.source, ast.SubquerySource) and \
        join.source.select.from_clause is None
    source = plan_prediction_source(provider, join.source)
    opener = source.open
    source.open = (lambda _, arg: database._select_without_from(
        join.source.select, arg[0].value_of)) if constant else (
        lambda node, arg: opener(node, arg[1]))
    dop, reason, fallback = prediction_parallelism(provider, statement,
                                                   source)
    # The WHERE conjuncts the source alone decides run below binding, by
    # the relational join's rule.  Cost-based planning only — without
    # statistics the original bind-all path is kept (the differential
    # suite's baseline).
    pushed = [conjunct for conjunct in ast.conjuncts(statement.where)
              if database.stats_enabled and alias and
              pushable_qualifier(conjunct) == alias.upper()]
    on_pairs = (None if join.natural or join.condition is None
                else split_on_condition(model.name, alias, join.condition))
    key = (prediction_key(model, join, pushed, database.data_version)
           if dop == 1 and cache.enabled and not constant else None)

    blockers = [name for name, present in (("order by", statement.order_by),
                                           ("distinct", statement.distinct))
                if present]
    flow = (f"materialized ({', '.join(blockers)})" if blockers
            else f"streamed (batch {database.batch_size})")
    details = ["natural join" if join.natural
               else ("ON join" if on_pairs is not None
                     else "positional join")]
    if not model.is_trained:
        details.append("model not trained")
    if pushed:
        details.append(
            f"pushed {len(pushed)} source predicate(s) below binding")
    node = prepared.plan = PlanNode(
        "prediction join", target=model.name,
        strategy=f"{flow}; {'parallel' if dop > 1 else 'serial'} ({reason})",
        detail=", ".join(details))
    if dop > 1:
        node.cache = "bypassed (parallel path)"
        stage = node.add(PlanNode("parallel predict", target=model.name,
                                  strategy=f"dop={dop}"))
    else:
        if constant:
            node.cache = "bypassed (constant source)"
        elif key is None:
            node.cache = "disabled"
        stage = node.add(PlanNode("bind cases", target=model.name,
                                  strategy="serial"))
    stage.add(source)

    def estimate(node) -> None:
        stage.est_rows = est = source.est_rows
        node.cost = stage.cost = float(est or 0) + (source.cost or 0.0)
        if est is not None and statement.where is not None:
            # Estimate WHERE selectivity from the source table's statistics;
            # conjuncts over predicted values fall back to the default
            # constant inside estimate_selectivity.
            from repro.sqlstore import stats as stats_mod
            est = max(0, int(round(est * stats_mod.estimate_selectivity(
                statement.where, database._stats_resolver(join.source)))))
        if statement.top is not None:
            est = statement.top if est is None and statement.where is None \
                else est
            if est is not None:
                est = min(est, statement.top)
        node.est_rows = est
        if key is not None:
            # Display-only, like the estimates: a non-mutating probe.
            node.cache = ("hit expected" if cache.contains(key)
                          else "miss expected")
    node.estimator = estimate

    binders, kernels = [], [None]

    def bound(columns):
        """Under the read lease, over the source's ``columns`` (whose names
        are the prepared source's): ``(trained state, output names, the
        select list's expressions, the hidden ORDER BY keys, each key's
        value position (:func:`order_keys`), kernel)`` — bound once per
        trained state (``MiningModel.derived``)."""
        state, entry = model.derived("trained state", object), kernels[0]
        if entry is None or entry[0] is not state:
            expanded = _expand_select_list(statement, model, columns, alias)
            order, hidden = order_keys(statement, expanded)
            exprs = [expr for expr, _, _ in expanded]
            context = _source_context(columns, alias)
            context.subquery_executor = database.execute_select
            entry = kernels[0] = (
                state, [name for _, name, _ in expanded], exprs, hidden,
                order, compile_cases(model, context, statement.where, exprs,
                                     hidden))
        return entry

    def bind_cases(_, arg) -> RowStream:
        """The serial stage: a :class:`CaseBatch` per source batch, its
        source rows attached.  Keyed, it keeps the batches (the one cached
        form) up to ``max_rows`` cases and caches them on completion, so
        huge sources keep the O(batch) footprint and are simply never
        cached."""
        stream = source.run(arg)
        columns = list(stream.columns)
        if not binders:  # the source's names decide it: bound once
            binders.append(case_binder(model, columns, alias, on_pairs))
        bind = binders[0]

        def produce():
            collected = [] if key is not None else None
            total = 0
            for batch in map(bind, _surviving_batches(stream, pushed, alias)):
                total += len(batch)
                if collected is not None:
                    if total <= cache.max_rows:
                        collected.append(batch)
                    else:
                        collected = None  # too large: stop accumulating a copy
                yield batch
            metrics.fold({}, {"prediction.join_fanout": total})
            if collected is not None:
                cache.put(key, (columns, collected, total), total)
            elif key is not None:
                cache.put(key, None, cache.max_rows + 1)  # count the skip
        return RowStream(columns, produce())

    def parallel_predict(_, arg) -> RowStream:
        """The parallel stage: a list per source batch, which a pool worker
        bound, scored and evaluated, with an entry per case — its output
        values, or None where WHERE rejected it."""
        stream = source.run(arg)
        columns = list(stream.columns)
        return RowStream(columns, parallel_value_batches(
            pool, metrics, dop,
            (prediction_replica(model), columns, alias, on_pairs,
             bound(columns)[2], statement.where),  # no hidden keys: serial
            _surviving_batches(stream, pushed, alias)))

    stage.open = parallel_predict if dop > 1 else bind_cases

    def run(_, arg) -> RowStream:
        batch_size = arg[1]
        obs_workload.set_phase("predict")
        lease = _ReadLease(model.lock)
        try:
            if fallback is not None:
                pool.note_serial_fallback(fallback)
            model.require_trained()
            hit = None
            if key is not None:
                hit = cache.get(key)
                obs_workload.note_cache(hit=hit is not None)
            if hit is None:
                stream = stage.run(arg)
                columns, batches = stream.columns, stream.batches()
            else:
                # A hit replays the bound batches; the stage never runs.
                columns, cached, total = hit
                metrics.fold({}, {"prediction.join_fanout": total})
                batches = iter(cached)
            # Bound on either path, before a row is read or a pool task
            # runs (pool workers bind their chunks again).
            _, names, _, hidden, order, kernel = bound(columns)
            if dop > 1:
                values = ([entry for entry in batch if entry is not None]
                          for batch in batches)
            else:
                values = map(kernel, batches)
            # A batch whose every case WHERE rejected is not passed on, and
            # a replayed one is cut to this statement's batch size.
            values = filter(None, values) if hit is None else (
                batch[start:start + batch_size] for batch in values
                for start in range(0, len(batch), batch_size))
            declared = [RowsetColumn(name, columns[spec[1]].type,
                                     columns[spec[1]].nested_columns)
                        if spec and spec[0] == "source" else None
                        for name, spec in zip(names, kernel.plain)]
            if not blockers:
                return typed_stream(names, declared, _held(
                    lease, limited(values, statement.top)))
            rows = [row for batch in _held(lease, values) for row in batch]
            sources = [entry for _, entry in rows] if hidden else None
            return blocked_result(
                statement, names, declared,
                [row for row, _ in rows] if hidden else rows, order,
                batch_size, sources, kernel.keys)
        except BaseException:
            lease.release()
            raise
    node.open = run
    return prepared


def _held(lease: _ReadLease, batches):
    """``batches`` under the model's read lease, released wherever
    consumption ends (exhaustion, error, abandonment)."""
    try:
        yield from batches
    finally:
        lease.release()


def execute_prediction_select(provider,
                              statement: ast.SelectStatement) -> Rowset:
    """Blocking PREDICTION JOIN: run the planned tree and drain it."""
    from repro.obs.explain import build_plan
    return build_plan(provider, statement).run(
        provider.database.batch_size).materialize()


def _source_context(source_columns: List[RowsetColumn],
                    alias: Optional[str]) -> EvalContext:
    return EvalContext.from_names([c.name for c in source_columns], alias)


def _expand_select_list(statement, model, source_columns, alias) \
        -> List[Tuple[ast.Expr, str, None]]:
    """The select list as the engine's ``(expr, name, position)`` items:
    ``*`` is the source's flat columns and the model's output columns."""
    expanded: List[Tuple[ast.Expr, str, None]] = []
    for position, item in enumerate(statement.select_list):
        if isinstance(item.expr, ast.Star):
            qualifier = item.expr.qualifier
            if qualifier is None or (
                    alias and qualifier.upper() == alias.upper()):
                for column in source_columns:
                    if column.nested_columns is None:
                        expanded.append(
                            (ast.ColumnRef(parts=(column.name,)),
                             column.name, None))
            if qualifier is None or \
                    qualifier.upper() == model.name.upper():
                for column in model.definition.output_columns():
                    if not column.is_table:
                        expanded.append(
                            (ast.ColumnRef(parts=(model.name, column.name)),
                             column.name, None))
            continue
        expanded.append((item.expr, item_name(item, position), None))
    return expanded

