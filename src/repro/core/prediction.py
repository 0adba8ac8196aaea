"""PREDICTION JOIN execution (paper section 3.3).

"The basic operation of obtaining prediction on a dataset D using a DMM M is
modeled as a 'prediction join' between D and M."  Execution:

1. evaluate the source (a SHAPE block, sub-select, or table) into a rowset;
2. bind each source row to a :class:`MappedCase` — by the ON clause's
   equalities, or by column name for NATURAL PREDICTION JOIN;
3. evaluate the select list per case: model-qualified column references
   yield predicted values ("look up predicted values ... using the attribute
   values of a case as a key for the join"), prediction UDFs run against the
   case's :class:`CasePrediction`, and source-qualified references come from
   the source row;
4. apply WHERE / ORDER BY / TOP / DISTINCT, and FLATTENED if requested.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, List, Optional, Tuple

from repro.errors import BindError, PredictionError
from repro.lang import ast_nodes as ast
from repro.obs import trace as obs_trace
from repro.shaping.shape import flatten_rowset, flatten_stream, plan_shape
from repro.sqlstore.expressions import EvalContext, evaluate
from repro.sqlstore.rowset import Rowset, RowsetColumn, RowStream
from repro.sqlstore.types import TABLE, infer_type
from repro.sqlstore.values import group_key, sort_key
from repro.core.bindings import (
    MappedCase,
    case_mapper,
    pair_mapper,
)
from repro.core.casecache import prediction_key
from repro.core.functions import PREDICTION_FUNCTIONS, PredictionScope


class PredictionEvalContext(EvalContext):
    """Expression context inside a prediction query.

    Resolution order for column references:

    1. ``<model>.<column>`` (or ``<model>.<table>.<column>``) — predicted
       value of a model column;
    2. ``<alias>.<column>`` / bare names — the source row;
    3. bare names matching a model PREDICT column — predicted value.
    """

    def __init__(self, model, source_context: EvalContext,
                 source_row: tuple, case: MappedCase):
        super().__init__(source_context.columns, source_row)
        self.subquery_executor = source_context.subquery_executor
        self._subquery_cache = source_context._subquery_cache
        self.model = model
        self.scope = PredictionScope(
            model, case, evaluator=lambda e: evaluate(e, self))

    def resolve_column(self, ref: ast.ColumnRef) -> Any:
        parts = ref.parts
        if parts[0].upper() == self.model.name.upper():
            if len(parts) == 1:
                raise BindError(
                    f"select a column of model {self.model.name!r}, e.g. "
                    f"[{self.model.name}].[{self._first_output_name()}]")
            return self._predicted_value(tuple(parts[1:]))
        index = self.resolve_index(parts)
        if index is not None:
            return self.row[index]
        if len(parts) == 1:
            column = self.model.definition.find(parts[0])
            if column is not None and not column.is_table:
                return self._predicted_value((parts[0],))
        raise BindError(
            f"cannot resolve column {'.'.join(parts)!r} in prediction query")

    def _first_output_name(self) -> str:
        outputs = self.model.definition.output_columns()
        return outputs[0].name if outputs else "<column>"

    def _predicted_value(self, parts: Tuple[str, ...]) -> Any:
        if len(parts) == 1:
            column = self.model.definition.find(parts[0])
            if column is None:
                raise BindError(
                    f"model {self.model.name!r} has no column {parts[0]!r}")
            if column.is_table:
                from repro.core.functions import fn_predict_association
                return fn_predict_association(
                    self.scope, [ast.ColumnRef(parts=(column.name,))])
            attribute = self.model.space.for_column(column.name)
            if attribute is None:
                raise BindError(
                    f"column {parts[0]!r} is not part of the trained "
                    f"attribute space")
            prediction = self.scope.prediction.get(attribute)
            if prediction is None:
                prediction = self.model.algorithm.marginal_prediction(
                    attribute)
            return prediction.value
        raise BindError(
            f"unsupported model column path "
            f"{'.'.join((self.model.name,) + parts)!r} in a select list; "
            f"use prediction functions for nested results")

    def call_function(self, call: ast.FuncCall, evaluator) -> Any:
        handler = PREDICTION_FUNCTIONS.get(call.name.upper())
        if handler is not None:
            return handler(self.scope, call.args)
        return super().call_function(call, evaluator)


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
    open_relation = node.run

    def run(batch_size):
        relation = open_relation(batch_size)
        columns = [column for _, column in relation.columns]
        return RowStream(columns, relation.batches(batch_size))
    node.run = run
    return node


def resolve_prediction_source_stream(provider, source: ast.TableRef,
                                     batch_size: Optional[int] = None) \
        -> Tuple[RowStream, Optional[str]]:
    """Evaluate the right-hand side of PREDICTION JOIN as a row stream."""
    alias = _source_alias(source)
    stream = plan_prediction_source(provider, source).run(
        batch_size or provider.database.batch_size)
    return stream, alias


def split_on_condition(model_name: str, alias: Optional[str],
                       condition: ast.Expr) \
        -> List[Tuple[Tuple[str, ...], Tuple[str, ...]]]:
    """Decompose the ON clause into (model_path, source_path) pairs."""
    pairs = []

    def strip(parts: Tuple[str, ...], head: Optional[str]) -> Tuple[str, ...]:
        if head and parts and parts[0].upper() == head.upper():
            return tuple(parts[1:])
        return tuple(parts)

    def walk(expr: ast.Expr) -> None:
        if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
            walk(expr.left)
            walk(expr.right)
            return
        if isinstance(expr, ast.BinaryOp) and expr.op == "=" and \
                isinstance(expr.left, ast.ColumnRef) and \
                isinstance(expr.right, ast.ColumnRef):
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
            return
        raise PredictionError(
            "the ON clause of PREDICTION JOIN must be a conjunction of "
            "column equalities")

    walk(condition)
    return pairs


#: Expression nodes a pushed-down source predicate may contain.  Function
#: calls are excluded (prediction functions evaluate against the bound
#: case, not the source row) and so are subqueries of either kind.
_PUSHABLE_NODES = (ast.BinaryOp, ast.UnaryOp, ast.IsNull, ast.InList,
                   ast.Between, ast.Like, ast.Literal, ast.ColumnRef)


def _source_only_conjuncts(where: Optional[ast.Expr],
                           alias: Optional[str]) -> List[ast.Expr]:
    """Top-level WHERE conjuncts decidable from the join source row alone.

    A conjunct qualifies when every column reference is explicitly
    qualified by the source alias and the expression stays within a
    whitelist of row-local node types.  Decidability is judged from the
    AST alone, so the EXPLAIN mirror and the executor can never diverge.
    Dropping source rows where such a conjunct is not True is exact:
    the full WHERE is an AND over the conjuncts, and an AND with a
    False/NULL operand can never evaluate to True.
    """
    from repro.sqlstore.engine import _children

    if where is None or not alias:
        return []
    conjuncts: List[ast.Expr] = []

    def split(expr: ast.Expr) -> None:
        if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
            split(expr.left)
            split(expr.right)
        else:
            conjuncts.append(expr)
    split(where)

    def pushable(expr: ast.Expr) -> bool:
        if isinstance(expr, ast.ColumnRef):
            return len(expr.parts) > 1 and \
                expr.parts[0].upper() == alias.upper()
        if not isinstance(expr, _PUSHABLE_NODES):
            return False
        return all(pushable(child) for child in _children(expr))
    return [conjunct for conjunct in conjuncts if pushable(conjunct)]


def _pushdown_conjuncts(provider, statement: ast.SelectStatement,
                        alias: Optional[str]) -> List[ast.Expr]:
    """The source predicates this statement will push below case binding.
    Cost-based planning only — without statistics the original bind-all
    path is kept (the differential suite's baseline)."""
    if not getattr(provider.database, "stats_enabled", False):
        return []
    return _source_only_conjuncts(statement.where, alias)


def _prediction_case_batches(provider, statement: ast.SelectStatement,
                             batch_size: Optional[int] = None):
    """Resolve the join source and compile binding; stream (row, case) pairs.

    Returns ``(model, alias, source_columns, batches)`` where ``batches``
    yields lists of ``(source_row, MappedCase)``.  When the provider's
    caseset cache is enabled, a hit replays the bound caseset without
    re-executing the source; a miss accumulates up to ``max_rows`` pairs
    alongside the stream and caches them on completion, so huge sources
    keep the O(batch) footprint and are simply never cached.
    """
    join: ast.PredictionJoin = statement.from_clause
    model = provider.model(join.model)
    model.require_trained()
    database = provider.database
    batch_size = batch_size or getattr(database, "batch_size", 1024)
    alias = _source_alias(join.source)

    # Pin counters onto the enclosing span (the ``predict`` span) so they
    # stay attributed to it even when batches are consumed after it closes.
    pin = obs_trace.current_span()
    pushed = _pushdown_conjuncts(provider, statement, alias)
    cache = getattr(provider, "caseset_cache", None)
    key = None
    if cache is not None and cache.enabled:
        key = prediction_key(model, join, pushed, database.data_version)
        hit = cache.get(key)
        if hit is not None:
            columns, rows, cases = hit
            obs_trace.add_to(pin, "cache_hit", 1)
            obs_trace.add_to(pin, "prediction_cases", len(rows))
            provider.metrics.histogram("prediction.join_fanout").observe(
                len(rows))

            def replay():
                for start in range(0, len(rows), batch_size):
                    yield list(zip(rows[start:start + batch_size],
                                   cases[start:start + batch_size]))
            return model, alias, columns, replay()

    if key is not None:
        obs_trace.add_to(pin, "cache_miss", 1)
    stream, alias = resolve_prediction_source_stream(
        provider, join.source, batch_size)
    if join.natural or join.condition is None:
        mapper = case_mapper(model.definition, stream)
    else:
        pairs = split_on_condition(model.name, alias, join.condition)
        mapper = pair_mapper(model.definition, stream, pairs, alias)
    columns = list(stream.columns)
    push_context = _source_context(columns, alias) if pushed else None

    def survives_pushdown(row):
        return all(
            evaluate(conjunct, push_context.with_row(row)) is True
            for conjunct in pushed)

    def produce():
        collected = ([], []) if key is not None else None
        total = 0
        for batch in stream.batches():
            if pushed:
                # Filter before binding: the full WHERE is still applied
                # per case downstream, so output rows are unchanged — only
                # the binding work for doomed rows is saved.
                batch = [row for row in batch if survives_pushdown(row)]
            mapped = [(row, mapper(row)) for row in batch]
            total += len(mapped)
            obs_trace.add_to(pin, "cases_bound", len(mapped))
            if collected is not None:
                if total <= cache.max_rows:
                    collected[0].extend(batch)
                    collected[1].extend(case for _, case in mapped)
                else:
                    collected = None  # too large: stop accumulating a copy
            yield mapped
        obs_trace.add_to(pin, "prediction_cases", total)
        provider.metrics.histogram("prediction.join_fanout").observe(total)
        if collected is not None:
            cache.put(key, (columns, collected[0], collected[1]), total)
        elif key is not None:
            cache.put(key, None, cache.max_rows + 1)  # count the skip
    return model, alias, columns, produce()


def _parallel_plan(provider, statement: ast.SelectStatement,
                   batch_size: Optional[int] = None):
    """The parallel PREDICTION JOIN plan, or None to run serially.

    Cheap pre-gates live here (no pool, effective dop of 1); the soundness
    gates (blocking clauses, subqueries, pickling) live in
    :func:`repro.exec.partition.parallel_prediction_plan`, which records a
    ``pool.serial_fallbacks.*`` metric when it declines.
    """
    pool = getattr(provider, "pool", None)
    if pool is None:
        return None
    if pool.effective_dop(statement.maxdop) <= 1:
        return None
    from repro.exec.partition import parallel_prediction_plan
    return parallel_prediction_plan(provider, statement,
                                    pool.effective_dop(statement.maxdop),
                                    batch_size)


class _ReadLease:
    """A one-shot, idempotent hold on a model's read lock.

    Streaming predictions outlive the statement call, so the read side of
    the model lock must be released wherever consumption actually ends —
    normal exhaustion, an error mid-stream, or the consumer abandoning the
    generator.  Idempotence makes every such path safe to run.
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


def _released_when_done(batches, lease: _ReadLease):
    try:
        yield from batches
    finally:
        lease.release()


def plan_prediction(provider, statement: ast.SelectStatement):
    """Describe a PREDICTION JOIN's plan for EXPLAIN, without executing it.

    Mirrors the strategy gates of :func:`execute_prediction_stream`
    read-only: parallel eligibility via the side-effect-free preview,
    caseset-cache expectation via a non-mutating membership probe.
    """
    from repro.obs.explain import PlanNode
    from repro.exec.partition import prediction_parallelism_preview

    join: ast.PredictionJoin = statement.from_clause
    model = provider.model(join.model)
    database = provider.database
    pool = getattr(provider, "pool", None)
    dop = pool.effective_dop(statement.maxdop) if pool is not None else 1
    parallelism, reason = prediction_parallelism_preview(
        provider, statement, dop)
    blockers = []
    if statement.order_by:
        blockers.append("order by")
    if statement.distinct:
        blockers.append("distinct")
    flow = (f"materialized ({', '.join(blockers)})" if blockers
            else f"streamed (batch {getattr(database, 'batch_size', 1024)})")
    details = ["natural join" if join.natural
               else ("ON join" if join.condition is not None
                     else "positional join")]
    if not model.is_trained:
        details.append("model not trained")
    pushed = _pushdown_conjuncts(provider, statement,
                                 _source_alias(join.source))
    if pushed:
        details.append(
            f"pushed {len(pushed)} source predicate(s) below binding")
    node = PlanNode("prediction join", target=model.name,
                    strategy=f"{flow}; {parallelism} ({reason})",
                    span_name="predict", rows_counter="rows_out",
                    detail=", ".join(details))

    source = plan_prediction_source(provider, join.source)
    source.estimate()

    if parallelism == "parallel":
        node.cache = "bypassed (parallel path)"
        stage = node.add(PlanNode("parallel predict", target=model.name,
                                  strategy=f"dop={dop}",
                                  span_name="predict.parallel",
                                  rows_counter="prediction_cases"))
    else:
        cache = getattr(provider, "caseset_cache", None)
        if cache is None or not cache.enabled:
            node.cache = "disabled"
        else:
            key = prediction_key(model, join, pushed, database.data_version)
            node.cache = ("hit expected" if cache.contains(key)
                          else "miss expected")
        stage = node.add(PlanNode("bind cases", target=model.name,
                                  strategy="serial",
                                  match="parent",
                                  rows_counter="cases_bound"))
    stage.add(source)
    stage.est_rows = source.est_rows
    stage.cost = float(source.est_rows or 0) + (source.cost or 0.0)
    est = source.est_rows
    if est is not None and statement.where is not None:
        # Estimate WHERE selectivity from the source table's statistics;
        # conjuncts over predicted values fall back to the default
        # constant inside estimate_selectivity.
        from repro.sqlstore import stats as stats_mod
        resolver = database._stats_resolver(join.source) \
            if isinstance(join.source, ast.TableRef) else None
        est = max(0, int(round(est * stats_mod.estimate_selectivity(
            statement.where, resolver))))
    if statement.top is not None:
        est = statement.top if est is None and statement.where is None \
            else est
        if est is not None:
            est = min(est, statement.top)
    node.est_rows = est
    node.cost = stage.cost
    return node


def execute_prediction_select(provider,
                              statement: ast.SelectStatement) -> Rowset:
    join: ast.PredictionJoin = statement.from_clause
    model = provider.model(join.model)
    with model.lock.read():
        with obs_trace.span("predict", model=join.model):
            plan = _parallel_plan(provider, statement)
            if plan is not None:
                expanded, batches = plan
                rows = [values for batch in batches for values in batch]
                columns = _column_metadata(expanded, rows,
                                           lambda entry: entry)
                result = Rowset(columns, rows)
                if statement.flattened:
                    result = flatten_rowset(result)
            else:
                result = _execute_prediction_select(provider, statement)
            obs_trace.add("rows_out", len(result.rows))
            return result


def execute_prediction_stream(provider, statement: ast.SelectStatement,
                              batch_size: Optional[int] = None) -> RowStream:
    """Streaming PREDICTION JOIN: memory stays O(batch) for pipelined shapes.

    ORDER BY and DISTINCT are blocking and fall back to the materializing
    path; WHERE, the select list, TOP (early stop), and FLATTENED all
    pipeline.  Output column metadata is inferred from a buffered prefix
    that grows only until every column has produced a non-NULL sample (the
    same first-non-NULL rule the materializing path applies to the full
    result).
    """
    batch_size = batch_size or getattr(provider.database, "batch_size", 1024)
    if statement.order_by or statement.distinct:
        return RowStream.from_rowset(
            execute_prediction_select(provider, statement), batch_size)

    join: ast.PredictionJoin = statement.from_clause
    lease = _ReadLease(provider.model(join.model).lock)
    try:
        with obs_trace.span("predict", model=join.model,
                            streaming=True) as pspan:
            plan = _parallel_plan(provider, statement, batch_size)
            if plan is not None:
                expanded, raw_batches = plan

                def value_batches():
                    for values in raw_batches:
                        obs_trace.add_to(pspan, "rows_out", len(values))
                        yield values
            else:
                model, alias, source_columns, case_batches = \
                    _prediction_case_batches(provider, statement, batch_size)
                source_context = _source_context(source_columns, alias)
                source_context.subquery_executor = \
                    provider.database.execute_select
                expanded = _expand_select_list(statement, model,
                                               source_columns, alias)

                def value_batches():
                    remaining = statement.top
                    for batch in case_batches:
                        out = []
                        for row, case in batch:
                            context = PredictionEvalContext(
                                model, source_context, row, case)
                            if statement.where is not None and \
                                    evaluate(statement.where,
                                             context) is not True:
                                continue
                            out.append(tuple(evaluate(expr, context)
                                             for expr, _ in expanded))
                        if remaining is not None:
                            if len(out) >= remaining:
                                if out[:remaining]:
                                    obs_trace.add_to(pspan, "rows_out",
                                                     remaining)
                                    yield out[:remaining]
                                return
                            remaining -= len(out)
                        if out:
                            obs_trace.add_to(pspan, "rows_out", len(out))
                            yield out

            # Buffer a prefix until every output column has a sample value
            # (or the stream ends), then replay it ahead of the live tail.
            produced = _released_when_done(value_batches(), lease)
            head: List[List[tuple]] = []
            sample_rows: List[tuple] = []
            needed = len(expanded)
            while needed:
                batch = next(produced, None)
                if batch is None:
                    break
                head.append(batch)
                sample_rows.extend(batch)
                needed = sum(
                    1 for position in range(len(expanded))
                    if not any(row[position] is not None
                               for row in sample_rows))
            columns = _column_metadata(expanded, sample_rows,
                                       lambda entry: entry)
            result = RowStream(columns, chain(head, produced))
            if statement.flattened:
                result = flatten_stream(result)
            return result
    except BaseException:
        lease.release()
        raise


def _execute_prediction_select(provider,
                               statement: ast.SelectStatement) -> Rowset:
    model, alias, source_columns, case_batches = \
        _prediction_case_batches(provider, statement)
    source_context = _source_context(source_columns, alias)
    source_context.subquery_executor = provider.database.execute_select
    expanded = _expand_select_list(statement, model, source_columns, alias)

    # ORDER BY may sort on expressions over the source row/case, so only
    # then do we retain (values, row, case) triples; otherwise values-only
    # entries keep the materialized footprint to the output itself.
    keep_sources = bool(statement.order_by)
    values_of = (lambda entry: entry[0]) if keep_sources \
        else (lambda entry: entry)
    can_stop_early = statement.top is not None and \
        not statement.order_by and not statement.distinct

    output_rows: List[tuple] = []
    for batch in case_batches:
        for row, case in batch:
            context = PredictionEvalContext(model, source_context, row, case)
            if statement.where is not None and \
                    evaluate(statement.where, context) is not True:
                continue
            values = tuple(evaluate(expr, context) for expr, _ in expanded)
            output_rows.append((values, row, case) if keep_sources
                               else values)
        if can_stop_early and len(output_rows) >= statement.top:
            break

    columns = _column_metadata(expanded, output_rows, values_of)

    if statement.distinct:
        seen = set()
        unique = []
        for entry in output_rows:
            key = tuple(group_key(v) if not isinstance(v, Rowset) else id(v)
                        for v in values_of(entry))
            if key not in seen:
                seen.add(key)
                unique.append(entry)
        output_rows = unique

    if statement.order_by:
        names = [c.name.upper() for c in columns]

        def order_key(entry):
            values, row, case = entry
            context = PredictionEvalContext(model, source_context, row, case)
            key = []
            for item in statement.order_by:
                if isinstance(item.expr, ast.ColumnRef) and \
                        len(item.expr.parts) == 1 and \
                        item.expr.parts[0].upper() in names:
                    value = values[names.index(item.expr.parts[0].upper())]
                else:
                    value = evaluate(item.expr, context)
                key.append(sort_key(value))
            return tuple(key)

        keys = [order_key(entry) for entry in output_rows]
        indexed = sorted(range(len(output_rows)),
                         key=lambda i: _directional(keys[i],
                                                    statement.order_by))
        output_rows = [output_rows[i] for i in indexed]

    rows = [values_of(entry) for entry in output_rows]
    if statement.top is not None:
        rows = rows[:statement.top]
    result = Rowset(columns, rows)
    if statement.flattened:
        result = flatten_rowset(result)
    return result


def _directional(key: tuple, order_by) -> tuple:
    adjusted = []
    for part, item in zip(key, order_by):
        if item.ascending:
            adjusted.append(part)
        else:
            adjusted.append(_Reversed(part))
    return tuple(adjusted)


class _Reversed:
    """Inverts comparison for DESC sort keys."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other):
        return other.value < self.value

    def __eq__(self, other):
        return self.value == other.value


def _source_context(source_columns: List[RowsetColumn],
                    alias: Optional[str]) -> EvalContext:
    return EvalContext.from_names([c.name for c in source_columns], alias)


def _expand_select_list(statement, model, source_columns,
                        alias) -> List[Tuple[ast.Expr, str]]:
    expanded: List[Tuple[ast.Expr, str]] = []
    for position, item in enumerate(statement.select_list):
        if isinstance(item.expr, ast.Star):
            qualifier = item.expr.qualifier
            if qualifier is None or (
                    alias and qualifier.upper() == alias.upper()):
                for column in source_columns:
                    if column.nested_columns is None:
                        expanded.append(
                            (ast.ColumnRef(parts=(column.name,)),
                             column.name))
            if qualifier is None or \
                    qualifier.upper() == model.name.upper():
                for column in model.definition.output_columns():
                    if not column.is_table:
                        expanded.append(
                            (ast.ColumnRef(parts=(model.name, column.name)),
                             column.name))
            continue
        name = item.alias or _default_name(item.expr, position)
        expanded.append((item.expr, name))
    return expanded


def _default_name(expr: ast.Expr, position: int) -> str:
    if isinstance(expr, ast.ColumnRef):
        return expr.parts[-1]
    if isinstance(expr, ast.FuncCall):
        return expr.name
    return f"Expr{position + 1}"


def _column_metadata(expanded, output_rows,
                     values_of) -> List[RowsetColumn]:
    columns = []
    for position, (_, name) in enumerate(expanded):
        sample = None
        for entry in output_rows:
            value = values_of(entry)[position]
            if value is not None:
                sample = value
                break
        if isinstance(sample, Rowset):
            columns.append(RowsetColumn(name, TABLE,
                                        nested_columns=list(sample.columns)))
        else:
            columns.append(RowsetColumn(name, infer_type(sample)))
    return columns
