"""Partitioned training and parallel PREDICTION JOIN drivers.

Both hot paths follow the same contract: **parallel execution must be
observationally identical to serial execution** — same model content, same
prediction rows in the same order — or the statement silently runs serially
and says so through ``pool.serial_fallbacks.*`` metrics.  The eligibility
gates here are therefore conservative:

* Partitioned training requires the algorithm to declare
  ``PARALLELIZABLE = True`` *and* accept the fitted space via
  ``can_parallelize`` (naive Bayes, for instance, demands an all-categorical
  space so every merged statistic is an exact integer sum — see
  ``docs/internals.md`` for the soundness argument).
* Parallel prediction requires no blocking clause (ORDER BY / DISTINCT run
  serially) and no subquery in the projection or WHERE (subqueries bind to
  the parent's database and cannot ship to a worker).
* In process mode both paths additionally pre-flight ``pickle`` on the task
  constants, so a custom unpicklable algorithm degrades to serial instead
  of crashing mid-statement.

Worker functions are module-level and pure: they receive everything through
their payload, return plain data, and never touch the parent's metrics or
tracer (worker-side spans cannot cross a process boundary; the parent pins
per-task counters onto its own captured span instead).
"""

from __future__ import annotations

import dataclasses
import functools
import pickle
from typing import Any, List, Optional, Sequence

from repro.lang import ast_nodes as ast
from repro.obs import trace as obs_trace
from repro.obs import workload as obs_workload
from repro.sqlstore.expressions import evaluate
from repro.core.bindings import case_mapper, pair_mapper
from repro.core.prediction import (
    PredictionEvalContext,
    _expand_select_list,
    _source_context,
    resolve_prediction_source_stream,
    split_on_condition,
)

# -- shared helpers ------------------------------------------------------------


def contiguous_chunks(items: Sequence[Any], parts: int) -> List[Sequence[Any]]:
    """Split into at most ``parts`` contiguous runs of near-equal size.

    Contiguity matters: concatenating the chunks reproduces the original
    order, which is what makes partition merges order-exact.
    """
    count = max(1, min(parts, len(items)))
    size = -(-len(items) // count)  # ceil division
    return [items[start:start + size]
            for start in range(0, len(items), size)]


def _picklable(*objects) -> bool:
    try:
        for obj in objects:
            pickle.dumps(obj)
        return True
    except Exception:
        return False


def _walk_expr_nodes(node):
    """Yield every AST dataclass reachable from ``node`` (depth-first)."""
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, (list, tuple)):
            stack.extend(current)
            continue
        if not dataclasses.is_dataclass(current):
            continue
        yield current
        for field in dataclasses.fields(current):
            stack.append(getattr(current, field.name))


def _contains_subquery(nodes) -> bool:
    for root in nodes:
        for node in _walk_expr_nodes(root):
            if isinstance(node, (ast.SubSelect, ast.InSelect)):
                return True
    return False


# -- EXPLAIN previews ----------------------------------------------------------
#
# Read-only mirrors of the eligibility gates below, for the EXPLAIN planner.
# They must never touch pool metrics (no note_serial_fallback) and never
# require run-time state (a fitted space, the post-INSERT caseset size), so
# a gate that can only be decided mid-statement reports "candidate".


def training_parallelism_preview(model, pool, dop: int):
    """``(strategy, reason)`` for a training statement, without side effects."""
    algorithm = model.algorithm
    if pool is None or pool.mode == "serial":
        return "serial", "pool mode is serial"
    if dop < 2:
        return "serial", "effective dop is 1"
    if not algorithm.PARALLELIZABLE:
        return "serial", f"{algorithm.SERVICE_NAME} is not parallelizable"
    return ("parallel candidate",
            f"dop={dop}; space and caseset-size checks at run time")


def source_rows_estimate(provider, statement) -> Optional[int]:
    """Estimated PREDICTION JOIN source cardinality for the parallel gate.

    Only statistics-backed estimates count (``stats_enabled``) — without
    them the original always-parallel behaviour is kept, which is the
    differential suite's baseline.  Read-only, so the EXPLAIN preview may
    call it too.
    """
    database = provider.database
    if not getattr(database, "stats_enabled", False):
        return None
    try:
        return database.plan_table_ref(
            statement.from_clause.source).estimate()
    except Exception:
        return None


def prediction_parallelism_preview(provider, statement, dop: int):
    """``(strategy, reason)`` for a PREDICTION JOIN, without side effects."""
    pool = provider.pool
    if pool is None or pool.mode == "serial":
        return "serial", "pool mode is serial"
    if dop < 2:
        return "serial", "effective dop is 1"
    if statement.order_by or statement.distinct:
        return "serial", "blocking clause (ORDER BY / DISTINCT)"
    roots = [item.expr for item in statement.select_list]
    if statement.where is not None:
        roots.append(statement.where)
    if _contains_subquery(roots):
        return "serial", "subquery in projection or WHERE"
    est = source_rows_estimate(provider, statement)
    if est is not None and est < 2 * dop:
        return "serial", f"small input (~{est} rows < 2*dop={2 * dop})"
    reason = f"dop={dop}"
    if pool.mode == "process":
        reason += "; pickle check at run time"
    return "parallel", reason


# -- partitioned training ------------------------------------------------------


def _train_partition(space, algorithm_class, parameters, cases):
    """Worker task: encode one contiguous partition and train a replica.

    Returns ``(replica, marginal_partials)``.  Runs without an active
    tracer (worker threads/processes), so the algorithm's own spans no-op
    and the result is independent of observability state.
    """
    observations = space.encode_many(cases)
    partials = space.partial_marginals(observations)
    replica = algorithm_class(dict(parameters))
    replica.train(space, observations)
    return replica, partials


def train_partitioned(model, space, pool, dop: int) -> bool:
    """Try to refit ``model`` over ``dop`` partitions; True if it ran.

    ``space`` arrives with the dictionary pass done (``fit_schema``) but
    marginals unfitted; on success the partitions' marginal partials are
    merged in partition order and the merged replica is installed.  On any
    ineligibility the caller's serial refit proceeds with the same fitted
    schema, so no work is wasted.
    """
    algorithm = model.algorithm
    if not algorithm.PARALLELIZABLE:
        pool.note_serial_fallback("algorithm")
        return False
    if not algorithm.can_parallelize(space):
        pool.note_serial_fallback("space")
        return False
    chunks = contiguous_chunks(model.training_cases, dop)
    if len(chunks) < 2:
        pool.note_serial_fallback("caseset_size")
        return False
    parameters = dict(algorithm.parameters)
    if pool.mode == "process" and not _picklable(
            space, type(algorithm), parameters, chunks[0][:1]):
        pool.note_serial_fallback("pickle")
        return False

    span = obs_trace.span("train.partitioned",
                          service=algorithm.SERVICE_NAME,
                          partitions=len(chunks), dop=dop)
    with span:
        task = functools.partial(_train_partition, space, type(algorithm),
                                 parameters)
        # Collect incrementally (not run_all) so DM_ACTIVE_STATEMENTS shows
        # partitions_done advancing and a CANCEL lands between partitions.
        obs_workload.set_partitions(len(chunks))
        results = []
        for result in pool.map_ordered(task, chunks, dop=dop, span=span):
            results.append(result)
            obs_workload.partition_done()
        space.merge_marginal_partials([partials for _, partials in results])
        merged = results[0][0]
        merged.merge([replica for replica, _ in results[1:]])
        merged.space = space
        obs_trace.add_to(span, "training_partitions", len(chunks))
        obs_trace.add_to(span, "observations", len(model.training_cases))
    model.algorithm = merged
    model.space = space
    model._content_root = None
    pool.note_parallel_statement("train")
    return True


# -- parallel PREDICTION JOIN --------------------------------------------------


class _ColumnSource:
    """Column-metadata shim standing in for a Rowset/RowStream in workers.

    The case/pair mappers only consult column metadata (names, positions,
    nested columns), never rows — so this is all a worker needs to rebuild
    a mapper without shipping the source rowset.
    """

    __slots__ = ("columns", "_by_name")

    def __init__(self, columns):
        self.columns = columns
        self._by_name = {column.name.upper(): index
                         for index, column in enumerate(columns)}

    def column_names(self):
        return [column.name for column in self.columns]

    def has_column(self, name: str) -> bool:
        return name.upper() in self._by_name

    def index_of(self, name: str) -> int:
        try:
            return self._by_name[name.upper()]
        except KeyError as exc:
            from repro.errors import BindError
            raise BindError(
                f"no column {name!r} in rowset "
                f"(columns: {', '.join(self.column_names())})") from exc


def prediction_replica(model):
    """A lightweight view of the model for shipping to workers.

    Shares the (read-only) algorithm and space but drops the training
    caseset and cached content, so a process-mode task does not pickle the
    entire caseset per chunk.
    """
    import copy
    clone = copy.copy(model)
    clone.training_cases = []
    clone._content_root = None
    return clone


def _predict_chunk(constant, rows):
    """Worker task: bind + filter + project one chunk of source rows.

    ``constant`` is the statement-wide plan; ``rows`` one contiguous chunk.
    Returns ``(rows_bound, value_tuples)`` so the parent can keep the
    serial path's case accounting.
    """
    model, columns, alias, pairs, expanded, where = constant
    shim = _ColumnSource(columns)
    if pairs is None:
        mapper = case_mapper(model.definition, shim)
    else:
        mapper = pair_mapper(model.definition, shim, pairs, alias)
    source_context = _source_context(columns, alias)
    out = []
    for row in rows:
        case = mapper(row)
        context = PredictionEvalContext(model, source_context, row, case)
        if where is not None and evaluate(where, context) is not True:
            continue
        out.append(tuple(evaluate(expr, context) for expr, _ in expanded))
    return len(rows), out


def parallel_prediction_plan(provider, statement, dop: int,
                             batch_size: Optional[int] = None):
    """Plan a parallel PREDICTION JOIN, or None (+ fallback metric).

    Returns ``(expanded, batches)`` where ``batches`` lazily yields
    TOP-limited lists of output value tuples in exact source order —
    drop-in for the serial paths' value batches (column inference,
    FLATTENED, and materialization stay with the caller).
    """
    pool = provider.pool
    join: ast.PredictionJoin = statement.from_clause
    if statement.order_by or statement.distinct:
        pool.note_serial_fallback("blocking_clause")
        return None
    roots = [item.expr for item in statement.select_list]
    if statement.where is not None:
        roots.append(statement.where)
    if _contains_subquery(roots):
        pool.note_serial_fallback("subquery")
        return None
    est = source_rows_estimate(provider, statement)
    if est is not None and est < 2 * dop:
        # Fan-out overhead dominates on tiny sources; run serially.
        pool.note_serial_fallback("small_input")
        return None

    model = provider.model(join.model)
    model.require_trained()
    batch_size = batch_size or getattr(provider.database, "batch_size", 1024)
    stream, alias = resolve_prediction_source_stream(
        provider, join.source, batch_size)
    columns = list(stream.columns)
    expanded = _expand_select_list(statement, model, columns, alias)
    if join.natural or join.condition is None:
        pairs = None
    else:
        pairs = split_on_condition(model.name, alias, join.condition)
    constant = (prediction_replica(model), columns, alias, pairs,
                expanded, statement.where)
    if pool.mode == "process" and not _picklable(constant):
        pool.note_serial_fallback("pickle")
        return None

    span = obs_trace.span("predict.parallel", model=model.name, dop=dop)
    with span:
        obs_trace.add_to(span, "prediction_workers", dop)
    task = functools.partial(_predict_chunk, constant)
    pool.note_parallel_statement("predict")

    def batches():
        remaining = statement.top
        total = 0
        for bound, values in pool.map_ordered(task, stream.batches(),
                                              dop=dop, span=span):
            total += bound
            obs_trace.add_to(span, "cases_bound", bound)
            if remaining is not None:
                if len(values) >= remaining:
                    values = values[:remaining]
                    remaining = 0
                else:
                    remaining -= len(values)
            if values:
                yield values
            if remaining == 0:
                break
        obs_trace.add_to(span, "prediction_cases", total)
        provider.metrics.histogram("prediction.join_fanout").observe(total)

    return expanded, batches()
