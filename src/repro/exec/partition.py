"""Training and parallel PREDICTION JOIN drivers: the model INSERT plan,
partitioned refits, and the pool fan-out of a planned prediction join.

Both hot paths follow the same contract: **parallel execution must be
observationally identical to serial execution** — same model content, same
prediction rows in the same order — or the statement runs serially and
says so through ``pool.serial_fallbacks.*`` metrics.  The eligibility
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

Each gate is spelled once.  What the catalog, the pool configuration and
the statement decide is decided when the statement is planned —
:func:`prediction_parallelism` for PREDICTION JOIN, :func:`plan_train` for
a model INSERT — and returned as ``(dop, reason, fallback)``: the strategy
text EXPLAIN prints and the ``pool.serial_fallbacks.<fallback>`` metric
the *run* of that plan notes are two readings of one verdict.  What only
the run can know (a fitted space, the chunk count, picklability) stays in
:func:`train_partitioned` / :func:`parallel_value_batches`; the plan
announces it as a candidate.

Worker functions are module-level and pure: they receive everything through
their payload, return plain data, and never touch the parent's metrics or
tracer (worker-side spans cannot cross a process boundary; the plan node
that fanned out counts what came back instead).
"""

from __future__ import annotations

import functools
import pickle
from typing import Any, List, Optional, Sequence, Tuple

from repro.errors import Error
from repro.lang import ast_nodes as ast
from repro.obs import workload as obs_workload
from repro.obs.explain import PlanNode
from repro.shaping.shape import plan_shape
from repro.sqlstore.rowset import RowStream
from repro.core import bindings
from repro.core.casecache import train_key
from repro.core.prediction import (
    _source_context,
    case_binder,
    compile_cases,
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


def _contains_subquery(nodes) -> bool:
    return any(isinstance(node, (ast.SubSelect, ast.InSelect)) or
               _contains_subquery(ast.children(node)) for node in nodes)


# -- training ------------------------------------------------------------------


def _training_parallelism(model, pool, maxdop: Optional[int]) \
        -> Tuple[int, str, Optional[str]]:
    """Plan-time half of the partitioned-training gates.

    ``(dop, reason, fallback)``: ``dop > 1`` makes the refit a candidate
    for :func:`train_partitioned` (whose own gates need the fitted space
    and the accumulated caseset); ``fallback`` names the
    ``pool.serial_fallbacks.*`` metric a refit that stays serial owes.
    """
    if pool.mode == "serial":
        return 1, "pool mode is serial", None
    dop = pool.effective_dop(maxdop)
    if dop < 2:
        return 1, "effective dop is 1", None
    algorithm = model.algorithm
    if not algorithm.PARALLELIZABLE:
        return (1, f"{algorithm.SERVICE_NAME} is not parallelizable",
                "algorithm")
    return dop, f"dop={dop}; space and caseset-size checks at run time", None


def _schema_node(model) -> PlanNode:
    """The dictionary pass ahead of a refit: ``run(None)`` returns a fresh
    space fitted to the whole caseset's columns, marginals unfitted."""
    return PlanNode("fit schema", target=model.name, strategy="columnar",
                    open=lambda _, __: model.fit_schema())


def _refit_node(model, pool, dop: int) -> PlanNode:
    """The refit step: ``run(space)`` trains over the whole caseset in the
    schema-fitted space and returns the cases trained on — 0 from a
    partitioned refit whose run-time gates declined."""
    if dop > 1:
        return PlanNode(
            "partitioned refit", target=model.name, strategy=f"dop={dop}",
            open=lambda _, space: train_partitioned(model, space, pool, dop))
    return PlanNode("fit", target=model.algorithm.SERVICE_NAME,
                    strategy="serial",
                    open=lambda _, space: model.refit(space))


def plan_train(provider, statement: ast.InsertModelStatement) -> PlanNode:
    """Plan ``INSERT INTO <model>``: the tree EXPLAIN prints, the workload
    repository hashes and ``run(batch_size)`` executes.

    Decided here, from the catalog and the pool configuration: the planned
    source, the effective dop and the plan-time half of the partitioning
    gates, the caseset-cache key, and whether the model is a candidate for
    absorbing the cases incrementally (whether every case fits the fitted
    space is a run-time fact, checked under the write lock).  ``run``
    takes the bound cases from the cache or runs ``bind cases``, then,
    under the model's write lock, runs the training steps — absorb, else
    ``fit schema`` and the refit, else (a partitioned refit declined) the
    serial fit — until one consumes the cases, and returns their number;
    the children ahead of ``bind cases`` become the steps that ran when
    those differ from the announced candidate.
    """
    model = provider.model(statement.model)
    pool = provider.pool
    cache = provider.caseset_cache
    maxdop = statement.maxdop
    if maxdop is None:
        # An unwrapped SELECT source consumed WITH MAXDOP itself.
        maxdop = getattr(statement.source, "maxdop", None)
    dop, reason, fallback = _training_parallelism(model, pool, maxdop)
    key = (train_key(model, statement, provider.database.data_version)
           if cache.enabled else None)
    if isinstance(statement.source, ast.ShapeExpr):
        source = plan_shape(statement.source, provider.database)
    elif isinstance(statement.source, ast.SelectStatement):
        source = provider.database.plan_select(statement.source)
    else:
        raise Error("INSERT INTO a model requires a SHAPE or SELECT source")

    strategy = (f"{'parallel candidate' if dop > 1 else 'serial'} "
                f"({reason})")
    node = PlanNode("train", target=model.name, strategy=strategy,
                    detail=f"service {model.algorithm.SERVICE_NAME}, "
                           f"{model.case_count} case(s) retained",
                    cache=None if cache.enabled else "disabled")
    absorb = None
    if model.can_absorb:
        node.strategy = f"incremental absorb candidate; else refit {strategy}"
        absorb = node.add(PlanNode(
            "incremental absorb", target=model.name,
            strategy="candidate (every case must fit the fitted space)",
            open=lambda _, cases: model.absorb(cases)))
    else:
        node.children += [_schema_node(model), _refit_node(model, pool, dop)]

    def bind_cases(_, batch_size: int) -> RowStream:
        """The source's rows bound to cases, a :class:`CaseBatch` per
        batch; the binder is compiled before the first batch is pulled."""
        stream = source.run(batch_size)
        return RowStream(stream.columns, map(
            bindings.case_binder(model.definition, stream,
                                 statement.bindings),
            stream.batches()))
    bind = node.add(PlanNode("bind cases", target=model.name,
                             open=bind_cases))
    bind.add(source)

    def estimate(node) -> None:
        node.est_rows = bind.est_rows = source.est_rows
        if key is not None:
            # Display-only, like the estimates: a non-mutating probe.
            node.cache = ("hit expected" if cache.contains(key)
                          else "miss expected")
    node.estimator = estimate

    def run(node, batch_size: int) -> int:
        def consume(cases) -> None:
            """The model's consume hook, under its write lock: the steps in
            turn until one consumes ``cases``, the tree keeping the ones
            that did — ``incremental absorb``, else ``fit schema`` and the
            refit."""
            if absorb is not None:
                if absorb.run(cases):
                    return
                node.children[0:1] = [_schema_node(model),
                                      _refit_node(model, pool, dop)]
            space = node.children[0].run(None)
            if fallback is not None:
                pool.note_serial_fallback(fallback)
            if not node.children[1].run(space):
                node.children[1] = _refit_node(model, pool, 1)
                node.children[1].run(space)

        obs_workload.set_phase("bind")
        cases = None
        if key is not None:
            cases = cache.get(key)
            obs_workload.note_cache(hit=cases is not None)
        if cases is None:
            # Only the bound cases accumulate — which the model retains
            # anyway as its training caseset; the source streams.
            cases = []
            for batch in bind.run(batch_size).batches():
                # The model keeps its cases, not the rows they came from.
                batch.source = None
                cases.extend(batch)
                # Cancellation checkpoint per bound batch (row counts are
                # the scan loop's, underneath).
                obs_workload.checkpoint()
            if key is not None:
                cache.put(key, cases, len(cases))
        obs_workload.set_phase("train")
        with model.lock.write():
            trained = model.train(cases, consume)
        metrics = provider.metrics
        metrics.counter("training.cases_total").inc(len(cases))
        metrics.gauge(f"model.{model.name}.case_count").set(model.case_count)
        metrics.histogram("training.cases_per_insert").observe(len(cases))
        return trained
    node.open = run
    return node


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


def train_partitioned(model, space, pool, dop: int) -> int:
    """Try to refit ``model`` over ``dop`` partitions; the cases trained
    on, 0 if it did not run.

    The run-time half of the gates :func:`plan_train` announced as a
    candidate.  ``space`` arrives with the dictionary pass done
    (``fit_schema``) but marginals unfitted; on success the partitions'
    marginal partials are merged in partition order and the merged replica
    is installed.  On any ineligibility the caller's serial refit proceeds
    with the same fitted schema, so no work is wasted.
    """
    algorithm = model.algorithm
    if not algorithm.can_parallelize(space):
        pool.note_serial_fallback("space")
        return 0
    chunks = contiguous_chunks(model.training_cases, dop)
    if len(chunks) < 2:
        pool.note_serial_fallback("caseset_size")
        return 0
    parameters = dict(algorithm.parameters)
    if pool.mode == "process" and not _picklable(
            space, type(algorithm), parameters, chunks[0][:1]):
        pool.note_serial_fallback("pickle")
        return 0

    task = functools.partial(_train_partition, space, type(algorithm),
                             parameters)
    # Collect incrementally (not run_all) so DM_QUERY_LOG shows
    # PARTITIONS_DONE advancing and a CANCEL lands between partitions.
    obs_workload.set_partitions(len(chunks))
    results = []
    for result in pool.map_ordered(task, chunks, dop=dop):
        results.append(result)
        obs_workload.partition_done()
    space.merge_marginal_partials([partials for _, partials in results])
    merged = results[0][0]
    merged.merge([replica for replica, _ in results[1:]])
    merged.space = space
    # MiningModel.train, the only way here, drops the derived state.
    model.algorithm = merged
    model.space = space
    pool.note_parallel_statement("train")
    return len(model.training_cases)


# -- parallel PREDICTION JOIN --------------------------------------------------


def prediction_parallelism(provider, statement: ast.SelectStatement,
                           source: PlanNode) -> Tuple[int, str, Optional[str]]:
    """Serial or parallel, for a PREDICTION JOIN over planned ``source``.

    ``(dop, reason, fallback)``: ``dop > 1`` means parallel; ``reason`` is
    the strategy text; ``fallback`` names the ``pool.serial_fallbacks.*``
    metric the run notes when a pool that could have fanned out stays
    serial (the two pre-gates — no pool, effective dop of 1 — owe none).
    Reads the pool configuration, the statement and, for the small-input
    gate, the planned source's statistics-backed estimate — without
    statistics the original always-parallel behaviour is kept, which is
    the differential suite's baseline.
    """
    pool = provider.pool
    if pool.mode == "serial":
        return 1, "pool mode is serial", None
    dop = pool.effective_dop(statement.maxdop)
    if dop < 2:
        return 1, "effective dop is 1", None
    if statement.order_by or statement.distinct:
        return 1, "blocking clause (ORDER BY / DISTINCT)", "blocking_clause"
    roots = [item.expr for item in statement.select_list]
    if statement.where is not None:
        roots.append(statement.where)
    if _contains_subquery(roots):
        return 1, "subquery in projection or WHERE", "subquery"
    est = source.estimate() if provider.database.stats_enabled else None
    if est is not None and est < 2 * dop:
        # Fan-out overhead dominates on tiny sources; run serially.
        return (1, f"small input (~{est} rows < 2*dop={2 * dop})",
                "small_input")
    reason = f"dop={dop}"
    if pool.mode == "process":
        reason += "; pickle check at run time"
    return dop, reason, None


def prediction_replica(model):
    """A lightweight view of the model for shipping to workers.

    Shares the (read-only) algorithm and space but drops the training
    caseset, so a process-mode task does not pickle the entire caseset per
    chunk; a copy, like a pickle, carries no derived state.
    """
    import copy
    clone = copy.copy(model)
    clone.training_cases = []
    return clone


def _predict_chunk(constant, rows):
    """Worker task: bind one contiguous chunk of source rows and hand the
    bound batch to the kernel.

    ``constant`` is the statement-wide payload.  Returns ``(rows_bound,
    value_tuples)``: the parent accounts for every case bound, as the
    serial path does.
    """
    model, columns, alias, on_pairs, exprs, where = constant
    return len(rows), compile_cases(
        model, _source_context(columns, alias), where, exprs)(
        case_binder(model, columns, alias, on_pairs)(rows))


def parallel_value_batches(provider, dop: int, constant, row_batches):
    """Fan a planned PREDICTION JOIN out over the pool: one list per batch
    of ``row_batches`` with an entry per case bound — the output value
    tuples in exact source order, then a None for each case WHERE
    rejected.

    The one run-time gate: in process mode an unpicklable payload (a
    custom algorithm, say) runs the same task inline on the caller's
    thread and notes ``pool.serial_fallbacks.pickle``.  Nothing is noted
    or sent before the first batch is asked for.
    """
    pool = provider.pool
    if pool.mode == "process" and not _picklable(constant):
        pool.note_serial_fallback("pickle")
        dop = 1
    else:
        pool.note_parallel_statement("predict")
    total = 0
    for bound, values in pool.map_ordered(
            functools.partial(_predict_chunk, constant), row_batches, dop=dop):
        total += bound
        values += [None] * (bound - len(values))
        yield values
    provider.metrics.histogram("prediction.join_fanout").observe(total)
