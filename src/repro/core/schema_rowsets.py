"""OLE DB DM schema rowsets: the provider's self-description (section 2).

"Schema rowsets specify the capabilities of an OLE DB DM provider ...
supported capabilities (e.g. prediction, segmentation, sequence analysis,
etc.), types of data distributions supported, limitations of the provider
... Other schema rowsets provide metadata on the columns of a mining model,
on its contents, and the supported services."

Queryable as ``SELECT * FROM $SYSTEM.<rowset>``:

* MINING_MODELS, MINING_COLUMNS — catalog metadata;
* MINING_SERVICES, SERVICE_PARAMETERS — registered algorithm capabilities;
* MINING_FUNCTIONS — the prediction UDF surface;
* MINING_MODEL_CONTENT — the content graph of every populated model (also
  reachable per-model as ``SELECT * FROM <model>.CONTENT``);
* DM_QUERY_LOG, DM_TRACE_EVENTS, DM_PROVIDER_METRICS — the provider's own
  telemetry (one row per statement, finished or running, with what it
  cost; its trace rows; metric snapshot), applying the schema-rowset idea to
  the provider's runtime behaviour.  DM_QUERY_LOG's running rows give the
  ids the ``CANCEL <id>`` verb takes;
* DM_LOCK_WAITS — where locks blocked;
* DM_SESSIONS — the network sessions connected through the DMX server
  (:mod:`repro.server`): one row per live or recently-closed session with
  its negotiated knobs and traffic accounting;
* DM_BUFFER_POOL, DM_INDEXES — the paged row store's buffer residency
  (one row per cached page, LRU-first) and every user index with its
  usage counters (:mod:`repro.sqlstore.storage`);
* DM_STATEMENT_STATS, DM_PLAN_HISTORY, DM_PLAN_CHANGES — the workload
  repository (:mod:`repro.obs.repository`): per-fingerprint statement
  aggregates, captured plan skeletons with q-error, and plan-change
  events.
"""

from __future__ import annotations

import difflib
from typing import List, Optional

from repro.errors import BindError
from repro.obs.workload import STATEMENT_COLUMNS, statements, timestamp
from repro.sqlstore.rowset import Rowset, RowsetColumn
from repro.sqlstore.types import BOOLEAN, DOUBLE, LONG, TEXT
from repro.core.columns import ContentRole, ModelColumn
from repro.core.content import ContentNode
from repro.core.functions import PREDICTION_FUNCTIONS
from repro.algorithms.registry import algorithm_services


def mining_models_rowset(provider) -> Rowset:
    columns = [
        RowsetColumn("MODEL_NAME", TEXT),
        RowsetColumn("SERVICE_NAME", TEXT),
        RowsetColumn("IS_POPULATED", BOOLEAN),
        RowsetColumn("CASE_COUNT", LONG),
        RowsetColumn("INSERT_COUNT", LONG),
        RowsetColumn("PREDICTION_ENTITIES", TEXT),
    ]
    rows = []
    for model in provider.list_models():
        outputs = ", ".join(c.name for c in
                            model.definition.output_columns())
        rows.append((model.name, model.algorithm.SERVICE_NAME,
                     model.is_trained, model.case_count,
                     model.insert_count, outputs))
    return Rowset(columns, rows)


def mining_columns_rowset(provider) -> Rowset:
    columns = [
        RowsetColumn("MODEL_NAME", TEXT),
        RowsetColumn("COLUMN_NAME", TEXT),
        RowsetColumn("NESTED_TABLE", TEXT),
        RowsetColumn("DATA_TYPE", TEXT),
        RowsetColumn("CONTENT_TYPE", TEXT),
        RowsetColumn("IS_PREDICTABLE", BOOLEAN),
        RowsetColumn("IS_INPUT", BOOLEAN),
        RowsetColumn("IS_KEY", BOOLEAN),
        RowsetColumn("RELATED_ATTRIBUTE", TEXT),
        RowsetColumn("QUALIFIER", TEXT),
        RowsetColumn("QUALIFIER_OF", TEXT),
        RowsetColumn("DISTRIBUTION_HINT", TEXT),
    ]
    rows: List[tuple] = []
    for model in provider.list_models():
        for column in model.definition.columns:
            rows.extend(_column_rows(model.name, column, None))
    return Rowset(columns, rows)


def _column_rows(model_name: str, column: ModelColumn,
                 parent: Optional[str]) -> List[tuple]:
    if column.is_table:
        rows = [(model_name, column.name, parent, "TABLE", "TABLE",
                 column.predict, column.is_input, False, None, None, None,
                 None)]
        for nested in column.nested_columns:
            rows.extend(_column_rows(model_name, nested, column.name))
        return rows
    content = column.attribute_type.value if column.attribute_type else \
        column.role.value
    return [(model_name, column.name, parent,
             column.data_type.name if column.data_type else None,
             content if column.role is not ContentRole.KEY else "KEY",
             column.predict, column.is_input,
             column.role is ContentRole.KEY,
             column.related_to, column.qualifier, column.qualifier_of,
             column.distribution)]


def mining_services_rowset(provider=None) -> Rowset:
    columns = [
        RowsetColumn("SERVICE_NAME", TEXT),
        RowsetColumn("SERVICE_DISPLAY_NAME", TEXT),
        RowsetColumn("PREDICTS_DISCRETE", BOOLEAN),
        RowsetColumn("PREDICTS_CONTINUOUS", BOOLEAN),
        RowsetColumn("SUPPORTS_NESTED_TABLES", BOOLEAN),
        RowsetColumn("SUPPORTS_INCREMENTAL", BOOLEAN),
        RowsetColumn("SUPPORTS_PARALLEL_TRAINING", BOOLEAN),
        RowsetColumn("ALIASES", TEXT),
    ]
    rows = []
    for service in algorithm_services():
        rows.append((service.SERVICE_NAME,
                     service.DISPLAY_NAME or service.SERVICE_NAME,
                     service.PREDICTS_DISCRETE,
                     service.PREDICTS_CONTINUOUS,
                     service.SUPPORTS_NESTED_TABLES,
                     service.SUPPORTS_INCREMENTAL,
                     False,  # no service trains in partitions
                     ", ".join(service.ALIASES)))
    return Rowset(columns, rows)


def service_parameters_rowset(provider=None) -> Rowset:
    columns = [
        RowsetColumn("SERVICE_NAME", TEXT),
        RowsetColumn("PARAMETER_NAME", TEXT),
        RowsetColumn("DEFAULT_VALUE", TEXT),
    ]
    rows = []
    for service in algorithm_services():
        for name, default in sorted(service.SUPPORTED_PARAMETERS.items()):
            rows.append((service.SERVICE_NAME, name, str(default)))
    return Rowset(columns, rows)


_FUNCTION_DESCRIPTIONS = {
    "PREDICT": ("scalar/table", "Best estimate of a model column; "
                                "recommendations for TABLE columns"),
    "PREDICTPROBABILITY": ("scalar", "Probability of the predicted (or a "
                                     "given) value"),
    "PREDICTSUPPORT": ("scalar", "Training support behind the prediction"),
    "PREDICTVARIANCE": ("scalar", "Variance of a continuous prediction"),
    "PREDICTSTDEV": ("scalar", "Standard deviation of a continuous "
                               "prediction"),
    "PREDICTHISTOGRAM": ("table", "Histogram of candidate values with "
                                  "probability/support/variance"),
    "PREDICTASSOCIATION": ("table", "Top recommended nested-table items"),
    "CLUSTER": ("scalar", "1-based id of the most probable cluster"),
    "CLUSTERPROBABILITY": ("scalar", "Posterior probability of a cluster"),
    "CLUSTERDISTANCE": ("scalar", "Distance to a cluster"),
    "RANGEMIN": ("scalar", "Lower bound of the predicted DISCRETIZED "
                           "bucket"),
    "RANGEMID": ("scalar", "Midpoint of the predicted DISCRETIZED bucket"),
    "RANGEMAX": ("scalar", "Upper bound of the predicted DISCRETIZED "
                           "bucket"),
    "TOPCOUNT": ("table", "N rows with the largest rank value"),
    "TOPSUM": ("table", "Smallest rank-sorted prefix summing past a "
                        "threshold"),
    "TOPPERCENT": ("table", "Smallest rank-sorted prefix covering a "
                            "percentage of the total"),
}


def mining_functions_rowset(provider=None) -> Rowset:
    columns = [
        RowsetColumn("FUNCTION_NAME", TEXT),
        RowsetColumn("RETURN_KIND", TEXT),
        RowsetColumn("DESCRIPTION", TEXT),
    ]
    rows = []
    for name in sorted(PREDICTION_FUNCTIONS):
        kind, description = _FUNCTION_DESCRIPTIONS.get(
            name, ("scalar", ""))
        rows.append((name, kind, description))
    return Rowset(columns, rows)


# ---------------------------------------------------------------------------
# MINING_MODEL_CONTENT
# ---------------------------------------------------------------------------

def _content_columns() -> List[RowsetColumn]:
    distribution_columns = [
        RowsetColumn("ATTRIBUTE_NAME", TEXT),
        RowsetColumn("ATTRIBUTE_VALUE", TEXT),
        RowsetColumn("SUPPORT", DOUBLE),
        RowsetColumn("PROBABILITY", DOUBLE),
        RowsetColumn("VARIANCE", DOUBLE),
    ]
    return [
        RowsetColumn("MODEL_NAME", TEXT),
        RowsetColumn("NODE_UNIQUE_NAME", TEXT),
        RowsetColumn("PARENT_UNIQUE_NAME", TEXT),
        RowsetColumn("NODE_TYPE", LONG),
        RowsetColumn("NODE_TYPE_NAME", TEXT),
        RowsetColumn("NODE_CAPTION", TEXT),
        RowsetColumn("NODE_DESCRIPTION", TEXT),
        RowsetColumn("CHILDREN_CARDINALITY", LONG),
        RowsetColumn("NODE_SUPPORT", DOUBLE),
        RowsetColumn("NODE_PROBABILITY", DOUBLE),
        RowsetColumn("NODE_RULE", TEXT),
        RowsetColumn("NODE_DISTRIBUTION",
                     nested_columns=distribution_columns),
    ]


def _content_rows(model_name: str, root: ContentNode) -> List[tuple]:
    distribution_columns = _content_columns()[-1].nested_columns
    rows = []
    for node in root.walk():
        distribution = Rowset(
            distribution_columns,
            [(r.attribute,
              None if r.value is None else str(r.value),
              r.support, r.probability, r.variance)
             for r in node.distribution])
        rows.append((model_name, node.node_id, node.parent_id,
                     node.node_type, node.node_type_name, node.caption,
                     node.description, len(node.children), node.support,
                     node.probability, node.to_xml(), distribution))
    return rows


def model_content_rowset(model) -> Rowset:
    """``SELECT * FROM <model>.CONTENT``."""
    return Rowset(_content_columns(),
                  _content_rows(model.name, model.content_root()))


def mining_model_content_rowset(provider) -> Rowset:
    """``$SYSTEM.MINING_MODEL_CONTENT``: all populated models' graphs."""
    rows: List[tuple] = []
    for model in provider.list_models():
        if model.is_trained:
            rows.extend(_content_rows(model.name, model.content_root()))
    return Rowset(_content_columns(), rows)


# ---------------------------------------------------------------------------
# Telemetry rowsets (DM_QUERY_LOG / DM_TRACE_EVENTS / DM_PROVIDER_METRICS)
# ---------------------------------------------------------------------------

def _format_pairs(pairs) -> Optional[str]:
    if not pairs:
        return None
    return ", ".join(f"{name}={value:g}" if isinstance(value, float)
                     else f"{name}={value}"
                     for name, value in sorted(pairs.items()))


def dm_query_log_rowset(provider) -> Rowset:
    """``$SYSTEM.DM_QUERY_LOG``: one row per statement, in the columns of
    :data:`~repro.obs.workload.STATEMENT_COLUMNS` — the finished ring,
    then the live statements (``STATUS`` ``running``; a statement reading
    the log sees itself so)."""
    return Rowset([RowsetColumn(name, data_type)
                   for name, data_type, _ in STATEMENT_COLUMNS],
                  [tuple(read(record) for _, _, read in STATEMENT_COLUMNS)
                   for record in statements(provider)])


def dm_trace_events_rowset(provider) -> Rowset:
    """``$SYSTEM.DM_TRACE_EVENTS``: the trace rows of ringed statements."""
    columns = [
        RowsetColumn("STATEMENT_ID", LONG),
        RowsetColumn("SPAN_ID", TEXT),
        RowsetColumn("PARENT_SPAN_ID", TEXT),
        RowsetColumn("DEPTH", LONG),
        RowsetColumn("SPAN", TEXT),
        RowsetColumn("DURATION_MS", DOUBLE),
        RowsetColumn("COUNTERS", TEXT),
        RowsetColumn("ATTRIBUTES", TEXT),
    ]
    return Rowset(columns, [
        (record.statement_id, span_id, parent_id, depth, name,
         None if duration_ms is None else round(duration_ms, 3),
         _format_pairs(counters), _format_pairs(attributes))
        for record in provider.tracer.statements()
        for span_id, parent_id, depth, name, _, duration_ms, counters,
        attributes in record.trace_rows()])


def dm_provider_metrics_rowset(provider) -> Rowset:
    """``$SYSTEM.DM_PROVIDER_METRICS``: the current metric snapshot."""
    columns = [
        RowsetColumn("METRIC", TEXT),
        RowsetColumn("KIND", TEXT),
        RowsetColumn("COUNT", LONG),
        RowsetColumn("VALUE", DOUBLE),
        RowsetColumn("SUM", DOUBLE),
        RowsetColumn("MIN", DOUBLE),
        RowsetColumn("MAX", DOUBLE),
        RowsetColumn("MEAN", DOUBLE),
        RowsetColumn("P50", DOUBLE),
        RowsetColumn("P95", DOUBLE),
        RowsetColumn("P99", DOUBLE),
    ]

    def fmt(value):
        return None if value is None else round(float(value), 4)

    rows = []
    for entry in provider.metrics.snapshot():
        rows.append((
            entry["name"], entry["kind"], entry.get("count"),
            fmt(entry.get("value")), fmt(entry.get("sum")),
            fmt(entry.get("min")),
            fmt(entry.get("max")), fmt(entry.get("mean")),
            fmt(entry.get("p50")), fmt(entry.get("p95")),
            fmt(entry.get("p99")),
        ))
    return Rowset(columns, rows)


def dm_lock_waits_rowset(provider) -> Rowset:
    """``$SYSTEM.DM_LOCK_WAITS``: contended-lock aggregate, per (lock, mode).

    Only *contended* acquisitions register — an uncontended fast-path
    acquire is never counted — so a nonempty rowset means real blocking.
    """
    columns = [
        RowsetColumn("LOCK", TEXT),
        RowsetColumn("MODE", TEXT),
        RowsetColumn("WAITS", LONG),
        RowsetColumn("TOTAL_WAIT_MS", DOUBLE),
        RowsetColumn("MAX_WAIT_MS", DOUBLE),
        RowsetColumn("LAST_WAIT_AT", TEXT),
    ]
    rows = []
    for entry in provider.workload.contention():
        rows.append((
            entry.lock,
            entry.mode,
            entry.waits,
            round(entry.total_wait_ms, 3),
            round(entry.max_wait_ms, 3),
            timestamp(entry.last_wait_at),
        ))
    return Rowset(columns, rows)


def dm_sessions_rowset(provider) -> Rowset:
    """``$SYSTEM.DM_SESSIONS``: network sessions on the attached DMX server.

    One row per live session (state ``active``) plus a bounded ring of
    recently closed ones (state ``closed``).  Empty when no server is
    attached — the embedded library has no session concept.
    """
    columns = [
        RowsetColumn("SESSION_ID", LONG),
        RowsetColumn("REMOTE", TEXT),
        RowsetColumn("STATE", TEXT),
        RowsetColumn("CONNECTED_AT", TEXT),
        RowsetColumn("STATEMENTS", LONG),
        RowsetColumn("ROWS_SENT", LONG),
        RowsetColumn("BYTES_IN", LONG),
        RowsetColumn("BYTES_OUT", LONG),
        RowsetColumn("BATCH_SIZE", LONG),
        RowsetColumn("MAX_DOP", LONG),
        RowsetColumn("LAST_STATEMENT", TEXT),
    ]
    server = getattr(provider, "dmx_server", None)
    rows = []
    if server is not None:
        for session in server.sessions():
            rows.append((
                session.session_id,
                session.remote,
                session.state,
                timestamp(session.connected_at),
                session.statements,
                session.rows_sent,
                session.bytes_in,
                session.bytes_out,
                session.batch_size,
                session.max_dop,
                session.last_statement,
            ))
    return Rowset(columns, rows)


def dm_buffer_pool_rowset(provider) -> Rowset:
    """``$SYSTEM.DM_BUFFER_POOL``: resident pages of the paged row store.

    One row per buffered page, LRU-first (the first row is the next
    eviction victim), plus the pool counters exposed through
    ``DM_PROVIDER_METRICS`` as ``buffer.*``.  Empty when the provider runs
    purely in memory (no ``storage_path``).
    """
    columns = [
        RowsetColumn("TABLE_NAME", TEXT),
        RowsetColumn("PAGE_ID", LONG),
        RowsetColumn("ROWS", LONG),
        RowsetColumn("DIRTY", BOOLEAN),
        RowsetColumn("PINS", LONG),
        RowsetColumn("SIZE_BYTES", LONG),
    ]
    storage = getattr(provider, "storage", None)
    rows = [] if storage is None else storage.pool_rows(provider.database)
    return Rowset(columns, rows)


def dm_indexes_rowset(provider) -> Rowset:
    """``$SYSTEM.DM_INDEXES``: every user index (CREATE INDEX) with its
    shape and usage counters — seeks, range seeks, and join builds."""
    columns = [
        RowsetColumn("TABLE_NAME", TEXT),
        RowsetColumn("INDEX_NAME", TEXT),
        RowsetColumn("COLUMN_NAME", TEXT),
        RowsetColumn("KIND", TEXT),
        RowsetColumn("KEYS", LONG),
        RowsetColumn("ENTRIES", LONG),
        RowsetColumn("SEEKS", LONG),
        RowsetColumn("RANGE_SEEKS", LONG),
        RowsetColumn("JOIN_PROBES", LONG),
    ]
    rows = []
    database = provider.database
    for key in sorted(database.tables):
        table = database.tables[key]
        for index in table.indexes.values():
            rows.append((
                table.schema.name,
                index.name,
                index.column_name,
                index.kind,
                index.keys,
                index.entries,
                index.seeks,
                index.range_seeks,
                index.join_probes,
            ))
    return Rowset(columns, rows)


def dm_column_statistics_rowset(provider) -> Rowset:
    """``$SYSTEM.DM_COLUMN_STATISTICS``: optimizer statistics per column —
    row count, NDV, null fraction, min/max, and the equi-depth histogram
    (rendered as ``lo..hi:rows/ndv`` bucket triples)."""
    columns = [
        RowsetColumn("TABLE_NAME", TEXT),
        RowsetColumn("COLUMN_NAME", TEXT),
        RowsetColumn("ROW_COUNT", LONG),
        RowsetColumn("NDV", LONG),
        RowsetColumn("NULL_COUNT", LONG),
        RowsetColumn("NULL_FRACTION", DOUBLE),
        RowsetColumn("MIN_VALUE", TEXT),
        RowsetColumn("MAX_VALUE", TEXT),
        RowsetColumn("HISTOGRAM_BUCKETS", LONG),
        RowsetColumn("HISTOGRAM", TEXT),
    ]

    def render(value):
        return None if value is None else str(value)

    rows = []
    database = provider.database
    for key in sorted(database.tables):
        table = database.tables[key]
        table_stats = table.statistics()   # lazily rebuilt after reopen
        if table_stats is None:
            continue
        for stats in table_stats.columns:
            histogram = stats.histogram
            rows.append((
                table.schema.name,
                stats.name,
                table_stats.row_count,
                stats.ndv,
                stats.null_count,
                round(stats.null_fraction(table_stats.row_count), 6),
                render(stats.min_value),
                render(stats.max_value),
                len(histogram),
                "; ".join(f"{render(lo)}..{render(hi)}:{bucket_rows}/{ndv}"
                          for lo, hi, bucket_rows, ndv in histogram),
            ))
    return Rowset(columns, rows)


def _rounded(value, digits: int = 3):
    return None if value is None else round(value, digits)


def dm_statement_stats_rowset(provider) -> Rowset:
    """``$SYSTEM.DM_STATEMENT_STATS``: per-fingerprint workload aggregates.

    One row per statement *shape* (literals blanked, identifiers
    case-folded), hottest by total time first: call/error/cancel counts,
    latency aggregates with sketched p50/p95/p99, rows returned, CPU,
    cache and buffer traffic, and the currently active plan hash.
    """
    columns = [
        RowsetColumn("FINGERPRINT", TEXT),
        RowsetColumn("STATEMENT", TEXT),
        RowsetColumn("EXEMPLAR", TEXT),
        RowsetColumn("KIND", TEXT),
        RowsetColumn("CALLS", LONG),
        RowsetColumn("ERRORS", LONG),
        RowsetColumn("CANCELS", LONG),
        RowsetColumn("TOTAL_MS", DOUBLE),
        RowsetColumn("MEAN_MS", DOUBLE),
        RowsetColumn("MIN_MS", DOUBLE),
        RowsetColumn("MAX_MS", DOUBLE),
        RowsetColumn("P50_MS", DOUBLE),
        RowsetColumn("P95_MS", DOUBLE),
        RowsetColumn("P99_MS", DOUBLE),
        RowsetColumn("ROWS_RETURNED", LONG),
        RowsetColumn("CPU_MS", DOUBLE),
        RowsetColumn("CACHE_HITS", LONG),
        RowsetColumn("CACHE_MISSES", LONG),
        RowsetColumn("BUFFER_READS", LONG),
        RowsetColumn("POOL_TASKS", LONG),
        RowsetColumn("PLANS", LONG),
        RowsetColumn("PLAN_HASH", TEXT),
        RowsetColumn("FIRST_AT", TEXT),
        RowsetColumn("LAST_AT", TEXT),
    ]
    rows = []
    for stat in provider.repository.statement_stats():
        rows.append((
            stat["fingerprint"], stat["statement"], stat["exemplar"],
            stat["kind"], stat["calls"], stat["errors"], stat["cancels"],
            _rounded(stat["total_ms"]), _rounded(stat["mean_ms"]),
            _rounded(stat["min_ms"]), _rounded(stat["max_ms"]),
            _rounded(stat["p50_ms"]), _rounded(stat["p95_ms"]),
            _rounded(stat["p99_ms"]), stat["rows_returned"],
            _rounded(stat["cpu_ms"]), stat["cache_hits"],
            stat["cache_misses"], stat["buffer_reads"], stat["pool_tasks"],
            stat["plans"], stat["plan_hash"],
            timestamp(stat["first_at"]), timestamp(stat["last_at"]),
        ))
    return Rowset(columns, rows)


def dm_plan_history_rowset(provider) -> Rowset:
    """``$SYSTEM.DM_PLAN_HISTORY``: captured plans per fingerprint.

    One row per (fingerprint, plan hash) with execution counts, mean
    latency, est-vs-actual q-error aggregates, and the plan skeleton
    (operator/target/strategy tree, actuals excluded).
    """
    columns = [
        RowsetColumn("FINGERPRINT", TEXT),
        RowsetColumn("PLAN_HASH", TEXT),
        RowsetColumn("IS_ACTIVE", BOOLEAN),
        RowsetColumn("FIRST_SEEN", TEXT),
        RowsetColumn("LAST_SEEN", TEXT),
        RowsetColumn("EXECUTIONS", LONG),
        RowsetColumn("MEAN_MS", DOUBLE),
        RowsetColumn("Q_SAMPLES", LONG),
        RowsetColumn("MEAN_Q_ERROR", DOUBLE),
        RowsetColumn("MAX_Q_ERROR", DOUBLE),
        RowsetColumn("SKELETON", TEXT),
    ]
    rows = []
    for plan in provider.repository.plan_history_rows():
        rows.append((
            plan["fingerprint"], plan["plan_hash"], plan["active"],
            timestamp(plan["first_seen"]), timestamp(plan["last_seen"]),
            plan["executions"], _rounded(plan["mean_ms"]),
            plan["q_count"], _rounded(plan["mean_q_error"]),
            _rounded(plan["max_q_error"]), plan["skeleton"],
        ))
    return Rowset(columns, rows)


def dm_plan_changes_rowset(provider) -> Rowset:
    """``$SYSTEM.DM_PLAN_CHANGES``: plan-regression events, oldest first.

    One row each time a fingerprint's active plan hash moved: old and new
    hash, the most recent schema-affecting statement (the likely trigger),
    the old plan's mean latency frozen at the change, and the new plan's
    current mean latency.
    """
    columns = [
        RowsetColumn("CHANGE_ID", LONG),
        RowsetColumn("FINGERPRINT", TEXT),
        RowsetColumn("STATEMENT", TEXT),
        RowsetColumn("CHANGED_AT", TEXT),
        RowsetColumn("OLD_PLAN_HASH", TEXT),
        RowsetColumn("NEW_PLAN_HASH", TEXT),
        RowsetColumn("TRIGGER_STATEMENT", TEXT),
        RowsetColumn("BEFORE_MEAN_MS", DOUBLE),
        RowsetColumn("AFTER_MEAN_MS", DOUBLE),
    ]
    rows = []
    for change in provider.repository.plan_changes():
        rows.append((
            change["change_id"], change["fingerprint"],
            change["statement"], timestamp(change["changed_at"]),
            change["old_plan_hash"], change["new_plan_hash"],
            change["trigger"], _rounded(change["before_mean_ms"]),
            _rounded(change["after_mean_ms"]),
        ))
    return Rowset(columns, rows)


SYSTEM_ROWSETS = {
    "MINING_MODELS": mining_models_rowset,
    "MINING_COLUMNS": mining_columns_rowset,
    "MINING_SERVICES": mining_services_rowset,
    "SERVICE_PARAMETERS": service_parameters_rowset,
    "MINING_FUNCTIONS": mining_functions_rowset,
    "MINING_MODEL_CONTENT": mining_model_content_rowset,
    "DM_QUERY_LOG": dm_query_log_rowset,
    "DM_TRACE_EVENTS": dm_trace_events_rowset,
    "DM_PROVIDER_METRICS": dm_provider_metrics_rowset,
    "DM_LOCK_WAITS": dm_lock_waits_rowset,
    "DM_SESSIONS": dm_sessions_rowset,
    "DM_BUFFER_POOL": dm_buffer_pool_rowset,
    "DM_INDEXES": dm_indexes_rowset,
    "DM_COLUMN_STATISTICS": dm_column_statistics_rowset,
    "DM_STATEMENT_STATS": dm_statement_stats_rowset,
    "DM_PLAN_HISTORY": dm_plan_history_rowset,
    "DM_PLAN_CHANGES": dm_plan_changes_rowset,
}


def system_rowset(provider, name: str) -> Rowset:
    handler = SYSTEM_ROWSETS.get(name.upper())
    if handler is None:
        close = difflib.get_close_matches(
            name.upper(), list(SYSTEM_ROWSETS), n=1, cutoff=0.6)
        hint = f"; did you mean {close[0]}?" if close else ""
        raise BindError(
            f"unknown schema rowset $SYSTEM.{name} (available: "
            f"{', '.join(sorted(SYSTEM_ROWSETS))}){hint}")
    return handler(provider)
