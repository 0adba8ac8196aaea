"""Queryable observability: tracing, metrics, plans, and export surfaces.

:mod:`repro.obs.trace` keeps one record per statement in a bounded ring
buffer — its counters and, under ``TRACE ON``, the flat list of regions it
ran: one set of rows every trace view renders; :mod:`repro.obs.metrics`
accumulates counters, gauges, and latency histograms.  Both surface back through the SQL command surface
as the ``$SYSTEM.DM_QUERY_LOG``, ``$SYSTEM.DM_TRACE_EVENTS``, and
``$SYSTEM.DM_PROVIDER_METRICS`` schema rowsets, and through the DMX shell's
``TRACE ON | OFF | LAST`` verb.

:mod:`repro.obs.explain` is the ``EXPLAIN [ANALYZE]`` plan profiler;
:mod:`repro.obs.export` renders Prometheus text exposition and serves the
``/metrics`` / ``/healthz`` / ``/queries`` / ``/statements`` HTTP
endpoint; :mod:`repro.obs.sink` is the rotating JSONL slow-query sink;
:mod:`repro.obs.repository` is the workload repository — per-fingerprint
statement aggregates and plan history behind the
``$SYSTEM.DM_STATEMENT_STATS`` / ``DM_PLAN_HISTORY`` /
``DM_PLAN_CHANGES`` rowsets.
"""

from repro.obs.trace import Region, StatementRecord, Tracer
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.explain import (
    PlanNode,
    build_plan,
    explain_rowset,
    is_plan_rowset,
)
from repro.obs.export import TelemetryServer, render_prometheus
from repro.obs.repository import (
    QuantileSketch,
    WorkloadRepository,
    plan_skeleton,
    q_error,
)
from repro.obs.sink import SlowQuerySink, statement_record_dict
from repro.obs.workload import CancelToken, WorkloadRegistry

__all__ = [
    "CancelToken",
    "WorkloadRegistry",
    "Region",
    "StatementRecord",
    "Tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PlanNode",
    "build_plan",
    "explain_rowset",
    "is_plan_rowset",
    "TelemetryServer",
    "render_prometheus",
    "SlowQuerySink",
    "statement_record_dict",
    "QuantileSketch",
    "WorkloadRepository",
    "plan_skeleton",
    "q_error",
]
