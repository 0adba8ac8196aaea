"""Telemetry export: Prometheus text exposition + the HTTP endpoint.

:func:`render_prometheus` turns :meth:`MetricsRegistry.snapshot` into the
Prometheus text exposition format (version 0.0.4): counters and gauges as
single samples, histograms as summaries (window-based ``quantile`` labels
plus the monotonic ``_count``/``_sum`` series that survive window
eviction).  Everything is stdlib-only — no client library.

:class:`TelemetryServer` serves a provider's telemetry over plain
``http.server`` on a daemon thread:

* ``GET /metrics``  — the exposition text;
* ``GET /healthz``  — 200 while the provider can accept writes, 503 once
  the durable store has turned read-only after a durability failure;
* ``GET /queries``  — the last ``limit`` (50) rows of
  ``$SYSTEM.DM_QUERY_LOG`` as JSON, live statements included: each row's
  columns under lower-cased names, plus its counters and captured spans;
* ``GET /active``   — the same for the ``running`` rows only (kept for one
  release; ``/queries`` lists them too);
* ``GET /statements`` — the workload repository as JSON: per-fingerprint
  aggregates (``DM_STATEMENT_STATS``) and plan-change events
  (``DM_PLAN_CHANGES``).

``/metrics`` additionally exposes the ``repro_statement_*`` families —
per-fingerprint calls/errors/latency-quantiles for the hottest statement
shapes, labelled by fingerprint.

Started with ``connect(...).provider.serve_metrics(port)`` or
``dmxsh --metrics-port N``.

:func:`export_chrome_trace` writes the tracer's statement ring as a
Chrome-trace JSON array (the ``chrome://tracing`` / Perfetto format), one
complete ("X") event per span, so a whole statement's span tree can be
inspected on a timeline.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional
from urllib.parse import parse_qs, urlparse

from repro.obs.sink import statement_record_dict
from repro.obs.workload import statement_dict, statements

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def metric_name(name: str, namespace: str = "repro") -> str:
    """Sanitize a registry metric name into a legal Prometheus name."""
    flat = _NAME_OK.sub("_", name)
    if flat and flat[0].isdigit():
        flat = "_" + flat
    return f"{namespace}_{flat}" if namespace else flat


def escape_label_value(value: str) -> str:
    """Escape per the text-format rules: backslash, quote, newline."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _format_value(value) -> str:
    if value is None:
        return "NaN"
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def render_prometheus(registry, namespace: str = "repro",
                      info: Optional[Dict[str, str]] = None) -> str:
    """The full exposition for one registry, one family per metric.

    ``info`` adds a constant ``<namespace>_provider_info`` gauge whose
    labels carry build/configuration facts (the conventional ``_info``
    pattern); label values are escaped, so arbitrary strings are safe.
    """
    lines = []
    for row in registry.snapshot():
        name = metric_name(row["name"], namespace)
        kind = row["kind"]
        if kind == "counter":
            lines.append(f"# HELP {name} counter {row['name']}")
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {_format_value(row['value'])}")
        elif kind == "gauge":
            lines.append(f"# HELP {name} gauge {row['name']}")
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_format_value(row['value'])}")
        elif kind == "histogram":
            lines.append(f"# HELP {name} histogram {row['name']}")
            lines.append(f"# TYPE {name} summary")
            for label, key in (("0.5", "p50"), ("0.95", "p95"),
                               ("0.99", "p99")):
                if row.get(key) is not None:
                    lines.append(f'{name}{{quantile="{label}"}} '
                                 f"{_format_value(row[key])}")
            # Monotonic accumulators: unlike the quantile window these
            # never forget, which is what rate() needs.
            lines.append(f"{name}_count {_format_value(row['count'])}")
            lines.append(f"{name}_sum {_format_value(row.get('sum', row['value']))}")
    if info is not None:
        name = metric_name("provider_info", namespace)
        labels = ",".join(
            f'{_NAME_OK.sub("_", key)}="{escape_label_value(value)}"'
            for key, value in sorted(info.items()))
        lines.append(f"# HELP {name} provider build/configuration info")
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name}{{{labels}}} 1")
    return "\n".join(lines) + "\n"


#: Fingerprints exposed through the ``repro_statement_*`` families —
#: hottest (most total time) first; the full set stays queryable via
#: ``$SYSTEM.DM_STATEMENT_STATS`` and ``/statements``.
STATEMENT_FAMILY_TOP = 5


def render_statement_families(repository, namespace: str = "repro",
                              top: int = STATEMENT_FAMILY_TOP) -> str:
    """The workload repository's ``<namespace>_statement_*`` exposition.

    Per-fingerprint counters and a latency summary for the ``top`` hottest
    statement shapes, plus the monotonic plan-change event counter.
    Returns "" when the repository is disabled or empty.
    """
    if not repository.enabled:
        return ""
    stats = repository.statement_stats()
    if not stats:
        return ""
    prefix = metric_name("statement", namespace)
    lines = []

    def family(suffix: str, kind: str, help_text: str) -> str:
        name = f"{prefix}_{suffix}"
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        return name

    hottest = stats[:max(0, top)]
    name = family("calls_total", "counter",
                  "statement executions per fingerprint")
    for stat in hottest:
        lines.append(f'{name}{{fingerprint="{stat["fingerprint"]}"}} '
                     f"{_format_value(stat['calls'])}")
    name = family("errors_total", "counter",
                  "failed statement executions per fingerprint")
    for stat in hottest:
        lines.append(f'{name}{{fingerprint="{stat["fingerprint"]}"}} '
                     f"{_format_value(stat['errors'])}")
    name = family("rows_returned_total", "counter",
                  "rows returned per fingerprint")
    for stat in hottest:
        lines.append(f'{name}{{fingerprint="{stat["fingerprint"]}"}} '
                     f"{_format_value(stat['rows_returned'])}")
    name = family("latency_ms", "summary",
                  "statement latency quantiles per fingerprint (sketched)")
    for stat in hottest:
        fp = stat["fingerprint"]
        for label, key in (("0.5", "p50_ms"), ("0.95", "p95_ms"),
                           ("0.99", "p99_ms")):
            if stat.get(key) is not None:
                lines.append(f'{name}{{fingerprint="{fp}",'
                             f'quantile="{label}"}} '
                             f"{_format_value(stat[key])}")
        lines.append(f'{name}_count{{fingerprint="{fp}"}} '
                     f"{_format_value(stat['calls'])}")
        lines.append(f'{name}_sum{{fingerprint="{fp}"}} '
                     f"{_format_value(stat['total_ms'])}")
    name = family("plan_changes_total", "counter",
                  "active-plan changes observed across all fingerprints")
    lines.append(f"{name} {_format_value(len(repository.plan_changes()))}")
    return "\n".join(lines) + "\n"


def provider_info(provider) -> Dict[str, str]:
    """The constant labels for the ``provider_info`` series."""
    import repro
    return {
        "version": getattr(repro, "__version__", "0"),
        "pool_mode": provider.pool.mode,
        "max_workers": str(provider.pool.max_workers),
        "durable": "yes" if provider.store is not None else "no",
    }


class _Handler(BaseHTTPRequestHandler):
    """Routes /metrics, /healthz, /queries against ``server.provider``."""

    server_version = "repro-telemetry"

    def log_message(self, *args) -> None:  # silence per-request stderr noise
        pass

    def _reply(self, status: int, body: str, content_type: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _statements(self, records) -> None:
        self._reply(200, json.dumps([statement_record_dict(record)
                                     for record in records], default=str),
                    "application/json")

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        provider = self.server.provider
        parsed = urlparse(self.path)
        if parsed.path == "/metrics":
            body = render_prometheus(provider.metrics,
                                     info=provider_info(provider))
            repository = getattr(provider, "repository", None)
            if repository is not None:
                body += render_statement_families(repository)
            self._reply(200, body, CONTENT_TYPE)
            return
        if parsed.path == "/healthz":
            store = provider.store
            if store is not None and store.broken:
                self._reply(503, json.dumps(
                    {"status": "read-only",
                     "reason": "durable store failed; writes refused"}),
                    "application/json")
                return
            self._reply(200, json.dumps({"status": "ok"}),
                        "application/json")
            return
        if parsed.path == "/queries":
            try:
                limit = int(parse_qs(parsed.query).get("limit", ["50"])[0])
            except (TypeError, ValueError):
                limit = 50
            self._statements(statements(provider)[-max(0, limit):])
            return
        if parsed.path == "/active":
            self._statements([record for record in statements(provider)
                              if record.status == "running"])
            return
        if parsed.path == "/statements":
            repository = provider.repository
            body = json.dumps({
                "statements": repository.statement_stats(),
                "plan_changes": repository.plan_changes(),
            }, default=str)
            self._reply(200, body, "application/json")
            return
        self._reply(404, json.dumps({"error": f"no route {parsed.path!r}"}),
                    "application/json")


class TelemetryServer:
    """The provider's HTTP telemetry endpoint, on a daemon thread.

    :meth:`close` releases the socket and joins the serving thread, and is
    idempotent — repeated serve/close cycles in one process neither leak
    daemon threads nor hold ports.
    """

    def __init__(self, provider, host: str = "127.0.0.1", port: int = 0):
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.provider = provider
        self.host, self.port = self._httpd.server_address[:2]
        self._closed = False
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"repro-telemetry:{self.port}", daemon=True)
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "TelemetryServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Chrome-trace export (chrome://tracing / Perfetto JSON array format)
# ---------------------------------------------------------------------------

def chrome_trace_events(provider) -> list:
    """The tracer ring as a list of Chrome-trace event dicts.

    Each span becomes one complete ("X") event: ``ts``/``dur`` in
    microseconds, ``pid`` fixed, ``tid`` the executing thread.  Span
    counters and attributes travel in ``args``, and the root span's also
    carry the statement's row (:func:`repro.obs.workload.statement_dict`),
    so Perfetto shows them on selection.  Thread names are emitted as
    metadata ("M") events.
    """
    events = []
    threads = {}

    def tid_for(thread_name):
        if thread_name not in threads:
            threads[thread_name] = len(threads) + 1
            events.append({
                "name": "thread_name", "ph": "M", "pid": 1,
                "tid": threads[thread_name],
                "args": {"name": thread_name},
            })
        return threads[thread_name]

    for record in provider.tracer.statements():
        tid = tid_for(record.thread or "main")
        # Wall-clock anchor for the statement; span offsets are the
        # perf_counter deltas from the root span's start.
        base_us = record.started_at * 1e6
        root_started = record.root.started
        for span, _depth in record.root.walk():
            if span.duration_ms is None:
                continue
            args = statement_dict(record) if span is record.root else {}
            if span.counters:
                args["counters"] = dict(span.counters)
            if span.attributes:
                args["attributes"] = {key: str(value) for key, value
                                      in span.attributes.items()}
            events.append({
                "name": (f"#{record.statement_id} {record.kind}"
                         if span is record.root else span.name),
                "cat": record.kind or "statement",
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": base_us + (span.started - root_started) * 1e6,
                "dur": span.duration_ms * 1000.0,
                "args": args,
            })
    return events


def export_chrome_trace(provider, path: str) -> int:
    """Write the trace ring to ``path`` as Chrome-trace JSON.

    Returns the number of statements exported.  Load the file in
    ``chrome://tracing`` or https://ui.perfetto.dev.
    """
    events = chrome_trace_events(provider)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                  handle, default=str)
    return len(provider.tracer.statements())
